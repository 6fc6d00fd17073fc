"""Structure-of-arrays export of router state.

The fast core keeps its *hot* per-router state in packed Python ints
(see :mod:`repro.fastcore.router`): at NoC sizes (radix ~5, 4 VCs),
scalar element access into NumPy arrays costs more than int/bitmask
operations, so the per-cycle loops stay on packed ints and NumPy is
used where arrays genuinely win — whole-network analysis snapshots.

:func:`state_arrays` flattens every router's credits, VC occupancy,
connection tables, and chain ages into dense ``[router, port, ...]``
arrays (ragged radices are padded with ``-1``). With NumPy installed
the result is a dict of ``int64`` ndarrays ready for slicing /
aggregation (the live dashboard and hot-spot attribution tools consume
these); without it, the same data comes back as plain nested lists —
the fast core itself never requires NumPy, and this module imports it
on first use only: every default-config run imports ``repro.fastcore``,
and an eager ``import numpy`` costs it ~95 ms of set-up and ~12 MiB.
"""

#: Fill value for ports beyond a router's radix (ragged topologies).
PAD = -1


def state_arrays(network):
    """Dense SoA snapshot: credits, occupancy, connections, ages.

    Returns a dict with keys ``credits`` and ``occupancy`` (shape
    ``[R, Pmax, V]``), ``conn_in``, ``conn_age``, ``port_flits`` (shape
    ``[R, Pmax]``), and ``conn_out`` (shape ``[R, Pmax, 2]`` holding
    ``(input, vc)`` or ``(-1, -1)``). Entries beyond a router's radix
    are ``-1``. Values are NumPy ``int64`` arrays when NumPy is
    available, nested lists otherwise.
    """
    routers = network.routers
    num_routers = len(routers)
    max_radix = max(r.radix for r in routers)
    num_vcs = network.config.num_vcs

    credits = _full((num_routers, max_radix, num_vcs))
    occupancy = _full((num_routers, max_radix, num_vcs))
    conn_in = _full((num_routers, max_radix))
    conn_age = _full((num_routers, max_radix))
    port_flits = _full((num_routers, max_radix))
    conn_out = _full((num_routers, max_radix, 2))

    for r, router in enumerate(routers):
        for p in range(router.radix):
            rc = router.credits[p]
            vcs = router.in_vcs[p]
            for v in range(num_vcs):
                credits[r][p][v] = rc[v]
                occupancy[r][p][v] = len(vcs[v].queue)
            ci = router.conn_in[p]
            conn_in[r][p] = ci if ci is not None else PAD
            conn_age[r][p] = router.conn_age[p]
            port_flits[r][p] = router.port_flits[p]
            held = router.conn_out[p]
            if held is None:
                conn_out[r][p][0] = PAD
                conn_out[r][p][1] = PAD
            else:
                conn_out[r][p][0] = held[0]
                conn_out[r][p][1] = held[1]
    return {
        "credits": credits,
        "occupancy": occupancy,
        "conn_in": conn_in,
        "conn_age": conn_age,
        "port_flits": port_flits,
        "conn_out": conn_out,
    }


def state_arrays_from_state(router_states, num_vcs):
    """Rebuild the SoA export from routers' canonical ``state_dict()``s.

    ``router_states`` is the list of per-router ``state_dict(ctx)``
    outputs (the exact structures checkpoints store and
    :mod:`repro.obs.digest` hashes). Producing the same arrays
    :func:`state_arrays` reads off the live objects closes the coverage
    gap between the two representations: if the fast core's array view
    ever drifted from canonical state, the two exports would disagree.
    """
    num_routers = len(router_states)
    max_radix = max(len(state["conn_in"]) for state in router_states)

    credits = _full((num_routers, max_radix, num_vcs))
    occupancy = _full((num_routers, max_radix, num_vcs))
    conn_in = _full((num_routers, max_radix))
    conn_age = _full((num_routers, max_radix))
    port_flits = _full((num_routers, max_radix))
    conn_out = _full((num_routers, max_radix, 2))

    for r, state in enumerate(router_states):
        radix = len(state["conn_in"])
        for p in range(radix):
            rc = state["credits"][p]
            vcs = state["in_vcs"][p]
            for v in range(num_vcs):
                credits[r][p][v] = rc[v]
                occupancy[r][p][v] = len(vcs[v]["queue"])
            ci = state["conn_in"][p]
            conn_in[r][p] = ci if ci is not None else PAD
            conn_age[r][p] = state["conn_age"][p]
            port_flits[r][p] = state["port_flits"][p]
            held = state["conn_out"][p]
            if held is None:
                conn_out[r][p][0] = PAD
                conn_out[r][p][1] = PAD
            else:
                conn_out[r][p][0] = held[0]
                conn_out[r][p][1] = held[1]
    return {
        "credits": credits,
        "occupancy": occupancy,
        "conn_in": conn_in,
        "conn_age": conn_age,
        "port_flits": port_flits,
        "conn_out": conn_out,
    }


def verify_state_arrays(network):
    """Assert the live SoA export matches the state_dict()-derived one.

    Raises AssertionError naming the first mismatching array; returns
    the (verified) live export. ``repro diverge`` runs this at a
    divergence point to tell SoA-maintenance bugs from allocation bugs.
    """
    from repro.checkpoint import SnapshotContext

    live = state_arrays(network)
    derived = state_arrays_from_state(
        [r.state_dict(SnapshotContext()) for r in network.routers],
        network.config.num_vcs,
    )
    numpy = _numpy()
    for key in live:
        a, b = live[key], derived[key]
        if numpy is not None:
            equal = bool(numpy.array_equal(a, b))
        else:
            equal = a == b
        assert equal, (
            f"SoA export drifted from canonical state_dict() state: "
            f"array {key!r} differs"
        )
    return live


def _numpy():
    """NumPy, imported on first use; None where it is not installed."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised where numpy is absent
        return None
    return numpy


def _full(shape):
    """A PAD-filled array; ``a[i][j] = x`` works on either kind."""
    numpy = _numpy()
    if numpy is not None:
        return numpy.full(shape, PAD, dtype=numpy.int64)

    def nested(dims):
        if len(dims) == 1:
            return [PAD] * dims[0]
        return [nested(dims[1:]) for _ in range(dims[0])]

    return nested(shape)
