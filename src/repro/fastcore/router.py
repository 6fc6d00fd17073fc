"""The fast core's router: packed occupancy state over the reference.

FastRouter keeps the reference :class:`~repro.network.router.Router`'s
state layout, phase sequence, and trace-emission points — the
equivalence contract (see DESIGN.md) — and changes only *how* hot
phases find work:

- ``_occ_mask[p]`` is a per-input-port bitmask of occupied VCs,
  maintained by the inlined ``receive`` and ``_send_flit``. Hot loops
  iterate its set bits in ascending VC order, which is exactly the
  reference's ``enumerate(self.in_vcs[p])`` order minus the empty VCs
  those loops skip anyway — so request dicts, candidate lists, and
  trace events come out in the identical order.
- channel drains are inlined (no per-port list allocation), preserving
  the reference channel's missed-delivery assertion.
- round-robin VC arbitration uses the closed-form pointer arithmetic
  shared with :mod:`repro.fastcore.allocators`.
- per-step constants (``trace.active``, starvation mode, VC class
  ranges) are hoisted out of the per-VC loops.

Fault injection hooks in at the reference's positions (DESIGN.md has
the table): the inherited ``_fault_prepass`` runs before the idle test,
``receive`` filters arrivals through ``faults.intercept``, the SA scans
keep the killed / dead-output skip, and ``_purge_killed`` resyncs the
occupancy mask — a purge is the one queue mutation outside ``receive``
and ``_send_flit``. With no controller bound each hook is one
``is not None`` test on a local. Checkpoint state is inherited
unchanged; ``load_state`` rebuilds the masks from the restored buffers,
so snapshots round-trip with the reference core.
"""

from repro.core.chaining import (
    PC_PRIORITY_DEFINITE,
    PC_PRIORITY_SPECULATIVE,
    ChainingScheme,
    PCCandidate,
    PCRequestBuilder,
    scheme_admits,
)
from repro.core.starvation import StarvationMode
from repro.fastcore.allocators import (
    FastSeparableInputFirstAllocator,
    upgrade_allocator,
)
from repro.network.router import _NONSPECULATIVE_BOOST, Router
from repro.routing.dor import DORMesh

#: Shared read-only stand-in for the per-cycle ``inhibited`` set when
#: starvation control is disabled (nothing ever writes it then).
_NO_INHIBITS = frozenset()


def _pc_candidate_order(c):
    """PCRequestBuilder.candidates_for's sort key (definite class first)."""
    return (c.speculative, -c.priority)


class FastRouter(Router):
    """Reference router with packed-occupancy fast paths."""

    def __init__(self, router_id, radix, config, routing):
        super().__init__(router_id, radix, config, routing)
        #: Bitmask of occupied VCs per input port (bit v set <=> the VC
        #: buffer at [p][v] is non-empty). Exact at phase boundaries:
        #: receive() pushes, _send_flit() and _purge_killed() pop.
        self._occ_mask = [0] * radix
        #: Pre-resolved VC index tuples per traffic class (the reference
        #: rebuilds a range object per _free_out_vc call).
        self._class_vcs = [
            tuple(config.vc_class_range(c)) for c in range(config.num_classes)
        ]
        self._age_mode = self.starvation.mode is StarvationMode.AGE
        self._threshold_mode = self.starvation.mode is StarvationMode.THRESHOLD
        self._starv_disabled = self.starvation.mode is StarvationMode.DISABLED
        self._chain_enabled = self.scheme.enabled
        self._num_vcs = self.config.num_vcs
        self._pc_priorities = config.pc_priorities
        #: Immutable all-None connection row: the start-of-cycle
        #: snapshot whenever no connection is held (the common case).
        self._none_row = (None,) * radix
        #: Reusable PC request builder for the fused scan path (the
        #: candidates list is replaced wholesale each cycle; nothing
        #: retains the builder across cycles).
        self._pc_builder = PCRequestBuilder(self.scheme)
        #: Per-port (input flit queue, credit-return queue, VC list)
        #: triples, resolved lazily on the first receive() — the
        #: channels are wired by Network after construction and never
        #: replaced afterwards (checkpoint restore loads into them).
        self._rx = None
        #: Lazily-resolved (queue, delay) pairs for the output flit and
        #: upstream credit channels, mirroring _rx on the send side.
        self._tx = None
        #: Look-ahead route memo for plain XY DOR: with no faults and
        #: no detour state, next_hop is a pure function of (downstream
        #: router, destination terminal). Other routing functions (torus
        #: datelines) call through uncached, and so does DOR once
        #: FastNetwork.attach_faults has set this to None.
        self._route_cache = {} if type(routing) is DORMesh else None
        upgrade_allocator(self.switch_alloc)
        upgrade_allocator(self.pc_alloc)
        if self.vc_alloc is not None:
            upgrade_allocator(self.vc_alloc)
        #: Whether the single-request allocate() can be inlined in the
        #: fused step (only exact single-iteration separable input-first
        #: allocators; wavefront etc. may evolve state per call).
        self._sa_inline = (
            type(self.switch_alloc) is FastSeparableInputFirstAllocator
            and self.switch_alloc.iterations == 1
        )
        self._pc_inline = (
            type(self.pc_alloc) is FastSeparableInputFirstAllocator
            and self.pc_alloc.iterations == 1
        )

    # ------------------------------------------------------------------
    # checkpointing: layout inherited; rebuild the derived masks
    # ------------------------------------------------------------------

    def load_state(self, state, ctx):
        super().load_state(state, ctx)
        # The restore replaced the per-port credit lists the receive
        # cache captured; rebuild both channel caches lazily.
        self._rx = None
        self._tx = None
        occ = self._occ_mask
        for p in range(self.radix):
            mask = 0
            for v, vcobj in enumerate(self.in_vcs[p]):
                if vcobj.queue:
                    mask |= 1 << v
            occ[p] = mask

    # ------------------------------------------------------------------
    # the fused cycle: the reference phase sequence without the
    # per-phase dispatch, property lookups, or single-request allocator
    # calls
    # ------------------------------------------------------------------

    def step(self, cycle):
        fv = self.faults
        if fv is not None:
            self._fault_prepass(cycle, fv)
        held_any = False
        for held in self.conn_out:
            if held is not None:
                held_any = True
                break
        if not held_any and self._fill[0] == 0:
            if self._chain_enabled:
                self.chain_stats.cycles += 1
            return
        if self.profiler is not None:
            # The profiled twin keeps the reference's per-phase timers
            # (it dispatches back into this class's phase methods, so
            # attribution still reflects the fast implementations).
            self._step_profiled(cycle)
            return
        releasing = {}
        if held_any:
            released_inputs = set()
            conn_in_start = self.conn_in.copy()
            conn_out_start = self.conn_out.copy()
            if self._starv_disabled:
                inhibited = _NO_INHIBITS
            else:
                inhibited = set()
                self._forced_releases(cycle, released_inputs, inhibited)
            departed_vcs = self._stream_connections(
                cycle, releasing, released_inputs, inhibited
            )
        else:
            # Nothing held at cycle start: the start-of-cycle connection
            # snapshot is all-None (shared immutable row), forced
            # releases and streaming have no connections to act on, and
            # nothing can be released or inhibited (shared empties are
            # read-only downstream).
            conn_in_start = conn_out_start = self._none_row
            released_inputs = _NO_INHIBITS
            inhibited = _NO_INHIBITS
            departed_vcs = set()
        # --- fused SA collection + VC-front scan ----------------------
        # Same requests/contrib/tails as _collect_sa_requests (identical
        # iteration order), plus a scan of (p, v, vcobj, flit, active,
        # o_front, connected) for every occupied VC in (port asc, VC
        # asc) order — the exact traversal the ANY_INPUT PC pass
        # repeats, handed over so it doesn't re-derive the fronts.
        # Unlike the SA-only collector, VCs of connected inputs are
        # scanned too (the PC pass considers them once released).
        sa_requests = {}
        sa_contrib = {}
        forming_tails = {}
        scan = []
        append_scan = scan.append
        # Every front that survives the o-determination below is either
        # a head or has an active packet — exactly the end-of-cycle
        # wait-counter condition — and commits only mutate VCs they add
        # to departed_vcs, so collecting waiters here replaces the
        # second occupancy walk at the end of the cycle.
        waiters = []
        append_wait = waiters.append
        num_vcs = self._num_vcs
        starv = self.starvation
        age_mode = self._age_mode
        in_vcs = self.in_vcs
        credits = self.credits
        occ = self._occ_mask
        out_vc_busy = self.out_vc_busy
        class_vcs = self._class_vcs
        split_plain = self.split_va and not self.speculative_va
        speculative = self.speculative_va
        chain_enabled = self._chain_enabled
        radix = self.radix
        for p in range(radix):
            mask = occ[p]
            if not mask:
                continue
            connected = conn_in_start[p] is not None
            vcs = in_vcs[p]
            pbase = p * num_vcs
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                vcobj = vcs[v]
                flit = vcobj.queue[0]
                active = vcobj.active_packet
                if active is not None:
                    o = vcobj.active_out_port
                elif flit.is_head:
                    o = flit.out_port
                elif connected:
                    # Body flit behind a connected stream: sits out of
                    # SA, and the PC pass would skip it too — drop it
                    # from the scan entirely.
                    continue
                else:  # pragma: no cover - body flit without state
                    raise AssertionError(
                        "body flit at VC front without state"
                    )
                if chain_enabled:
                    append_scan((p, v, vcobj, flit, active, o, connected))
                append_wait((pbase + v, vcobj, flit))
                if connected:
                    continue  # connected inputs sit out of SA
                if active is not None:
                    if conn_out_start[o] is not None:
                        continue
                    if credits[o][vcobj.active_out_vc] == 0:
                        continue
                else:
                    if split_plain:
                        continue
                    if conn_out_start[o] is not None:
                        continue
                    # Inlined _free_out_vc existence check.
                    busy = out_vc_busy[o]
                    creds = credits[o]
                    for w in class_vcs[flit.vc_class]:
                        if not busy[w] and creds[w] > 0:
                            break
                    else:
                        continue
                if fv is not None and (
                    flit.packet.killed or o in fv.dead_out
                ):
                    continue  # the reference's belt-and-braces skip
                if age_mode:
                    prio = starv.packet_priority(
                        flit.packet.priority, vcobj.wait_cycles
                    )
                else:
                    prio = flit.packet.priority
                if speculative and active is not None:
                    prio += _NONSPECULATIVE_BOOST
                pair = (p, o)
                contrib = sa_contrib.get(pair)
                if contrib is None:
                    sa_requests[pair] = prio
                    sa_contrib[pair] = [(v, prio)]
                else:
                    if prio > sa_requests[pair]:
                        sa_requests[pair] = prio
                    contrib.append((v, prio))
                if flit.is_tail:
                    tails = forming_tails.get(o)
                    if tails is None:
                        forming_tails[o] = [(p, v)]
                    else:
                        tails.append((p, v))
        builder = None
        pc_grants = {}
        conn_in = self.conn_in
        conn_out = self.conn_out
        conn_age = self.conn_age
        if chain_enabled and (releasing or forming_tails):
            if self.scheme is ChainingScheme.ANY_INPUT:
                # ANY_INPUT PC candidate collection over the shared
                # front scan: semantically identical to
                # _collect_pc_candidates (the scan is in the same
                # port-asc/VC-asc order that pass iterates), with the
                # scheme_admits checks resolved statically — a
                # releasing holder admits everyone, a forming
                # connection admits everyone except its own (p, v) —
                # and the OR-reduced request matrix
                # (PCRequestBuilder.request_matrix) built in the same
                # pass. The profiled path keeps the generic collector.
                builder = self._pc_builder
                candidates = builder.candidates = []
                matrix = {}
                stride = PCRequestBuilder.CLASS_STRIDE
                definite_base = PC_PRIORITY_DEFINITE * stride
                speculative_base = PC_PRIORITY_SPECULATIVE * stride
                prio_cap = stride - 1
                chainable_outputs = set(releasing) | set(forming_tails)
                threshold_mode = self._threshold_mode
                add = candidates.append
                for entry in scan:
                    o_front = entry[5]
                    if o_front is None:
                        continue
                    if o_front in chainable_outputs:
                        p, v, vcobj, flit, active, _, connected = entry
                        if connected and not (
                            p in released_inputs
                            and ("in", p) not in inhibited
                        ):
                            continue
                        q = vcobj.queue
                        front_bids_sa = (p, o_front) in sa_requests
                        behind = None
                        if front_bids_sa and flit.is_tail and len(q) > 1:
                            nxt = q[1]
                            if nxt.is_head:
                                behind = nxt
                        # --- front-flit candidate (o_front) -----------
                        while True:  # single-pass block, break = skip
                            o = o_front
                            if front_bids_sa and o not in forming_tails:
                                break
                            requires = ()
                            if connected and conn_in_start[p] != o:
                                requires = (("own_release",),)
                            holder = releasing.get(o)
                            if holder is not None:
                                age = conn_age[o]
                            elif o in forming_tails:
                                requires = requires + (("sa_tail", o),)
                                age = 0
                            else:
                                break
                            if threshold_mode and not starv.chainable(
                                age, flit.packet.size - flit.index
                            ):
                                break
                            if active is not None:
                                if credits[o][vcobj.active_out_vc] == 0:
                                    break
                            else:
                                busy = out_vc_busy[o]
                                creds = credits[o]
                                for w in class_vcs[flit.vc_class]:
                                    if not busy[w] and creds[w] > 0:
                                        break
                                else:
                                    break
                            if holder is None:
                                tails = forming_tails[o]
                                if len(tails) == 1 and tails[0][0] == p \
                                        and tails[0][1] == v:
                                    break
                            prio = flit.packet.priority
                            add(PCCandidate(
                                input_port=p,
                                vc=v,
                                output_port=o,
                                priority=prio,
                                flit=flit,
                                speculative=bool(requires),
                                requires=requires,
                            ))
                            base = (
                                speculative_base if requires
                                else definite_base
                            )
                            if prio > prio_cap:
                                prio = prio_cap
                            elif prio < 0:
                                prio = 0
                            prio += base
                            pair = (p, o)
                            existing = matrix.get(pair)
                            if existing is None or prio > existing:
                                matrix[pair] = prio
                            break
                    else:
                        flit = entry[3]
                        if not flit.is_tail:
                            continue
                        vcobj = entry[2]
                        q = vcobj.queue
                        if len(q) < 2:
                            continue
                        nxt = q[1]
                        if not nxt.is_head:
                            continue
                        if nxt.out_port not in chainable_outputs:
                            continue
                        p = entry[0]
                        connected = entry[6]
                        if connected and not (
                            p in released_inputs
                            and ("in", p) not in inhibited
                        ):
                            continue
                        if (p, o_front) not in sa_requests:
                            continue
                        v = entry[1]
                        behind = nxt
                    # --- behind-the-tail candidate --------------------
                    if behind is None:
                        continue
                    o = behind.out_port
                    requires = (("front_departs",),)
                    if connected and conn_in_start[p] != o:
                        requires = (("own_release",), ("front_departs",))
                    holder = releasing.get(o)
                    if holder is not None:
                        age = conn_age[o]
                    elif o in forming_tails:
                        requires = requires + (("sa_tail", o),)
                        age = 0
                    else:
                        continue
                    if threshold_mode and not starv.chainable(
                        age, behind.packet.size - behind.index
                    ):
                        continue
                    busy = out_vc_busy[o]
                    creds = credits[o]
                    for w in class_vcs[behind.vc_class]:
                        if not busy[w] and creds[w] > 0:
                            break
                    else:
                        continue
                    prio = behind.packet.priority
                    add(PCCandidate(
                        input_port=p,
                        vc=v,
                        output_port=o,
                        priority=prio,
                        flit=behind,
                        speculative=True,
                        requires=requires,
                    ))
                    if prio > prio_cap:
                        prio = prio_cap
                    elif prio < 0:
                        prio = 0
                    prio += speculative_base
                    pair = (p, o)
                    existing = matrix.get(pair)
                    if existing is None or prio > existing:
                        matrix[pair] = prio
            else:
                builder = self._collect_pc_candidates(
                    conn_in_start, releasing, forming_tails, released_inputs,
                    inhibited, sa_requests,
                )
                matrix = (
                    builder.request_matrix() if builder.candidates else {}
                )
            if matrix:
                if not self._pc_priorities:
                    matrix = {
                        pair: prio % PCRequestBuilder.CLASS_STRIDE
                        for pair, prio in matrix.items()
                    }
                if len(matrix) == 1 and self._pc_inline:
                    ((i, o),) = matrix
                    alloc = self.pc_alloc
                    alloc._output_arbiters[o].pointer = \
                        (i + 1) % alloc.num_inputs
                    alloc._input_arbiters[i].pointer = \
                        (o + 1) % alloc.num_outputs
                    pc_grants = {i: o}
                else:
                    pc_grants = self.pc_alloc.allocate(matrix)
                counters = self.alloc_counters
                counters["pc_requests"] += len(matrix)
                counters["pc_grants"] += len(pc_grants)
        if sa_requests:
            if len(sa_requests) == 1 and self._sa_inline:
                ((i, o),) = sa_requests
                alloc = self.switch_alloc
                alloc._output_arbiters[o].pointer = (i + 1) % alloc.num_inputs
                alloc._input_arbiters[i].pointer = (o + 1) % alloc.num_outputs
                sa_grants = {i: o}
            else:
                sa_grants = self.switch_alloc.allocate(sa_requests)
            counters = self.alloc_counters
            counters["sa_requests"] += len(sa_requests)
            counters["sa_grants"] += len(sa_grants)
        else:
            sa_grants = {}
        sa_winner_vc = {}
        sa_tail_outputs = {}
        if sa_grants:
            # Inlined _commit_sa (the method remains for the profiled
            # path; keep the two in sync).
            tr = self.trace
            tr_active = tr.active
            arbiters = self._sa_vc_arbiters
            tx = self._tx
            if tx is None:
                tx = self._tx = (
                    [
                        (c._queue, c.delay) if c is not None else None
                        for c in self.out_flit_channels
                    ],
                    [
                        (c._queue, c.delay) if c is not None else None
                        for c in self.credit_up_channels
                    ],
                )
            fill = self._fill
            downstream_router = self.downstream_router
            cache = self._route_cache
            port_flits = self.port_flits
            router_id = self.router_id
            for p, o in sa_grants.items():
                entries = sa_contrib[(p, o)]
                if len(entries) == 1:
                    v = entries[0][0]
                else:
                    best = entries[0][1]
                    for _, prio in entries:
                        if prio > best:
                            best = prio
                    pointer = arbiters[p].pointer
                    best_dist = num_vcs
                    for vv, prio in entries:
                        if prio == best:
                            dist = (vv - pointer) % num_vcs
                            if dist < best_dist:
                                best_dist = dist
                                v = vv
                arbiters[p].pointer = (v + 1) % num_vcs
                vcobj = in_vcs[p][v]
                q = vcobj.queue
                flit = q[0]

                if vcobj.active_packet is None:
                    # Inlined _free_out_vc: lowest free VC of the class.
                    ocredits = credits[o]
                    busy = out_vc_busy[o]
                    for w in class_vcs[flit.vc_class]:
                        if not busy[w] and ocredits[w] > 0:
                            break
                    else:
                        # Only reachable for speculative-VA head grants.
                        self.wasted_speculations += 1
                        continue
                    vcobj.start_packet(flit.packet, o, w)
                    busy[w] = True
                    if tr_active:
                        tr.emit(
                            "vc_alloc", cycle, router=router_id, port=o,
                            vc=w, pid=flit.packet.pid,
                        )
                else:
                    w = vcobj.active_out_vc

                if tr_active:
                    tr.emit(
                        "sa_grant", cycle, router=router_id, port=o,
                        pid=flit.packet.pid, in_port=p, vc=v, out_vc=w,
                    )
                # Inlined _send_flit (pop, credit, route memo, sends).
                q.popleft()
                vcobj.wait_cycles = 0
                fill[0] -= 1
                if not q:
                    occ[p] &= ~(1 << v)
                credits[o][w] -= 1
                flit.vc = w
                is_tail = flit.is_tail
                if is_tail:
                    vcobj.active_packet = None
                    vcobj.active_out_port = None
                    vcobj.active_out_vc = None
                    out_vc_busy[o][w] = False
                if flit.is_head:
                    downstream = downstream_router[o]
                    if downstream is not None:
                        if cache is not None:
                            key = (downstream, flit.packet.dest)
                            hop = cache.get(key)
                            if hop is None:
                                hop = cache[key] = self.routing.next_hop(
                                    downstream, flit.packet
                                )
                            flit.out_port, flit.vc_class = hop
                        else:
                            flit.out_port, flit.vc_class = \
                                self.routing.next_hop(
                                    downstream, flit.packet
                                )
                oq, odelay = tx[0][o]
                oq.append((cycle + odelay, flit))
                port_flits[o] += 1
                up = tx[1][p]
                if up is not None:
                    uq, udelay = up
                    uq.append((cycle + udelay, v))
                if tr_active:
                    tr.emit(
                        "flit_routed", cycle, router=router_id, port=o,
                        pid=flit.packet.pid, idx=flit.index, in_port=p,
                        in_vc=v, out_vc=w,
                    )
                    if is_tail:
                        tr.emit(
                            "vc_free", cycle, router=router_id, port=o,
                            vc=w, pid=flit.packet.pid,
                        )
                departed_vcs.add(p * num_vcs + v)
                sa_winner_vc[p] = v
                if is_tail:
                    # Connection forms and releases in the same cycle; a
                    # chained packet may take it over (PC commit checks).
                    sa_tail_outputs[o] = (p, v)
                else:
                    conn_in[p] = o
                    conn_out[o] = (p, v)
                    conn_age[o] = 0
                    if tr_active:
                        tr.emit(
                            "conn_held", cycle, router=router_id, port=o,
                            in_port=p, vc=v, pid=flit.packet.pid,
                        )
        if pc_grants:
            self._commit_pc(
                cycle, pc_grants, builder, sa_grants, sa_winner_vc,
                sa_tail_outputs, releasing, conn_out_start,
            )
        if self.split_va:
            self._split_vc_allocation(cycle)
        # --- inlined _end_of_cycle (ages + wait/blocked counters) -----
        # waiters holds every bump-eligible VC front from the SA scan
        # (commits only touch VCs they add to departed_vcs, so the scan
        # snapshot is still accurate); departed_vcs holds
        # p * num_vcs + v ints, cheaper than (p, v) tuples.
        for o in range(radix):
            if conn_out[o] is not None:
                conn_age[o] += 1
        if departed_vcs:
            for enc, vcobj, flit in waiters:
                if enc in departed_vcs:
                    continue
                vcobj.wait_cycles += 1
                flit.packet.blocked_cycles += 1
        else:
            for _, vcobj, flit in waiters:
                vcobj.wait_cycles += 1
                flit.packet.blocked_cycles += 1
        if self._chain_enabled:
            self.chain_stats.cycles += 1

    # ------------------------------------------------------------------
    # arrivals: inlined channel drains, no list allocation per port
    # ------------------------------------------------------------------

    def receive(self, cycle):
        rx = self._rx
        if rx is None:
            # Wired ports only (unwired ports never deliver anything);
            # flit and credit sides split so each loop touches exactly
            # the state it needs.
            rx = self._rx = (
                [
                    (p, ch._queue, self.in_vcs[p])
                    for p, ch in enumerate(self.in_flit_channels)
                    if ch is not None
                ],
                [
                    (ch._queue, self.credits[p])
                    for p, ch in enumerate(self.credit_return_channels)
                    if ch is not None
                ],
            )
        tr = self.trace
        tr_active = tr.active
        occ = self._occ_mask
        fill = self._fill
        fv = self.faults
        for p, fq, vcs in rx[0]:
            if fq:
                while fq and fq[0][0] <= cycle:
                    due, flit = fq.popleft()
                    if due < cycle:
                        raise AssertionError(
                            "channel item missed its delivery cycle"
                        )
                    if fv is not None and fv.intercept(self, p, flit, cycle):
                        continue
                    # Inlined VirtualChannel.push() (overflow assertion
                    # and the shared fill cell included).
                    vcobj = vcs[flit.vc]
                    if len(vcobj.queue) >= vcobj.capacity:
                        raise OverflowError(
                            "VC buffer overflow (credit protocol violated)"
                        )
                    vcobj.queue.append(flit)
                    fill[0] += 1
                    occ[p] |= 1 << flit.vc
                    if tr_active and flit.is_head:
                        tr.emit(
                            "head_arrived", cycle, router=self.router_id,
                            in_port=p, vc=flit.vc, pid=flit.packet.pid,
                        )
        for cq, port_credits in rx[1]:
            if cq:
                while cq and cq[0][0] <= cycle:
                    due, vc = cq.popleft()
                    if due < cycle:
                        raise AssertionError(
                            "channel item missed its delivery cycle"
                        )
                    port_credits[vc] += 1

    # ------------------------------------------------------------------
    # flit launch: reference body plus occupancy-mask maintenance
    # ------------------------------------------------------------------

    def _send_flit(self, cycle, flit, p, v, o, w):
        tx = self._tx
        if tx is None:
            tx = self._tx = (
                [
                    (c._queue, c.delay) if c is not None else None
                    for c in self.out_flit_channels
                ],
                [
                    (c._queue, c.delay) if c is not None else None
                    for c in self.credit_up_channels
                ],
            )
        vcobj = self.in_vcs[p][v]
        # Inlined VirtualChannel.pop() (the shared fill cell included).
        q = vcobj.queue
        q.popleft()
        vcobj.wait_cycles = 0
        self._fill[0] -= 1
        if not q:
            self._occ_mask[p] &= ~(1 << v)
        self.credits[o][w] -= 1
        flit.vc = w
        if flit.is_tail:
            vcobj.active_packet = None
            vcobj.active_out_port = None
            vcobj.active_out_vc = None
            self.out_vc_busy[o][w] = False
        if flit.is_head:
            downstream = self.downstream_router[o]
            if downstream is not None:
                cache = self._route_cache
                if cache is not None:
                    key = (downstream, flit.packet.dest)
                    hop = cache.get(key)
                    if hop is None:
                        hop = cache[key] = self.routing.next_hop(
                            downstream, flit.packet
                        )
                    flit.out_port, flit.vc_class = hop
                else:
                    flit.out_port, flit.vc_class = self.routing.next_hop(
                        downstream, flit.packet
                    )
        # Inlined PipelinedChannel.send() for the flit and the credit.
        oq, odelay = tx[0][o]
        oq.append((cycle + odelay, flit))
        self.port_flits[o] += 1
        up = tx[1][p]
        if up is not None:
            uq, udelay = up
            uq.append((cycle + udelay, v))
        tr = self.trace
        if tr.active:
            tr.emit(
                "flit_routed", cycle, router=self.router_id, port=o,
                pid=flit.packet.pid, idx=flit.index, in_port=p, in_vc=v,
                out_vc=w,
            )
            if flit.is_tail:
                tr.emit(
                    "vc_free", cycle, router=self.router_id, port=o, vc=w,
                    pid=flit.packet.pid,
                )

    def _free_out_vc(self, output, vc_class):
        credits = self.credits[output]
        busy = self.out_vc_busy[output]
        for w in self._class_vcs[vc_class]:
            if not busy[w] and credits[w] > 0:
                return w
        return None

    # ------------------------------------------------------------------
    # phase 2: stream held connections (hoisted per-step constants)
    # ------------------------------------------------------------------

    def _stream_connections(self, cycle, releasing, released_inputs, inhibited):
        # departed_vcs holds p * num_vcs + v ints (the fast _commit_sa
        # and end-of-cycle pass use the same encoding).
        departed_vcs = set()
        num_vcs = self._num_vcs
        conn_out = self.conn_out
        conn_in = self.conn_in
        in_vcs = self.in_vcs
        credits = self.credits
        conn_age = self.conn_age
        scheme_enabled = self.scheme.enabled
        threshold_mode = self._threshold_mode
        starv = self.starvation
        pseudo = self.config.pseudo_circuit_release
        tx = self._tx
        if tx is None:
            tx = self._tx = (
                [
                    (c._queue, c.delay) if c is not None else None
                    for c in self.out_flit_channels
                ],
                [
                    (c._queue, c.delay) if c is not None else None
                    for c in self.credit_up_channels
                ],
            )
        fill = self._fill
        occ = self._occ_mask
        out_vc_busy = self.out_vc_busy
        downstream_router = self.downstream_router
        cache = self._route_cache
        port_flits = self.port_flits
        router_id = self.router_id
        tr = self.trace
        tr_active = tr.active
        for o in range(self.radix):
            held = conn_out[o]
            if held is None:
                continue
            p, v = held
            vcobj = in_vcs[p][v]
            q = vcobj.queue
            flit = q[0] if q else None
            packet = vcobj.active_packet
            if flit is None or packet is None or flit.packet is not packet:
                # Inlined _release(..., "empty").
                conn_out[o] = None
                conn_in[p] = None
                released_inputs.add(p)
                if tr_active:
                    tr.emit(
                        "conn_released", cycle, router=router_id, port=o,
                        in_port=p, reason="empty",
                    )
                continue
            w = vcobj.active_out_vc
            if credits[o][w] == 0:
                # Inlined _release(..., "no_credit").
                conn_out[o] = None
                conn_in[p] = None
                released_inputs.add(p)
                if tr_active:
                    tr.emit(
                        "conn_released", cycle, router=router_id, port=o,
                        in_port=p, reason="no_credit",
                    )
                continue
            # Inlined _send_flit (pop, credit, route memo, channel sends).
            q.popleft()
            vcobj.wait_cycles = 0
            fill[0] -= 1
            if not q:
                occ[p] &= ~(1 << v)
            credits[o][w] -= 1
            flit.vc = w
            is_tail = flit.is_tail
            if is_tail:
                vcobj.active_packet = None
                vcobj.active_out_port = None
                vcobj.active_out_vc = None
                out_vc_busy[o][w] = False
            if flit.is_head:
                downstream = downstream_router[o]
                if downstream is not None:
                    if cache is not None:
                        key = (downstream, flit.packet.dest)
                        hop = cache.get(key)
                        if hop is None:
                            hop = cache[key] = self.routing.next_hop(
                                downstream, flit.packet
                            )
                        flit.out_port, flit.vc_class = hop
                    else:
                        flit.out_port, flit.vc_class = self.routing.next_hop(
                            downstream, flit.packet
                        )
            oq, odelay = tx[0][o]
            oq.append((cycle + odelay, flit))
            port_flits[o] += 1
            up = tx[1][p]
            if up is not None:
                uq, udelay = up
                uq.append((cycle + udelay, v))
            if tr_active:
                tr.emit(
                    "flit_routed", cycle, router=router_id, port=o,
                    pid=flit.packet.pid, idx=flit.index, in_port=p, in_vc=v,
                    out_vc=w,
                )
                if is_tail:
                    tr.emit(
                        "vc_free", cycle, router=router_id, port=o, vc=w,
                        pid=flit.packet.pid,
                    )
            departed_vcs.add(p * num_vcs + v)
            if is_tail:
                if (
                    scheme_enabled
                    and (not threshold_mode or starv.chainable(conn_age[o]))
                    and ("out", o) not in inhibited
                ):
                    if not (pseudo and self._competing_waiter(o)):
                        releasing[o] = (p, v)
                # Inlined _release(..., "tail").
                conn_out[o] = None
                conn_in[p] = None
                released_inputs.add(p)
                if tr_active:
                    tr.emit(
                        "conn_released", cycle, router=router_id, port=o,
                        in_port=p, reason="tail",
                    )
        return departed_vcs

    # ------------------------------------------------------------------
    # phase 3: SA request collection over occupied VCs only
    # ------------------------------------------------------------------

    def _collect_sa_requests(self, conn_in_start, conn_out_start):
        sa_requests = {}
        sa_contrib = {}
        forming_tails = {}
        starv = self.starvation
        age_mode = self._age_mode
        in_vcs = self.in_vcs
        credits = self.credits
        occ = self._occ_mask
        out_vc_busy = self.out_vc_busy
        class_vcs = self._class_vcs
        split_plain = self.split_va and not self.speculative_va
        speculative = self.speculative_va
        fv = self.faults
        for p in range(self.radix):
            if conn_in_start[p] is not None:
                continue  # inputs connected at cycle start sit out of SA
            mask = occ[p]
            if not mask:
                continue
            vcs = in_vcs[p]
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                vcobj = vcs[v]
                flit = vcobj.queue[0]
                active = vcobj.active_packet
                if active is not None:
                    o = vcobj.active_out_port
                    if conn_out_start[o] is not None:
                        continue
                    if credits[o][vcobj.active_out_vc] == 0:
                        continue
                elif flit.is_head:
                    if split_plain:
                        continue
                    o = flit.out_port
                    if conn_out_start[o] is not None:
                        continue
                    # Inlined _free_out_vc existence check.
                    busy = out_vc_busy[o]
                    creds = credits[o]
                    for w in class_vcs[flit.vc_class]:
                        if not busy[w] and creds[w] > 0:
                            break
                    else:
                        continue
                else:  # pragma: no cover - body flit without state
                    raise AssertionError("body flit at VC front without state")
                if fv is not None and (
                    flit.packet.killed or o in fv.dead_out
                ):
                    continue  # the reference's belt-and-braces skip
                if age_mode:
                    prio = starv.packet_priority(
                        flit.packet.priority, vcobj.wait_cycles
                    )
                else:
                    prio = flit.packet.priority
                if speculative and active is not None:
                    prio += _NONSPECULATIVE_BOOST
                pair = (p, o)
                contrib = sa_contrib.get(pair)
                if contrib is None:
                    sa_requests[pair] = prio
                    sa_contrib[pair] = [(v, prio)]
                else:
                    if prio > sa_requests[pair]:
                        sa_requests[pair] = prio
                    contrib.append((v, prio))
                if flit.is_tail:
                    tails = forming_tails.get(o)
                    if tails is None:
                        forming_tails[o] = [(p, v)]
                    else:
                        tails.append((p, v))
        return sa_requests, sa_contrib, forming_tails

    # ------------------------------------------------------------------
    # phase 4: PC candidate collection with a cheap pre-filter
    # ------------------------------------------------------------------

    def _collect_pc_candidates(
        self, conn_in_start, releasing, forming_tails, released_inputs,
        inhibited, sa_requests,
    ):
        """Inlined equivalent of the reference collect + _candidates_from_vc.

        The structure mirrors the reference exactly — candidate order
        (VCs ascending, the front flit's target before the
        behind-the-tail target) decides priority-tie resolution in
        ``PCRequestBuilder.candidates_for``, so it must not change.
        The win is the pre-filter: most occupied VCs target a
        non-chainable output and exit after a couple of dict probes,
        without list/tuple construction or a delegated call.
        """
        builder = PCRequestBuilder(self.scheme)
        chainable_outputs = set(releasing) | set(forming_tails)
        if not chainable_outputs:
            return builder
        scheme = self.scheme
        any_input = scheme is ChainingScheme.ANY_INPUT
        if any_input:
            inputs = range(self.radix)
        else:
            # Same construction (and therefore the same set iteration
            # order) as the reference: equivalence depends on it.
            inputs = {holder[0] for holder in releasing.values()}
            inputs.update(
                hp for holders in forming_tails.values() for hp, _ in holders
            )
        occ = self._occ_mask
        in_vcs = self.in_vcs
        starv = self.starvation
        threshold_mode = self._threshold_mode
        conn_age = self.conn_age
        credits = self.credits
        out_vc_busy = self.out_vc_busy
        class_vcs = self._class_vcs
        add = builder.candidates.append
        for p in inputs:
            input_start_output = conn_in_start[p]
            input_connected = input_start_output is not None
            if input_connected and not (
                p in released_inputs and ("in", p) not in inhibited
            ):
                # Holding a connection beyond this cycle: no VC of this
                # input can chain.
                continue
            mask = occ[p]
            vcs = in_vcs[p]
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                vcobj = vcs[v]
                q = vcobj.queue
                flit = q[0]
                active = vcobj.active_packet
                if active is not None:
                    o_front = vcobj.active_out_port
                elif flit.is_head:
                    o_front = flit.out_port
                else:  # body flit at front without VC state
                    continue
                front_bids_sa = (p, o_front) in sa_requests
                # Flits behind an SA-bidding front flit (Section 2.4):
                # only the next packet's head directly behind a
                # departing tail can chain.
                behind = None
                if front_bids_sa and flit.is_tail and len(q) > 1:
                    nxt = q[1]
                    if nxt.is_head:
                        behind = nxt
                front_chainable = o_front in chainable_outputs
                if not front_chainable and (
                    behind is None
                    or behind.out_port not in chainable_outputs
                ):
                    continue

                if front_chainable:
                    targets = ((flit, o_front, False),)
                    if behind is not None:
                        targets = ((flit, o_front, False),
                                   (behind, behind.out_port, True))
                else:
                    targets = ((behind, behind.out_port, True),)
                for cand_flit, o, is_behind in targets:
                    requires = (("front_departs",),) if is_behind else ()
                    if input_connected and input_start_output != o:
                        # Chaining depends on the release of the
                        # input's old connection: speculative class.
                        requires = (("own_release",),) + requires
                    if not is_behind and front_bids_sa:
                        # The front flit bids SA for this output; its
                        # only PC use is chaining onto a connection
                        # formed by a *different* tail this cycle.
                        if o not in forming_tails:
                            continue
                    holder = releasing.get(o)
                    if holder is not None:
                        age = conn_age[o]
                    elif o in forming_tails:
                        requires = requires + (("sa_tail", o),)
                        age = 0  # the connection forms this cycle
                    else:
                        continue
                    if threshold_mode and not starv.chainable(
                        age, cand_flit.packet.size - cand_flit.index
                    ):
                        continue
                    # Output-VC availability (Section 2.2 (b)+(c)).
                    if active is not None and cand_flit is flit:
                        if credits[o_front][vcobj.active_out_vc] == 0:
                            continue
                    else:
                        # Inlined _free_out_vc existence check.
                        busy = out_vc_busy[o]
                        creds = credits[o]
                        for w in class_vcs[cand_flit.vc_class]:
                            if not busy[w] and creds[w] > 0:
                                break
                        else:
                            continue
                    if holder is not None:
                        if not (any_input or scheme_admits(
                            scheme, p, v, holder[0], holder[1]
                        )):
                            continue
                    else:
                        tails = forming_tails[o]
                        if cand_flit is flit:
                            admitted = any(
                                (any_input or scheme_admits(scheme, p, v,
                                                            hp, hv))
                                and (hp, hv) != (p, v)
                                for hp, hv in tails
                            )
                        elif any_input:
                            admitted = True
                        else:
                            admitted = any(
                                scheme_admits(scheme, p, v, hp, hv)
                                for hp, hv in tails
                            )
                        if not admitted:
                            continue
                    add(PCCandidate(
                        input_port=p,
                        vc=v,
                        output_port=o,
                        priority=cand_flit.packet.priority,
                        flit=cand_flit,
                        speculative=bool(requires),
                        requires=requires,
                    ))
        return builder

    # ------------------------------------------------------------------
    # phase 5: SA commit with inlined round-robin VC arbitration
    # ------------------------------------------------------------------

    def _commit_sa(self, cycle, sa_grants, sa_contrib, departed_vcs):
        sa_winner_vc = {}
        sa_tail_outputs = {}
        if not sa_grants:
            return sa_winner_vc, sa_tail_outputs
        tr = self.trace
        tr_active = tr.active
        in_vcs = self.in_vcs
        arbiters = self._sa_vc_arbiters
        num_vcs = self.config.num_vcs
        conn_in = self.conn_in
        conn_out = self.conn_out
        conn_age = self.conn_age
        credits = self.credits
        out_vc_busy = self.out_vc_busy
        class_vcs = self._class_vcs
        tx = self._tx
        if tx is None:
            tx = self._tx = (
                [
                    (c._queue, c.delay) if c is not None else None
                    for c in self.out_flit_channels
                ],
                [
                    (c._queue, c.delay) if c is not None else None
                    for c in self.credit_up_channels
                ],
            )
        fill = self._fill
        occ = self._occ_mask
        downstream_router = self.downstream_router
        cache = self._route_cache
        port_flits = self.port_flits
        router_id = self.router_id
        for p, o in sa_grants.items():
            entries = sa_contrib[(p, o)]
            if len(entries) == 1:
                v = entries[0][0]
            else:
                best = max(prio for _, prio in entries)
                vcs = [v for v, prio in entries if prio == best]
                if len(vcs) == 1:
                    v = vcs[0]
                else:
                    pointer = arbiters[p].pointer
                    v = min(vcs, key=lambda x: (x - pointer) % num_vcs)
            arbiters[p].pointer = (v + 1) % num_vcs
            vcobj = in_vcs[p][v]
            q = vcobj.queue
            flit = q[0]

            if vcobj.active_packet is None:
                # Inlined _free_out_vc: lowest free VC of the class.
                ocredits = credits[o]
                busy = out_vc_busy[o]
                for w in class_vcs[flit.vc_class]:
                    if not busy[w] and ocredits[w] > 0:
                        break
                else:
                    # Only reachable for speculative-VA head grants: the
                    # output VC pool changed since eligibility; the SA
                    # grant is wasted (the output idles this cycle).
                    self.wasted_speculations += 1
                    continue
                vcobj.start_packet(flit.packet, o, w)
                busy[w] = True
                if tr_active:
                    tr.emit(
                        "vc_alloc", cycle, router=router_id, port=o,
                        vc=w, pid=flit.packet.pid,
                    )
            else:
                w = vcobj.active_out_vc

            if tr_active:
                tr.emit(
                    "sa_grant", cycle, router=router_id, port=o,
                    pid=flit.packet.pid, in_port=p, vc=v, out_vc=w,
                )
            # Inlined _send_flit (pop, credit, route memo, channel sends).
            q.popleft()
            vcobj.wait_cycles = 0
            fill[0] -= 1
            if not q:
                occ[p] &= ~(1 << v)
            credits[o][w] -= 1
            flit.vc = w
            is_tail = flit.is_tail
            if is_tail:
                vcobj.active_packet = None
                vcobj.active_out_port = None
                vcobj.active_out_vc = None
                out_vc_busy[o][w] = False
            if flit.is_head:
                downstream = downstream_router[o]
                if downstream is not None:
                    if cache is not None:
                        key = (downstream, flit.packet.dest)
                        hop = cache.get(key)
                        if hop is None:
                            hop = cache[key] = self.routing.next_hop(
                                downstream, flit.packet
                            )
                        flit.out_port, flit.vc_class = hop
                    else:
                        flit.out_port, flit.vc_class = self.routing.next_hop(
                            downstream, flit.packet
                        )
            oq, odelay = tx[0][o]
            oq.append((cycle + odelay, flit))
            port_flits[o] += 1
            up = tx[1][p]
            if up is not None:
                uq, udelay = up
                uq.append((cycle + udelay, v))
            if tr_active:
                tr.emit(
                    "flit_routed", cycle, router=router_id, port=o,
                    pid=flit.packet.pid, idx=flit.index, in_port=p, in_vc=v,
                    out_vc=w,
                )
                if is_tail:
                    tr.emit(
                        "vc_free", cycle, router=router_id, port=o, vc=w,
                        pid=flit.packet.pid,
                    )
            departed_vcs.add(p * num_vcs + v)
            sa_winner_vc[p] = v
            if is_tail:
                # Connection forms and releases in the same cycle; a
                # chained packet may take it over (validated in PC commit).
                sa_tail_outputs[o] = (p, v)
            else:
                conn_in[p] = o
                conn_out[o] = (p, v)
                conn_age[o] = 0
                if tr_active:
                    tr.emit(
                        "conn_held", cycle, router=router_id, port=o,
                        in_port=p, vc=v, pid=flit.packet.pid,
                    )
        return sa_winner_vc, sa_tail_outputs

    # ------------------------------------------------------------------
    # phase 6: PC commit with inlined validation / chain establishment
    # ------------------------------------------------------------------

    def _commit_pc(
        self, cycle, pc_grants, builder, sa_grants, sa_winner_vc,
        sa_tail_outputs, releasing, conn_out_start,
    ):
        # Reference _commit_pc with candidates_for, _pc_candidate_valid
        # and _establish_chain inlined (same candidate order: stable
        # sort on (speculative, -priority), filter in insertion order).
        candidates = builder.candidates
        in_vcs = self.in_vcs
        credits = self.credits
        out_vc_busy = self.out_vc_busy
        class_vcs = self._class_vcs
        conn_in = self.conn_in
        conn_out = self.conn_out
        conn_age = self.conn_age
        chain_stats = self.chain_stats
        scheme = self.scheme
        tr = self.trace
        tr_active = tr.active
        router_id = self.router_id
        for p, o in pc_grants.items():
            matches = [
                c for c in candidates
                if c.input_port == p and c.output_port == o
            ]
            if len(matches) > 1:
                matches.sort(key=_pc_candidate_order)
            chosen = None
            w = None
            for cand in matches:
                v = cand.vc
                vcobj = in_vcs[p][v]
                q = vcobj.queue
                if not q or q[0] is not cand.flit:
                    continue  # buffer moved unexpectedly
                # Conflict detection: SA granted the same input; only
                # the candidate directly behind the departing tail that
                # won SA in the same VC is compatible.
                if p in sa_grants and not (
                    sa_winner_vc.get(p) == v
                    and any(
                        pv == (p, v) for pv in sa_tail_outputs.values()
                    )
                ):
                    continue
                ok = True
                for req in cand.requires:
                    kind = req[0]
                    if kind == "own_release":
                        continue  # release happened during streaming
                    if kind == "front_departs":
                        if sa_winner_vc.get(p) != v:
                            ok = False
                            break
                        continue
                    if kind == "sa_tail":
                        winner = sa_tail_outputs.get(req[1])
                        if winner is None or not scheme_admits(
                            scheme, p, v, winner[0], winner[1]
                        ):
                            ok = False
                            break
                        continue
                    raise AssertionError(f"unknown PC requirement {req!r}")
                if not ok:
                    continue
                # Re-check an output VC is available *now* (tails freed
                # VCs and SA winners claimed VCs during this cycle).
                if vcobj.active_packet is not None:
                    if credits[vcobj.active_out_port][
                        vcobj.active_out_vc
                    ] == 0:
                        continue
                    w = None  # keeps its already-assigned VC
                else:
                    busy = out_vc_busy[o]
                    creds = credits[o]
                    for w in class_vcs[cand.flit.vc_class]:
                        if not busy[w] and creds[w] > 0:
                            break
                    else:
                        continue
                chosen = cand
                break
            if chosen is None:
                if p in sa_grants:
                    chain_stats.conflicts += 1
                else:
                    chain_stats.speculation_failures += 1
                continue
            # Inlined _establish_chain.
            v = chosen.vc
            vcobj = in_vcs[p][v]
            if vcobj.active_packet is None:
                vcobj.start_packet(chosen.flit.packet, o, w)
                out_vc_busy[o][w] = True
                if tr_active:
                    tr.emit(
                        "vc_alloc", cycle, router=router_id, port=o,
                        vc=w, pid=chosen.flit.packet.pid,
                    )
            conn_in[p] = o
            conn_out[o] = (p, v)
            holder = releasing.get(o)
            if holder is None:
                # Chained onto a connection formed (and released) by an
                # SA tail grant this cycle: a fresh connection.
                holder = sa_tail_outputs[o]
                conn_age[o] = 0
            # else: the connection persists across the chain; its age
            # keeps accumulating so starvation control still triggers.
            same_input = holder[0] == p
            same_vc = holder == (p, v)
            chain_stats.record_chain(same_input=same_input, same_vc=same_vc)
            if tr_active:
                tr.emit(
                    "pc_chain", cycle, router=router_id, port=o,
                    pid=chosen.flit.packet.pid, in_port=p, vc=v,
                    same_input=same_input, same_vc=same_vc,
                    speculative=chosen.speculative,
                )

    # ------------------------------------------------------------------
    # phase 7: end of cycle over held outputs / occupied VCs only
    # ------------------------------------------------------------------

    def _end_of_cycle(self, departed_vcs):
        # departed_vcs holds p * num_vcs + v ints (fast encoding).
        num_vcs = self._num_vcs
        conn_out = self.conn_out
        conn_age = self.conn_age
        for o in range(self.radix):
            if conn_out[o] is not None:
                conn_age[o] += 1
        occ = self._occ_mask
        in_vcs = self.in_vcs
        for p in range(self.radix):
            mask = occ[p]
            if not mask:
                continue
            vcs = in_vcs[p]
            base = p * num_vcs
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if base + v in departed_vcs:
                    continue
                vcobj = vcs[v]
                flit = vcobj.queue[0]
                if flit.is_head or vcobj.active_packet is not None:
                    vcobj.wait_cycles += 1
                    flit.packet.blocked_cycles += 1

    # ------------------------------------------------------------------

    def _purge_killed(self, cycle, p, v, vcobj, fv):
        super()._purge_killed(cycle, p, v, vcobj, fv)
        if not vcobj.queue:
            self._occ_mask[p] &= ~(1 << v)

    def total_buffered_flits(self):
        # The shared fill cell is exact in this backend (every queue
        # mutator, fault purges included, maintains it).
        return self._fill[0]
