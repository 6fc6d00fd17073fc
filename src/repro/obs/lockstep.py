"""Lockstep differential co-simulation and divergence bisection.

Two deterministic runs — of two configs, of one config with a test-time
change on one side, or a live run vs. a recorded digest stream — are
stepped cycle by cycle and compared through the hierarchical digests of
:mod:`repro.obs.digest`. The first mismatching
cycle is then drilled network → router/component → field, producing a
machine-readable divergence report:

- ``cycle`` — first cycle whose digests disagree (exact, not a window);
- ``components`` — the leaf component paths whose digests differ;
- ``diffs`` — per component, the differing ``state_dict()`` keys with
  both sides' values;
- ``trace_a``/``trace_b`` — the last K trace events of each side.

Search is coarse-to-fine: a first pass compares roots every ``every``
cycles; on mismatch, both sides are rebuilt (the simulator is
deterministic), fast-forwarded digest-free to the last matching cycle,
and re-stepped comparing every cycle — so long runs pay the digest
cost only on the stride, yet the reported cycle is exact.

Both networks share one process, and packet ids come from a module
global — so each side steps under its own packet-id window
(:class:`LockstepSide` saves/restores the counter around every cycle),
keeping each side's pid stream identical to a standalone run's.
"""

import random

from repro.network.flit import peek_next_packet_id, set_next_packet_id
from repro.network.network import build_network
from repro.obs.digest import (
    DIGEST_SCHEMA,
    digest_network,
    network_states,
    state_diff,
)
from repro.obs.trace import RingSink, TraceBus
from repro.sim.runner import SimulationRun
from repro.traffic.injection import BernoulliInjector, FixedLength
from repro.traffic.patterns import build_pattern

#: Schema of the divergence report emitted by ``repro diverge``.
REPORT_SCHEMA = 1

#: Cap on reported field diffs per component (reports stay bounded).
MAX_DIFFS_PER_COMPONENT = 32


class LockstepSide:
    """One half of a differential run: network + injector + pid window.

    Construction mirrors ``run_simulation`` (same traffic RNG seeding,
    same injector wiring) so a side's state at cycle c is bit-identical
    to a standalone run of the same config/spec at cycle c. A
    :class:`~repro.obs.trace.RingSink` keeps the last ``trace_events``
    events for divergence reports.
    """

    def __init__(self, label, config, pattern="uniform", rate=0.2,
                 packet_length=1, lengths=None, warmup=500, measure=1500,
                 drain=1000, trace_events=64):
        self.label = label
        self.config = config
        bus = TraceBus()
        self.ring = bus.attach(RingSink(capacity=trace_events))
        net = build_network(config, trace=bus)
        traffic_rng = random.Random(config.seed + 0x5EED)
        pat = build_pattern(pattern, net.num_terminals, traffic_rng)
        dist = lengths if lengths is not None else FixedLength(packet_length)
        injector = BernoulliInjector(
            net.num_terminals, pat, rate, dist, traffic_rng
        )
        self.run = SimulationRun(net, injector, warmup, measure, drain)
        self.run.prepare()
        #: This side's private packet-id counter (fresh-process stream).
        self.next_pid = 0
        self.done = False

    @property
    def network(self):
        return self.run.network

    @property
    def injector(self):
        return self.run.injector

    def step(self):
        """Advance one cycle under this side's packet-id window."""
        if self.done:
            return False
        set_next_packet_id(self.next_pid)
        alive = self.run.step_cycle()
        self.next_pid = peek_next_packet_id()
        if not alive:
            self.done = True
        return alive

    def digest(self):
        return digest_network(self.network, self.injector)

    def states(self):
        return network_states(self.network, self.injector)

    def trace_tail(self):
        return list(self.ring.events)


def side_factory(label, config, **run_spec):
    """A zero-arg builder of fresh :class:`LockstepSide` instances.

    :func:`find_divergence` rebuilds sides for the refinement pass, so
    callers hand it factories rather than live sides.
    """
    return lambda: LockstepSide(label, config, **run_spec)


class Divergence:
    """Raw lockstep outcome: the window bracketing the first mismatch.

    ``cycle`` is the first compared cycle whose digests differ;
    ``last_match`` the last compared cycle whose digests agreed (None
    if even the initial states differ). At stride 1 the window is
    exact; :func:`find_divergence` refines coarse windows to stride 1.
    """

    def __init__(self, cycle, last_match):
        self.cycle = cycle
        self.last_match = last_match


def run_lockstep(a, b, every=1):
    """Step two sides together; returns a :class:`Divergence` or None.

    Digest roots are compared before the first step (construction-time
    divergence, e.g. two different configs), every ``every`` cycles,
    and at the final cycle of the run. A side finishing while the other
    still runs is itself a divergence (the phase schedule is part of
    simulated behavior).
    """
    if a.digest()["root"] != b.digest()["root"]:
        return Divergence(a.network.cycle, None)
    last_match = a.network.cycle
    while True:
        alive_a = a.step()
        alive_b = b.step()
        cycle = max(a.network.cycle, b.network.cycle)
        if alive_a != alive_b:
            return Divergence(cycle, last_match)
        if not alive_a:
            if a.digest()["root"] != b.digest()["root"]:
                return Divergence(cycle, last_match)
            return None
        if cycle % every == 0:
            if a.digest()["root"] != b.digest()["root"]:
                return Divergence(cycle, last_match)
            last_match = cycle


def _fast_forward(side, cycle):
    """Step a fresh side (digest-free) up to a known-matching cycle."""
    while side.network.cycle < cycle and side.step():
        pass


def find_divergence(make_a, make_b, every=64, trace_events=64,
                    max_diffs=MAX_DIFFS_PER_COMPONENT):
    """Coarse-to-fine divergence search between two deterministic runs.

    ``make_a``/``make_b`` build fresh :class:`LockstepSide` instances
    (see :func:`side_factory`). Returns None when the runs are
    digest-identical end to end, else a report dict (see
    :func:`build_report`) pinpointing the exact first divergent cycle.
    """
    a, b = make_a(), make_b()
    window = run_lockstep(a, b, every=every)
    if window is None:
        return None
    if every > 1 and window.last_match is not None:
        # The simulator is deterministic: rebuild both sides, replay
        # digest-free to the last matching cycle, then compare every
        # cycle — the mismatch is inside (last_match, window.cycle].
        a, b = make_a(), make_b()
        _fast_forward(a, window.last_match)
        _fast_forward(b, window.last_match)
        refined = run_lockstep(a, b, every=1)
        if refined is not None:
            window = refined
    return build_report(a, b, window, max_diffs=max_diffs)


def build_report(a, b, window, max_diffs=MAX_DIFFS_PER_COMPONENT):
    """Drill a divergence down to components and fields; returns a dict."""
    da, db = a.digest(), b.digest()
    paths = sorted(
        path
        for path in set(da["components"]) | set(db["components"])
        if da["components"].get(path) != db["components"].get(path)
    )
    states_a, states_b = a.states(), b.states()
    diffs = {}
    for path in paths:
        diffs[path] = state_diff(
            states_a.get(path, {}).get("state"),
            states_b.get(path, {}).get("state"),
            limit=max_diffs,
        )
        packets = state_diff(
            states_a.get(path, {}).get("packets"),
            states_b.get(path, {}).get("packets"),
            limit=max_diffs - len(diffs[path]),
        )
        for entry in packets:
            entry["key"] = f"packets.{entry['key']}"
        diffs[path].extend(packets)
    report = {
        "schema": REPORT_SCHEMA,
        "digest_schema": DIGEST_SCHEMA,
        "verdict": "diverged",
        "cycle": window.cycle,
        "last_match_cycle": window.last_match,
        "side_a": _side_info(a),
        "side_b": _side_info(b),
        "root_a": da["root"],
        "root_b": db["root"],
        "components": paths,
        "diffs": diffs,
        "trace_a": a.trace_tail(),
        "trace_b": b.trace_tail(),
    }
    return report


def _side_info(side):
    return {
        "label": side.label,
        "config": side.config.to_dict(),
        "cycle": side.network.cycle,
    }


# ---------------------------------------------------------------------------
# live run vs. recorded digest stream


def run_vs_stream(side, stream, max_cycles=None):
    """Step a live side against a recorded digest stream.

    Compares the live network's digests at every cycle the stream
    recorded. Returns None when every recorded cycle matches, else a
    report dict; field-level diffs are unavailable against a stream
    (only hashes were recorded), so the report names the divergent
    cycle and component paths with both digests.
    """
    recorded = stream.records
    while True:
        alive = side.step()
        cycle = side.network.cycle
        record = recorded.get(cycle)
        if record is not None:
            # Match the recorded coverage: periodic records hashed
            # simulation state only; the final record included
            # observers.
            live = digest_network(side.network, side.injector,
                                  observers=record.get("final", False))
            if live["root"] != record["root"]:
                paths = sorted(
                    path
                    for path in set(live["components"]) | set(record["components"])
                    if live["components"].get(path)
                    != record["components"].get(path)
                )
                return {
                    "schema": REPORT_SCHEMA,
                    "digest_schema": DIGEST_SCHEMA,
                    "verdict": "diverged",
                    "mode": "vs-stream",
                    "cycle": cycle,
                    "side_a": _side_info(side),
                    "root_a": live["root"],
                    "root_b": record["root"],
                    "components": paths,
                    "digests": {
                        path: {
                            "a": live["components"].get(path),
                            "b": record["components"].get(path),
                        }
                        for path in paths
                    },
                    "trace_a": side.trace_tail(),
                }
        if not alive or (max_cycles is not None and cycle >= max_cycles):
            break
    uncovered = [c for c in stream.cycles() if c > side.network.cycle]
    if uncovered:
        # The recorded run simulated cycles the live run never reached:
        # the runs disagree on the phase schedule itself.
        return {
            "schema": REPORT_SCHEMA,
            "digest_schema": DIGEST_SCHEMA,
            "verdict": "diverged",
            "mode": "vs-stream",
            "cycle": side.network.cycle,
            "side_a": _side_info(side),
            "components": [],
            "uncovered_cycles": uncovered,
            "trace_a": side.trace_tail(),
        }
    return None
