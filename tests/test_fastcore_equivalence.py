"""Core equivalence: the production router against the test oracle.

The production core (``"fast"`` in the test names, the packed-occupancy
core it grew from) must be indistinguishable from the per-object
reference core kept in ``tests/reference_core.py`` (``"reference"``) on
everything a run can export: bit-identical SimResult JSON, bit-identical
metrics export, an identical trace-event stream, and checkpoints and
snapshots that round-trip between the two in both directions. The
oracle shares construction and wiring with production; what it cannot
see, ``test_core_goldens.py`` pins.
"""

import dataclasses
import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checkpoint import SimulationKilled, load_checkpoint
from repro.faults import (
    FaultController,
    FaultPlan,
    FlitErrors,
    InvariantChecker,
    LinkFault,
    ReliableTransport,
    RouterFault,
)
from repro.network import flit as flitmod
from repro.network.config import NetworkConfig, mesh_config
from repro.network.network import Network, build_network
from repro.network.router import (
    _FRONT_DEPARTS,
    _OWN_RELEASE,
    _SA_TAIL,
    Router,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import MemorySink, TraceBus
from repro.sim.runner import run_simulation
from repro.topology import build_topology
from repro.traffic import BimodalLength, FixedLength
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import build_pattern

from tests.reference_core import (
    ReferenceRouter,
    ReferenceSink,
    ReferenceSource,
    on_core,
    reference_core,
)


RUN = dict(pattern="uniform", rate=0.3, warmup=100, measure=300, drain=200)

SEEDS = [1, 2, 3]

#: allocator x chaining grid from the issue: both allocators, chaining
#: on and off (the chained configs exercise the PC pipeline end to end).
CONFIGS = {
    "islip1": dict(allocator="islip1", chaining="disabled"),
    "islip1+chain": dict(allocator="islip1", chaining="any_input"),
    "wavefront": dict(allocator="wavefront", chaining="disabled"),
    "wavefront+chain": dict(allocator="wavefront", chaining="any_input"),
}


def _traced_run(config, **kw):
    """(result JSON, metrics JSON, trace events) for one run."""
    flitmod.set_next_packet_id(0)
    bus = TraceBus()
    sink = bus.attach(MemorySink())
    registry = MetricsRegistry()
    result = run_simulation(config, trace=bus, metrics=registry, **kw)
    return (
        json.dumps(result.to_dict(), sort_keys=True),
        json.dumps(registry.to_dict(), sort_keys=True),
        sink.events,
    )


def _both_backends(config, **kw):
    with reference_core():
        ref = _traced_run(config, **kw)
    return ref, _traced_run(config, **kw)


def test_reference_core_builds_the_oracle():
    """The swap is real, and undone on exit: otherwise every comparison
    below would compare the production core with itself."""
    config = mesh_config(mesh_k=4)
    with reference_core():
        net = build_network(config)
    assert all(type(r) is ReferenceRouter for r in net.routers)
    assert all(type(s) is ReferenceSource for s in net.sources)
    assert all(type(s) is ReferenceSink for s in net.sinks)
    net = build_network(config)
    assert all(type(r) is Router for r in net.routers)


@pytest.mark.parametrize("label", list(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_fast_backend_is_bit_identical(label, seed):
    config = mesh_config(mesh_k=4, seed=seed, **CONFIGS[label])
    ref, fast = _both_backends(config, **RUN)
    assert fast[0] == ref[0]  # SimResult JSON
    assert fast[1] == ref[1]  # metrics export
    assert fast[2] == ref[2]  # full trace-event stream
    assert fast[2]  # the comparison is not vacuous


def test_fast_backend_matches_on_larger_mesh():
    """mesh_k=8 shakes out radix/topology assumptions the 4x4 hides."""
    config = mesh_config(mesh_k=8, seed=2, chaining="any_input")
    ref, fast = _both_backends(config, **RUN)
    assert fast == ref


def test_fast_backend_matches_with_starvation_threshold():
    """THRESHOLD starvation control takes the non-default chain gates."""
    config = mesh_config(
        mesh_k=4, seed=1, chaining="any_input", starvation_threshold=8
    )
    ref, fast = _both_backends(config, **RUN)
    assert fast == ref


@pytest.mark.parametrize("first,second", [
    ("reference", "fast"),
    ("fast", "reference"),
])
def test_checkpoint_round_trips_across_backends(tmp_path, first, second):
    """A checkpoint taken on one core restores on the other and
    converges on the uninterrupted run's answer."""
    config = mesh_config(mesh_k=4, seed=5, chaining="any_input")
    ref, _ = _both_backends(config, **RUN)

    ck = str(tmp_path / "ck.json")
    flitmod.set_next_packet_id(0)
    with on_core(first), pytest.raises(SimulationKilled):
        run_simulation(
            config, checkpoint_path=ck, checkpoint_every=100, kill_at=250,
            **RUN,
        )
    payload = load_checkpoint(ck)

    flitmod.set_next_packet_id(0)
    bus = TraceBus()
    sink = bus.attach(MemorySink())
    registry = MetricsRegistry()
    with on_core(second):
        result = run_simulation(
            config, trace=bus, metrics=registry, resume_from=payload, **RUN,
        )
    assert json.dumps(result.to_dict(), sort_keys=True) == ref[0]
    assert json.dumps(registry.to_dict(), sort_keys=True) == ref[1]
    ck_cycle = payload["cycle"]
    assert sink.events == [e for e in ref[2] if e["cycle"] >= ck_cycle]
    assert sink.events


def test_state_snapshot_round_trips_between_network_classes():
    """network.snapshot() from one core restores into the other."""
    from repro.checkpoint import RestoreContext, SnapshotContext

    config = mesh_config(mesh_k=4, seed=3, chaining="any_input")
    _traced_run(config, **RUN)
    # A fresh pair of networks: snapshot an idle oracle network into a
    # production one and back; layouts must be interchangeable.
    with reference_core():
        ref_net = build_network(config)
    fast_net = build_network(config)
    ctx = SnapshotContext()
    state = ref_net.snapshot(ctx)
    fast_net.restore(state, RestoreContext(ctx.packets))
    ctx2 = SnapshotContext()
    state2 = fast_net.snapshot(ctx2)
    ref_net.restore(state2, RestoreContext(ctx2.packets))
    assert json.dumps(state, sort_keys=True) == \
        json.dumps(state2, sort_keys=True)


# ---------------------------------------------------------------------------
# generated differential: whole-network draws, faults and transport on


#: (topology fields, routing) pairs NetworkConfig + build_routing accept.
#: The c=8 FBFly (radix 10, 32 terminals) is the cheapest topology with
#: ports >= 8, where a set of port numbers stops iterating in port order.
TOPOLOGIES = [
    (dict(topology="mesh", mesh_k=4), "dor"),
    (dict(topology="torus", mesh_k=4), "dor"),
    (dict(topology="fbfly", fbfly_rows=2, fbfly_cols=2,
          fbfly_concentration=2), "ugal"),
    (dict(topology="fbfly", fbfly_rows=2, fbfly_cols=2,
          fbfly_concentration=8), "ugal"),
]

ALLOCATORS = ["islip1", "islip2", "wavefront", "pim1", "augmenting"]

#: The multi-flit draws are the point: the 1-flit ledger golden passed a
#: prototype that lost every packet killed mid-injection.
LENGTHS = [FixedLength(1), BimodalLength(1, 5), FixedLength(4)]

WARMUP, MEASURE = 40, 160


@st.composite
def fault_plans(draw, config):
    """A validated FaultPlan for ``config``'s topology (may be empty)."""
    topo = build_topology(config)
    wired = [
        (r, p) for r in range(topo.num_routers) for p in range(topo.radix(r))
        if topo.link(r, p) is not None
    ]
    cycles = st.integers(5, WARMUP + MEASURE - 20)
    links = [
        LinkFault(
            *draw(st.sampled_from(wired)), draw(cycles),
            duration=draw(st.sampled_from([None, 15, 60])),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    routers = [
        RouterFault(draw(st.integers(0, topo.num_routers - 1)), draw(cycles))
    ] if draw(st.booleans()) else []
    rates = st.sampled_from([0.0, 0.002, 0.01])
    plan = FaultPlan(
        seed=draw(st.integers(0, 99)), links=links, routers=routers,
        flit_errors=FlitErrors(drop=draw(rates), corrupt=draw(rates)),
    )
    return plan.validate(topo)


@st.composite
def faulted_scenarios(draw):
    """(config, run kwargs, fault plan) over everything the cores share.

    One-VC / depth-1 routers (the dynamic-VC-allocation paper's regime)
    are adversarial draws here, not features: they wedge and starve in
    ways the 4-VC depth-8 default never does.
    """
    topo_fields, routing = draw(st.sampled_from(TOPOLOGIES))
    classes = NetworkConfig(routing=routing, **topo_fields).num_classes
    config = NetworkConfig(
        routing=routing,
        num_vcs=draw(st.sampled_from(
            [n for n in (1, 2, 4) if n % classes == 0]
        )),
        vc_buf_depth=draw(st.sampled_from([1, 2, 8])),
        allocator=draw(st.sampled_from(ALLOCATORS)),
        pc_allocator=draw(st.sampled_from(ALLOCATORS)),
        chaining=draw(st.sampled_from(
            ["disabled", "same_vc", "same_input", "any_input"]
        )),
        starvation_threshold=draw(st.sampled_from([None, 4, 16])),
        seed=draw(st.integers(1, 50)),
        **topo_fields,
    )
    run = dict(
        pattern="uniform", rate=draw(st.sampled_from([0.05, 0.2, 0.45])),
        lengths=draw(st.sampled_from(LENGTHS)), warmup=WARMUP,
        measure=MEASURE, drain=draw(st.sampled_from([0, 600])),
    )
    return config, run, draw(fault_plans(config))


#: Tier-1 runs a small derandomised slice; ``--hypothesis-profile soak``
#: (tests/conftest.py) runs hundreds of fresh examples.
_SOAK = settings.get_profile("soak")

#: Pinned so tier-1 always holds the two cases the small slice can miss
#: (its draws move with the hypothesis version): DOR detouring around a
#: dead mesh link, and multi-flit packets killed mid-injection.
_MESH_DETOUR = (
    NetworkConfig(topology="mesh", mesh_k=4, chaining="any_input", seed=2),
    dict(pattern="uniform", rate=0.45, lengths=BimodalLength(1, 5),
         warmup=WARMUP, measure=MEASURE, drain=600),
    FaultPlan(
        seed=4,
        links=[LinkFault(5, 0, 20), LinkFault(10, 2, 60, duration=60)],
        routers=[RouterFault(3, 120)],
        flit_errors=FlitErrors(drop=0.01, corrupt=0.01),
    ),
)


@(_SOAK if settings.default is _SOAK
  else settings(max_examples=40, derandomize=True))
@given(faulted_scenarios())
@example(_MESH_DETOUR)
def test_generated_faulted_runs_are_bit_identical(scenario):
    config, run, plan = scenario
    outcomes = {}
    for core in ("reference", "fast"):
        # Plan, transport and checker are stateful: fresh per run.
        with on_core(core):
            outcomes[core] = _traced_run(
                config,
                faults=FaultPlan.from_dict(plan.to_dict()),
                transport=ReliableTransport(timeout=128),
                invariants=InvariantChecker(period=16),
                **run,
            )
    ref, fast = outcomes["reference"], outcomes["fast"]
    assert fast[0] == ref[0]  # SimResult JSON
    assert fast[1] == ref[1]  # metrics export
    assert fast[2] == ref[2]  # full trace-event stream


#: The oracle's requirement tags as the production router's flags.
_REQUIREMENT_FLAGS = {
    "own_release": _OWN_RELEASE,
    "front_departs": _FRONT_DEPARTS,
    "sa_tail": _SA_TAIL,
}


def _oracle_table(candidates):
    """The oracle's candidates in the production format: ``(vc, flit,
    priority, flags)`` tuples grouped by (input, output), in order."""
    table = {}
    for c in candidates:
        flags = 0
        for req in c.requires:
            if req[0] == "sa_tail":
                # Production's flag has no payload: the tail it waits
                # for always forms the candidate's own output.
                assert req[1:] == (c.output_port,)
            flags |= _REQUIREMENT_FLAGS[req[0]]
        assert c.speculative == (flags != 0)
        table.setdefault((c.input_port, c.output_port), []).append(
            (c.vc, c.flit, c.priority, flags))
    return table


class _CheckedCollectorRouter(Router):
    """The production router, its PC candidate table checked on every
    router-cycle against the oracle's collector on the same arguments.

    A candidate difference the PC allocator happens to mask (a grant
    the commit then refuses, a tie broken the same way) still fails.
    """

    _collect_pc_candidates = ReferenceRouter._collect_pc_candidates
    _candidates_from_vc = ReferenceRouter._candidates_from_vc
    _pc_output_vc_ok = ReferenceRouter._pc_output_vc_ok
    _pc_request_matrix = ReferenceRouter._pc_request_matrix

    #: Router-cycles checked with at least one candidate.
    checked = 0

    def _collect_pc(self, fronts, conn_in_start, releasing, forming_tails,
                    released_inputs, inhibited, sa_requests):
        table, matrix = super()._collect_pc(
            fronts, conn_in_start, releasing, forming_tails,
            released_inputs, inhibited, sa_requests,
        )
        builder = self._collect_pc_candidates(
            conn_in_start, releasing, forming_tails, released_inputs,
            inhibited, sa_requests,
        )
        # Insertion order too, of the pairs and within each bucket:
        # priority ties and PIM's grants depend on it.
        assert list(table.items()) == \
            list(_oracle_table(builder.candidates).items())
        assert list(matrix.items()) == \
            list(self._pc_request_matrix(builder).items())
        if table:
            type(self).checked += 1
        return table, matrix


#: Pinned: a loaded radix-10 router, where holder inputs >= 8 occur and
#: the visiting order of the inputs is observable.
_FBFLY_RADIX10 = (
    NetworkConfig(topology="fbfly", routing="ugal", fbfly_rows=2,
                  fbfly_cols=2, fbfly_concentration=8, seed=1),
    dict(pattern="uniform", rate=0.3, warmup=WARMUP, measure=MEASURE,
         drain=0),
    FaultPlan(),
)


@pytest.mark.parametrize("scheme", ["same_vc", "same_input", "any_input"])
@(settings(_SOAK, max_examples=100) if settings.default is _SOAK
  else settings(max_examples=15, derandomize=True))
@given(scenario=faulted_scenarios(), pc_priorities=st.booleans())
@example(scenario=_FBFLY_RADIX10, pc_priorities=True)
def test_generated_pc_collector_matches_the_oracle(scheme, scenario,
                                                   pc_priorities):
    config, run, plan = scenario
    config = dataclasses.replace(config, chaining=scheme,
                                 pc_priorities=pc_priorities)
    _CheckedCollectorRouter.checked = 0
    registry = MetricsRegistry()
    with mock.patch.object(Network, "ROUTER_CLS", _CheckedCollectorRouter):
        run_simulation(config, faults=plan, metrics=registry, **run)
    chains = registry.to_dict()["counters"]["chains_total"]
    # Every chain was a candidate first: the checked collector ran.
    assert chains == 0 or _CheckedCollectorRouter.checked > 0


@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_router_fault_keeps_the_fill_counter_exact(backend):
    """After a router fault, buffered-flit counts equal the queue lengths.

    total_buffered_flits() / in_flight_flits() are answered from the
    routers' shared fill cells; a router fault that clears the queues
    without them breaks flit conservation at the fault cycle.
    """
    config = mesh_config(mesh_k=4, seed=3)
    with on_core(backend):
        net = build_network(config)
        controller = net.attach_faults(
            FaultController(FaultPlan(routers=[RouterFault(router=5,
                                                           cycle=60)]))
        )
        checker = net.attach_invariants(InvariantChecker(period=1))  # strict
        rng = random.Random(7)
        injector = BernoulliInjector(
            net.num_terminals, build_pattern("uniform", net.num_terminals, rng),
            0.45, FixedLength(4), rng,
        )
        for _ in range(80):
            if net.cycle == 60:
                assert net.routers[5].total_buffered_flits() > 0
            for packet in injector.generate(net.cycle):
                net.inject(packet)
            net.step()
    assert controller.failed_routers == 1
    assert checker.checks_run == 80
    for router in net.routers:
        assert router.total_buffered_flits() == sum(
            len(vc.queue) for vcs in router.in_vcs for vc in vcs
        )
    assert net.routers[5].total_buffered_flits() == 0
