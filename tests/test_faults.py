"""Fault injection, invariant checking, watchdog, and reliability tests.

The directional acceptance test at the bottom is the ISSUE's scenario:
an 8x8 mesh with chaining enabled recovers full delivery after
permanent and transient link faults plus background flit errors, with
strict invariants silent throughout (no credit leaks).
"""

import json
import random

import pytest

from repro.faults import (
    FaultController,
    FaultPlan,
    HangWatchdog,
    InvariantChecker,
    ReliableTransport,
)
from repro.faults.invariants import InvariantViolation
from repro.faults.plan import FlitErrors, LinkFault, RouterFault
from repro.faults.watchdog import WatchdogError
from repro.network.config import mesh_config
from repro.network.flit import Packet
from repro.network.network import Network
from repro.obs.trace import NULL_TRACE
from repro.sim.runner import SimulationRun, run_simulation
from repro.topology.mesh import (
    PORT_TERMINAL,
    PORT_XMINUS,
    PORT_XPLUS,
    PORT_YMINUS,
    PORT_YPLUS,
)
from repro.traffic.injection import BernoulliInjector, FixedLength
from repro.traffic.patterns import build_pattern


def run_traffic(net, rate=0.1, warmup=200, measure=600, drain=6000,
                length=4, seed=99):
    """Drive `net` with uniform random traffic; returns the SimResult."""
    rng = random.Random(seed)
    pat = build_pattern("uniform", net.num_terminals, rng)
    inj = BernoulliInjector(net.num_terminals, pat, rate,
                            FixedLength(length), rng)
    return SimulationRun(net, inj, warmup, measure, drain).execute()


def flit_balance(net):
    """(sent, consumed, dropped, in_flight) — conservation quadruple."""
    sent = sum(s.flits_sent for s in net.sources)
    consumed = sum(k.flits_consumed for k in net.sinks)
    dropped = net.faults.dropped_flits if net.faults is not None else 0
    in_flight = net.in_flight_flits() + sum(
        s.flit_channel.in_flight for s in net.sources
    )
    return sent, consumed, dropped, in_flight


class TestFaultPlan:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            links=[LinkFault(9, 0, 300), LinkFault(3, 2, 200, duration=300)],
            routers=[RouterFault(5, 800)],
            flit_errors=FlitErrors(drop=0.001, corrupt=0.0002),
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded.to_dict() == plan.to_dict()
        assert not loaded.empty
        assert loaded.links[0].permanent
        assert not loaded.links[1].permanent

    def test_validation_against_topology(self):
        topo = Network(mesh_config(mesh_k=4)).topology
        FaultPlan(links=[LinkFault(5, PORT_XPLUS, 0)]).validate(topo)
        # Terminal ports are legal fault targets.
        FaultPlan(links=[LinkFault(5, PORT_TERMINAL, 0)]).validate(topo)
        with pytest.raises(ValueError, match="unwired"):
            # Router 3 is (3, 0): no X+ neighbour on the east edge.
            FaultPlan(links=[LinkFault(3, PORT_XPLUS, 0)]).validate(topo)
        with pytest.raises(ValueError, match="topology has 16"):
            FaultPlan(routers=[RouterFault(99, 0)]).validate(topo)
        with pytest.raises(ValueError, match="topology has 16"):
            FaultPlan(links=[LinkFault(16, 0, 0)]).validate(topo)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            LinkFault(0, 0, cycle=-1)
        with pytest.raises(ValueError):
            LinkFault(0, 0, cycle=0, duration=0)
        with pytest.raises(ValueError):
            FlitErrors(drop=1.5)
        with pytest.raises(ValueError):
            FlitErrors(drop=0.7, corrupt=0.7)
        with pytest.raises(ValueError):
            FlitErrors(end=0, start=10)
        assert FaultPlan().empty

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"seed": 1, "typo": []})


class TestLinkFaults:
    def test_permanent_fault_conserves_everything(self):
        net = Network(mesh_config(mesh_k=4))
        controller = net.attach_faults(
            FaultController(FaultPlan(links=[LinkFault(5, PORT_XPLUS, 50)]))
        )
        checker = net.attach_invariants(InvariantChecker(period=16))
        result = run_traffic(net, rate=0.1)
        assert result.drained
        assert controller.failed_links == 1
        # Traffic that would have crossed the dead link went around it;
        # flits are only dropped if caught mid-link at failure time.
        assert controller.detours > 0
        sent, consumed, dropped, in_flight = flit_balance(net)
        assert in_flight == 0
        assert sent == consumed + dropped
        # One more full sweep on the drained network: nothing leaked.
        assert checker.check(net.cycle) == []

    def test_transient_fault_full_recovery(self):
        """ISSUE's directional test: chaining-enabled routers recover
        full delivery after a transient link fault, without leaking
        credits (strict invariants stay silent)."""
        net = Network(mesh_config(mesh_k=4, chaining="any_input"))
        controller = net.attach_faults(
            FaultController(FaultPlan(
                links=[LinkFault(5, PORT_XPLUS, 100, duration=200)]
            ))
        )
        transport = net.attach_transport(ReliableTransport(timeout=300))
        net.attach_invariants(InvariantChecker(period=16))
        result = run_traffic(net, rate=0.15)
        assert result.drained
        assert controller.repaired_links == 1
        assert not controller.dead_ports  # the link came back
        assert transport.delivered == transport.tracked
        assert transport.failed == []
        assert transport.duplicates == 0

    def test_drops_counted_and_retransmitted(self):
        net = Network(mesh_config(mesh_k=4))
        controller = net.attach_faults(FaultController(FaultPlan(
            seed=3, flit_errors=FlitErrors(drop=0.002)
        )))
        transport = net.attach_transport(ReliableTransport(timeout=300))
        result = run_traffic(net, rate=0.1)
        assert result.drained
        assert controller.dropped_flits > 0
        assert transport.retransmissions > 0
        assert transport.delivered == transport.tracked
        summary = result.faults
        assert summary["injection"]["dropped_flits"] == controller.dropped_flits
        assert summary["transport"]["failed"] == 0

    def test_corruption_discarded_at_sink(self):
        net = Network(mesh_config(mesh_k=4))
        controller = net.attach_faults(FaultController(FaultPlan(
            seed=5, flit_errors=FlitErrors(corrupt=0.005)
        )))
        transport = net.attach_transport(ReliableTransport(timeout=300))
        net.attach_invariants(InvariantChecker(period=16))
        result = run_traffic(net, rate=0.1)
        assert result.drained
        assert controller.corrupted_flits > 0
        # Corrupted packets consumed buffer space all the way to the
        # sink yet were never delivered; retransmission covered them.
        assert transport.delivered == transport.tracked
        assert transport.failed == []


class TestRouterFaults:
    def test_router_death_drains_and_fails_only_its_flows(self):
        net = Network(mesh_config(mesh_k=4))
        controller = net.attach_faults(FaultController(FaultPlan(
            routers=[RouterFault(5, 100)]
        )))
        transport = net.attach_transport(
            ReliableTransport(timeout=100, max_retries=2)
        )
        checker = net.attach_invariants(InvariantChecker(period=16))
        result = run_traffic(net, rate=0.1, drain=8000)
        assert result.drained
        assert controller.failed_routers == 1
        assert 5 in controller.dead_routers
        assert not net.sources[5].alive
        # Every abandoned flow touches the dead terminal; everything
        # else was delivered.
        assert all(5 in flow for flow, _ in transport.failed)
        sent, consumed, dropped, in_flight = flit_balance(net)
        assert in_flight == 0
        assert sent == consumed + dropped
        assert checker.check(net.cycle) == []

    def test_transient_repair_never_resurrects_dead_router_links(self):
        # A transient fault on a link whose router later dies must not
        # bring the link back when its repair event fires.
        net = Network(mesh_config(mesh_k=4))
        controller = net.attach_faults(FaultController(FaultPlan(
            links=[LinkFault(5, PORT_XPLUS, 50, duration=200)],
            routers=[RouterFault(5, 100)],
        )))
        run_traffic(net, rate=0.05, warmup=100, measure=400)
        assert (5, PORT_XPLUS) in controller.dead_ports


class TestInvariants:
    def test_silent_on_fault_free_run(self):
        net = Network(mesh_config(mesh_k=4, chaining="any_input"))
        checker = net.attach_invariants(InvariantChecker(period=16))
        result = run_traffic(net, rate=0.2)  # strict mode: raises on leak
        assert result.drained
        assert checker.checks_run > 10
        assert checker.summary()["violations"] == 0

    def test_strict_raises_on_seeded_credit_leak(self):
        net = Network(mesh_config(mesh_k=4))
        checker = net.attach_invariants(InvariantChecker(period=16))
        net.routers[0].credits[PORT_XPLUS][0] += 1
        with pytest.raises(InvariantViolation, match="credit"):
            checker.check(net.cycle)

    def test_report_mode_records_and_continues(self):
        net = Network(mesh_config(mesh_k=4))
        checker = net.attach_invariants(
            InvariantChecker(period=16, mode="report")
        )
        net.routers[0].credits[PORT_XPLUS][0] = -1
        found = checker.check(net.cycle)
        assert found  # out-of-range credit plus the broken loop sum
        assert checker.violations
        assert checker.summary()["violations"] == len(checker.violations)

    def test_detects_connection_table_corruption(self):
        net = Network(mesh_config(mesh_k=4))
        checker = net.attach_invariants(InvariantChecker())
        net.routers[0].conn_out[0] = (1, 0)  # conn_in side not set
        with pytest.raises(InvariantViolation, match="disagree"):
            checker.check(net.cycle)


def wedge_router(net, router_id):
    """Zero every output credit of one router so nothing can leave it."""
    router = net.routers[router_id]
    for p in range(router.radix):
        for v in range(len(router.credits[p])):
            router.credits[p][v] = 0


class TestWatchdog:
    def test_seeded_deadlock_detected_with_dump(self, tmp_path):
        dump = tmp_path / "hang.json"
        net = Network(mesh_config(mesh_k=4))
        net.attach_watchdog(
            HangWatchdog(window=200, check_period=50, dump_path=str(dump))
        )
        wedge_router(net, 0)
        net.inject(Packet(0, 15, 4, net.cycle))
        with pytest.raises(WatchdogError) as exc:
            for _ in range(2000):
                net.step()
        bundle = exc.value.bundle
        assert bundle["kind"] == "deadlock"
        assert bundle["in_flight"] > 0
        assert bundle["stalled_fronts"]  # the wedged packet shows up
        assert dump.exists()
        on_disk = json.loads(dump.read_text())
        assert on_disk["kind"] == "deadlock"
        assert on_disk["stalled_fronts"][0]["router"] == 0

    def test_report_mode_records_and_disarms(self):
        net = Network(mesh_config(mesh_k=4))
        watchdog = net.attach_watchdog(
            HangWatchdog(window=200, check_period=50, mode="report")
        )
        wedge_router(net, 0)
        net.inject(Packet(0, 15, 4, net.cycle))
        for _ in range(2000):
            net.step()
        assert len(watchdog.hangs) == 1  # disarmed after the first report
        assert watchdog.summary()["hangs"] == 1

    def test_quiet_on_healthy_run(self):
        net = Network(mesh_config(mesh_k=4))
        watchdog = net.attach_watchdog(HangWatchdog(window=100))
        result = run_traffic(net, rate=0.1)
        assert result.drained
        assert watchdog.hangs == []


class _FakeStats:
    def __init__(self):
        self.listeners = []

    def add_listener(self, listener):
        self.listeners.append(listener)


class _FakeNet:
    """Just enough network for ReliableTransport unit tests."""

    def __init__(self):
        self.stats = _FakeStats()
        self.trace = NULL_TRACE
        self.transport = None
        self.cycle = 0
        self.injected = []

    def inject(self, packet):
        self.injected.append(packet)
        self.transport.on_inject(packet, self.cycle)


def _transport(**kwargs):
    net = _FakeNet()
    net.transport = ReliableTransport(**kwargs).bind(net)
    return net, net.transport


class TestReliableTransport:
    def test_duplicate_deliveries_suppressed(self):
        net, tx = _transport()
        p = Packet(0, 1, 4, 0)
        net.inject(p)
        tx.on_packet_ejected(p, 10)
        tx.on_packet_ejected(p, 12)
        assert tx.delivered == 1
        assert tx.duplicates == 1

    def test_ack_clears_pending(self):
        net, tx = _transport(ack_delay=8)
        p = Packet(0, 1, 4, 0)
        net.inject(p)
        tx.on_packet_ejected(p, 10)
        tx.step(17)
        assert not tx.idle()  # ack still in flight
        tx.step(18)
        assert tx.idle()

    def test_backoff_then_give_up(self):
        net, tx = _transport(timeout=10, max_retries=2, backoff=2.0)
        p = Packet(0, 1, 4, 0)
        net.cycle = 0
        net.inject(p)
        net.cycle = 10
        tx.step(10)  # attempt 1, deadline 10 + 20
        assert tx.retransmissions == 1
        net.cycle = 30
        tx.step(30)  # attempt 2, deadline 30 + 40
        assert tx.retransmissions == 2
        tx.step(70)  # retry budget exhausted
        assert tx.retransmissions == 2
        assert tx.failed == [((0, 1), 0)]
        assert tx.idle()
        # Retransmissions carried the same flow/seq tag, fresh packets.
        assert [q.rtag.attempt for q in net.injected] == [0, 1, 2]
        assert len({q.pid for q in net.injected}) == 3

    def test_stale_deadline_ignored_after_retransmit(self):
        net, tx = _transport(timeout=10, max_retries=4)
        net.inject(Packet(0, 1, 4, 0))
        net.cycle = 10
        tx.step(10)
        clone = net.injected[-1]
        tx.on_packet_ejected(clone, 15)
        tx.step(100)  # the attempt-0 deadline must not refire
        assert tx.retransmissions == 1
        assert tx.delivered == 1

    def test_per_flow_sequence_numbers(self):
        net, tx = _transport()
        a1, a2 = Packet(0, 1, 1, 0), Packet(0, 1, 1, 0)
        b = Packet(0, 2, 1, 0)
        for p in (a1, a2, b):
            net.inject(p)
        assert (a1.rtag.seq, a2.rtag.seq, b.rtag.seq) == (0, 1, 0)
        assert tx.tracked == 3


class TestDORDetour:
    def make(self, dead, k=4):
        net = Network(mesh_config(mesh_k=k))
        taken = []
        net.routing.attach_faults(
            set(dead),
            on_detour=lambda r, pref, chosen, pkt: taken.append(
                (r, pref, chosen)
            ),
        )
        return net.routing, taken

    def packet(self, routing, src, dest):
        p = Packet(src, dest, 1, 0)
        routing.prepare(p)
        return p

    def test_dead_x_hop_sidesteps_statelessly(self):
        routing, taken = self.make({(0, PORT_XPLUS)})
        p = self.packet(routing, 0, 3)  # row 0, straight east
        port, _ = routing.next_hop(0, p)
        assert port == PORT_YPLUS  # only live Y on the edge row
        assert p.route_state is None  # stateless: DOR resumes next hop
        assert taken == [(0, PORT_XPLUS, PORT_YPLUS)]
        # From the adjacent row plain DOR heads east again.
        assert routing.next_hop(4, p) == (PORT_XPLUS, 0)

    def test_dead_y_hop_leaves_detour_token(self):
        routing, taken = self.make({(0, PORT_YPLUS)})
        p = self.packet(routing, 0, 8)  # straight north in column 0
        port, _ = routing.next_hop(0, p)
        assert port == PORT_XPLUS
        assert p.route_state == ("y_detour", PORT_YPLUS)
        # The next router honors the token: Y move before X resolution.
        assert routing.next_hop(1, p) == (PORT_YPLUS, 0)
        assert p.route_state is None

    def test_reverse_port_never_chosen(self):
        # Mid-path east-bound packet hits a dead X+ with both Y ports
        # available: it must side-step, never turn back west.
        routing, _ = self.make({(5, PORT_XPLUS)})
        p = self.packet(routing, 4, 7)  # row 1: router 5 is mid-path
        port, _ = routing.next_hop(5, p)
        assert port in (PORT_YPLUS, PORT_YMINUS)
        assert port != PORT_XMINUS

    def test_unroutable_returns_dead_preferred(self):
        # Corner router 0 with both forward options dead: the preferred
        # (dead) port comes back so the router pre-pass can kill.
        routing, taken = self.make({(0, PORT_XPLUS), (0, PORT_YPLUS)})
        p = self.packet(routing, 0, 3)
        assert routing.next_hop(0, p) == (PORT_XPLUS, 0)
        assert taken == []  # no detour happened, nothing to count

    def test_dead_ejection_port_is_unroutable(self):
        routing, _ = self.make({(3, PORT_TERMINAL)})
        p = self.packet(routing, 0, 3)
        assert routing.next_hop(3, p) == (PORT_TERMINAL, 0)


class TestRunnerIntegration:
    def test_seed_override_does_not_mutate_config(self):
        cfg = mesh_config(mesh_k=4, seed=1)
        run_simulation(cfg, rate=0.05, warmup=10, measure=20, drain=200,
                       seed=42)
        assert cfg.seed == 1

    def test_fault_summary_flows_into_result(self):
        cfg = mesh_config(mesh_k=4)
        plan = FaultPlan(links=[LinkFault(5, PORT_XPLUS, 50)])
        result = run_simulation(
            cfg, rate=0.05, warmup=100, measure=200, drain=4000,
            faults=plan,  # a bare plan is accepted and wrapped
            transport=ReliableTransport(timeout=200),
            invariants=InvariantChecker(period=32),
            watchdog=HangWatchdog(window=500),
        )
        assert result.drained
        parts = result.faults
        assert parts["injection"]["failed_links"] == 1
        assert parts["transport"]["failed"] == 0
        assert parts["invariants"]["violations"] == 0
        assert parts["watchdog"]["hangs"] == 0
        # SimResult stays JSON-serializable with the new field.
        json.dumps(result.to_dict())

    def test_no_faults_attached_keeps_result_faults_none(self):
        result = run_simulation(mesh_config(mesh_k=4), rate=0.05,
                                warmup=10, measure=20, drain=200)
        assert result.faults is None

    def test_network_accepts_faults_and_transport(self):
        net = Network(mesh_config(mesh_k=4))
        plan = FaultPlan(links=[LinkFault(router=5, port=1, cycle=3)])
        controller = net.attach_faults(FaultController(plan))
        transport = net.attach_transport(ReliableTransport())
        assert net.faults is controller and net.transport is transport
        assert all(r.faults is not None for r in net.routers)
        # Fault-aware DOR is not a pure function of (router, dest).
        assert all(r._route_cache is None for r in net.routers)
        assert all(s._route_cache is None for s in net.sources)
        net.run(5)
        assert controller.failed_links == 1


class TestAcceptanceScenario:
    def test_8x8_chaining_recovers_after_faults(self):
        """ISSUE acceptance: seeded plan with >= 2 permanent link
        faults plus transient flit drops on an 8x8 mesh with chaining;
        the run completes with flit conservation exactly balanced and
        every retransmittable packet delivered."""
        net = Network(mesh_config(mesh_k=8, chaining="any_input"))
        plan = FaultPlan(
            seed=7,
            links=[
                LinkFault(9, PORT_XPLUS, 300),
                LinkFault(27, PORT_YPLUS, 400),
                LinkFault(40, PORT_XPLUS, 200, duration=400),
            ],
            flit_errors=FlitErrors(drop=0.0005, corrupt=0.0002),
        )
        controller = net.attach_faults(FaultController(plan))
        transport = net.attach_transport(ReliableTransport(timeout=600))
        checker = net.attach_invariants(InvariantChecker(period=64))
        net.attach_watchdog(HangWatchdog(window=1500))
        result = run_traffic(net, rate=0.2, warmup=300, measure=900,
                             drain=8000, length=4, seed=11)
        assert result.drained
        assert controller.failed_links == 3
        assert controller.repaired_links == 1
        assert controller.dropped_flits > 0
        assert controller.detours > 0
        # Every packet the transport tracked was delivered exactly once.
        assert transport.delivered == transport.tracked
        assert transport.failed == []
        # Flit conservation exactly balanced on the drained network.
        sent, consumed, dropped, in_flight = flit_balance(net)
        assert in_flight == 0
        assert sent == consumed + dropped
        assert checker.check(net.cycle) == []
