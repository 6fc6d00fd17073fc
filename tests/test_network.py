"""Integration tests for the assembled network.

These check end-to-end invariants: every injected flit is ejected
exactly once, packets arrive intact and in order, credits never go
negative or exceed buffer depth, and the network fully drains.
"""

import random
import subprocess
import sys

import pytest

from repro.core.chaining import ChainingScheme
from repro.network.config import fbfly_config, mesh_config
from repro.network.flit import Packet
from repro.network.network import Network, build_network
from repro.network.router import Router


def drain(net, max_cycles=2000):
    for _ in range(max_cycles):
        if net.in_flight_flits() == 0 and net.backlog() == 0:
            return net.cycle
        net.step()
    raise AssertionError("network did not drain")


class RecordingSink:
    """Wraps the stats collector to capture per-terminal flit order."""

    def __init__(self, net):
        self.received = {t: [] for t in range(net.num_terminals)}
        for sink in net.sinks:
            sink.stats = self  # substitute ourselves

    def record_flit_ejected(self, flit, cycle):
        self.received[flit.packet.dest].append(flit)

    def record_ejected(self, packet, cycle):
        pass


def checked_network(cfg):
    net = Network(cfg)
    rec = RecordingSink(net)
    return net, rec


def send_packets(net, specs):
    """specs: list of (src, dest, size). Returns the packets."""
    packets = []
    for src, dest, size in specs:
        p = Packet(src, dest, size, net.cycle)
        net.inject(p)
        packets.append(p)
    return packets


@pytest.mark.parametrize(
    "cfg_factory",
    [
        lambda: mesh_config(mesh_k=4),
        lambda: mesh_config(mesh_k=4, chaining=ChainingScheme.ANY_INPUT),
        lambda: fbfly_config(fbfly_rows=2, fbfly_cols=2),
        lambda: fbfly_config(chaining=ChainingScheme.SAME_INPUT),
    ],
)
class TestDelivery:
    def test_single_packet_delivered(self, cfg_factory):
        net, rec = checked_network(cfg_factory())
        (pkt,) = send_packets(net, [(0, net.num_terminals - 1, 3)])
        drain(net)
        flits = rec.received[pkt.dest]
        assert [f.packet for f in flits] == [pkt] * 3
        assert [f.index for f in flits] == [0, 1, 2]
        assert pkt.time_ejected is not None

    def test_many_random_packets_all_delivered_intact(self, cfg_factory):
        net, rec = checked_network(cfg_factory())
        rng = random.Random(11)
        n = net.num_terminals
        specs = [
            (rng.randrange(n), rng.randrange(n), rng.choice([1, 1, 2, 5]))
            for _ in range(200)
        ]
        specs = [(s, d, z) for s, d, z in specs if s != d]
        packets = send_packets(net, specs)
        drain(net, 5000)
        total_flits = sum(len(v) for v in rec.received.values())
        assert total_flits == sum(p.size for p in packets)
        # Per-packet: flits arrive exactly once and in index order.
        seen = {}
        for dest, flits in rec.received.items():
            for f in flits:
                assert f.packet.dest == dest
                seen.setdefault(f.packet.pid, []).append(f.index)
        for p in packets:
            assert seen[p.pid] == list(range(p.size))

    def test_continuous_load_conserves_flits(self, cfg_factory):
        """Inject under sustained load; totals must balance after drain."""
        net, rec = checked_network(cfg_factory())
        rng = random.Random(5)
        n = net.num_terminals
        injected = 0
        for cycle in range(150):
            for src in range(n):
                if rng.random() < 0.3:
                    dest = rng.randrange(n)
                    if dest == src:
                        continue
                    net.inject(Packet(src, dest, rng.choice([1, 5]), net.cycle))
                    injected += 1
            net.step()
        drain(net, 8000)
        got = sum(len(v) for v in rec.received.values())
        want = sum(
            p.size
            for v in rec.received.values()
            for p in {f.packet for f in v}
        )
        assert got == want  # no duplicated or dropped flits


class TestCreditInvariants:
    def test_credits_bounded(self):
        """Credits never exceed buffer depth or go negative under load."""
        cfg = mesh_config(mesh_k=4, chaining=ChainingScheme.ANY_INPUT)
        net = Network(cfg)
        rng = random.Random(9)
        depth = cfg.vc_buf_depth
        for cycle in range(300):
            for src in range(net.num_terminals):
                if rng.random() < 0.5:
                    dest = rng.randrange(net.num_terminals)
                    if dest != src:
                        net.inject(Packet(src, dest, 1, net.cycle))
            net.step()
            for router in net.routers:
                for port_credits in router.credits:
                    for c in port_credits:
                        assert 0 <= c <= depth

    def test_buffers_never_overflow(self):
        """The push() OverflowError guard must never fire under load."""
        cfg = mesh_config(mesh_k=4, chaining=ChainingScheme.SAME_INPUT)
        net = Network(cfg)
        rng = random.Random(13)
        for cycle in range(400):
            for src in range(net.num_terminals):
                if rng.random() < 0.9:
                    dest = rng.randrange(net.num_terminals)
                    if dest != src:
                        net.inject(Packet(src, dest, rng.choice([1, 8]), net.cycle))
            net.step()  # OverflowError would propagate


class TestConnectionInvariants:
    def test_connection_registers_consistent(self):
        """conn_in and conn_out must always mirror each other."""
        cfg = mesh_config(mesh_k=4, chaining=ChainingScheme.ANY_INPUT)
        net = Network(cfg)
        rng = random.Random(21)
        for cycle in range(300):
            for src in range(net.num_terminals):
                if rng.random() < 0.8:
                    dest = rng.randrange(net.num_terminals)
                    if dest != src:
                        net.inject(Packet(src, dest, rng.choice([1, 2, 5]), net.cycle))
            net.step()
            for router in net.routers:
                for o, held in enumerate(router.conn_out):
                    if held is not None:
                        p, v = held
                        assert router.conn_in[p] == o
                for p, o in enumerate(router.conn_in):
                    if o is not None:
                        assert router.conn_out[o] is not None
                        assert router.conn_out[o][0] == p

    def test_at_most_one_connection_per_port(self):
        cfg = mesh_config(mesh_k=4, chaining=ChainingScheme.SAME_INPUT)
        net = Network(cfg)
        rng = random.Random(22)
        for cycle in range(200):
            for src in range(net.num_terminals):
                dest = rng.randrange(net.num_terminals)
                if dest != src:
                    net.inject(Packet(src, dest, 1, net.cycle))
            net.step()
            for router in net.routers:
                holders = [h for h in router.conn_out if h is not None]
                inputs = [h[0] for h in holders]
                assert len(inputs) == len(set(inputs))


class TestNetworkMisc:
    def test_step_advances_cycle(self):
        net = Network(mesh_config(mesh_k=4))
        net.run(10)
        assert net.cycle == 10

    def test_empty_network_stays_empty(self):
        net = Network(mesh_config(mesh_k=4))
        net.run(50)
        assert net.in_flight_flits() == 0

    def test_chain_stats_aggregation(self):
        cfg = mesh_config(mesh_k=4, chaining=ChainingScheme.ANY_INPUT)
        net = Network(cfg)
        rng = random.Random(1)
        for cycle in range(200):
            for src in range(net.num_terminals):
                dest = rng.randrange(net.num_terminals)
                if dest != src:
                    net.inject(Packet(src, dest, 1, net.cycle))
            net.step()
        assert net.chain_stats().total_chains > 0

    def test_build_network_builds_the_network(self):
        net = build_network(mesh_config(mesh_k=4))
        assert type(net) is Network
        assert all(type(r) is Router for r in net.routers)

    def test_core_does_not_import_numpy(self):
        # A fresh interpreter: this process has long since imported it.
        code = (
            "import sys\n"
            "from repro.network.config import mesh_config\n"
            "from repro.network.network import build_network\n"
            "net = build_network(mesh_config(mesh_k=4))\n"
            "net.run(3)\n"
            "assert 'numpy' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
