"""Tests for trace record/replay and per-port flit counters."""

import random

import pytest

from repro.network.config import mesh_config
from repro.network.flit import Packet
from repro.network.network import Network
from repro.sim.runner import SimulationRun
from repro.traffic.trace import (
    TraceEntry,
    TraceInjector,
    TraceRecorder,
    record_cmp_trace,
)


class TestTraceEntry:
    def test_roundtrip_line(self):
        e = TraceEntry(42, 3, 17, 5)
        assert TraceEntry.from_line(e.to_line()) == e


class TestTraceRecorder:
    def test_records_injections(self):
        net = Network(mesh_config(mesh_k=4))
        rec = TraceRecorder().attach(net)
        net.inject(Packet(0, 5, 2, net.cycle))
        net.step()
        net.inject(Packet(3, 9, 1, net.cycle))
        assert [(e.cycle, e.src, e.dest, e.size) for e in rec.entries] == [
            (0, 0, 5, 2),
            (1, 3, 9, 1),
        ]

    def test_save_load_roundtrip(self, tmp_path):
        rec = TraceRecorder()
        rec.entries = [TraceEntry(0, 1, 2, 3), TraceEntry(5, 4, 5, 1)]
        path = tmp_path / "trace.txt"
        rec.save(path)
        assert TraceRecorder.load(path) == rec.entries


class TestTraceInjector:
    def test_replays_at_recorded_cycles(self):
        entries = [TraceEntry(10, 0, 1, 1), TraceEntry(12, 2, 3, 2)]
        inj = TraceInjector(entries, num_terminals=16)
        # time_offset auto-shifts the first entry to cycle 0.
        assert len(inj.generate(0)) == 1
        assert inj.generate(1) == []
        packets = inj.generate(2)
        assert len(packets) == 1
        assert packets[0].size == 2
        assert inj.exhausted

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            TraceInjector([TraceEntry(5, 0, 1, 1), TraceEntry(1, 0, 1, 1)], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TraceInjector([TraceEntry(0, 99, 1, 1)], 4)

    def test_mean_rate(self):
        entries = [TraceEntry(0, 0, 1, 2), TraceEntry(9, 1, 0, 2)]
        inj = TraceInjector(entries, num_terminals=2)
        assert inj.rate == pytest.approx(4 / 10 / 2)

    def test_disabled(self):
        inj = TraceInjector([TraceEntry(0, 0, 1, 1)], 4)
        inj.enabled = False
        assert inj.generate(0) == []

    def test_replay_through_simulation(self):
        """A recorded trace replays end-to-end on a fresh network."""
        rng = random.Random(8)
        entries = []
        cycle = 0
        for _ in range(50):
            cycle += rng.randrange(3)
            src, dest = rng.randrange(16), rng.randrange(16)
            if src != dest:
                entries.append(TraceEntry(cycle, src, dest, rng.choice([1, 2])))
        net = Network(mesh_config(mesh_k=4))
        inj = TraceInjector(entries, net.num_terminals)
        net.stats.set_window(0, 10_000)
        result = SimulationRun(net, inj, warmup=0, measure=cycle + 5,
                               drain=500).execute()
        assert result.packet_latency.count == len(entries)

    def test_record_cmp_trace(self):
        entries = record_cmp_trace("canneal", mesh_config(), cycles=60)
        assert entries
        assert all(0 <= e.src < 64 and 0 <= e.dest < 64 for e in entries)
        assert all(e.size in (1, 5) for e in entries)


class TestUtilization:
    def _loaded_network(self):
        """A 4x4 mesh after 200 cycles of random 1-flit traffic, and
        the number of flits injected."""
        net = Network(mesh_config(mesh_k=4))
        rng = random.Random(9)
        injected = 0
        for _ in range(200):
            for src in range(net.num_terminals):
                if rng.random() < 0.3:
                    dest = rng.randrange(net.num_terminals)
                    if dest != src:
                        net.inject(Packet(src, dest, 1, net.cycle))
                        injected += 1
            net.step()
        return net, injected

    def test_flit_conservation_against_port_counters(self):
        """Every injected flit leaves through exactly one terminal port:
        the routers' per-port counters match the sinks once drained."""
        net, injected = self._loaded_network()
        for _ in range(1000):
            if sum(sink.flits_consumed for sink in net.sinks) >= injected:
                break
            net.step()
        assert sum(sink.flits_consumed for sink in net.sinks) == injected
        assert net.backlog() == 0 and net.in_flight_flits() == 0
        ejected = sum(
            router.port_flits[port]
            for router in net.routers
            for port in range(router.radix)
            if router.is_terminal_port[port]
        )
        assert ejected == injected
