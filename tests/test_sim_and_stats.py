"""Tests for the simulation harness and statistics collection."""

import json

import pytest

from repro import ChainingScheme, mesh_config, run_simulation
from repro.checkpoint import Checkpointer
from repro.faults import HangWatchdog
from repro.network.flit import Packet, set_next_packet_id
from repro.obs import NetworkSampler
from repro.obs.digest import DigestRecorder
from repro.proc import BeatProbe, Heartbeat
from repro.sim.parallel import parallel_sweep
from repro.stats.collector import StatsCollector
from repro.stats.summary import LatencySummary


class TestStatsCollector:
    def test_window_gating(self):
        c = StatsCollector(4)
        c.set_window(10, 20)
        p = Packet(1, 2, 3, 12)
        c.record_created(p, 12)
        assert c.packets_created_per_source[1] == 1
        c.record_created(Packet(1, 2, 3, 5), 5)  # outside window
        assert c.packets_created_per_source[1] == 1

    def test_latency_requires_in_window_creation(self):
        c = StatsCollector(4)
        c.set_window(10, 20)
        early = Packet(0, 1, 1, 5)
        c.record_ejected(early, 15)
        assert c.packet_latencies == []
        ok = Packet(0, 1, 1, 12)
        ok.time_injected = 13
        c.record_ejected(ok, 18)
        assert c.packet_latencies == [6]
        assert c.network_latencies == [5]

    def test_late_ejection_still_counts_latency(self):
        """Packets created in-window but ejected during drain count."""
        c = StatsCollector(4)
        c.set_window(10, 20)
        p = Packet(0, 1, 1, 19)
        c.record_ejected(p, 35)
        assert c.packet_latencies == [16]

    def test_throughput_per_source(self):
        c = StatsCollector(2)
        c.set_window(0, 100)

        class F:
            def __init__(self, src):
                self.packet = Packet(src, 1 - src, 1, 0)

        for _ in range(50):
            c.record_flit_ejected(F(0), 10)
        for _ in range(25):
            c.record_flit_ejected(F(1), 10)
        c.packets_created_per_source = [1, 1]
        assert c.throughput_per_source() == [0.5, 0.25]
        assert c.min_throughput() == 0.25
        assert c.avg_throughput() == pytest.approx(0.375)

    def test_min_ignores_inactive_sources(self):
        """Sources that never offered traffic don't drag the minimum."""
        c = StatsCollector(3)
        c.set_window(0, 10)
        c.flits_ejected_per_source = [5, 7, 0]
        c.packets_created_per_source = [1, 1, 0]  # source 2 inactive
        assert c.min_throughput() == 0.5

    def test_empty_collector(self):
        c = StatsCollector(4)
        assert c.avg_throughput() == 0.0
        assert c.min_throughput() == 0.0


class TestLatencySummary:
    def test_empty(self):
        s = LatencySummary.of([])
        assert s.count == 0 and s.mean == 0.0

    def test_basic(self):
        s = LatencySummary.of([1, 2, 3, 4, 100])
        assert s.count == 5
        assert s.mean == 22
        assert s.max == 100
        assert s.p50 == 3

    def test_p99(self):
        s = LatencySummary.of(list(range(200)))
        assert s.p99 == 198


class TestRunSimulation:
    def test_low_load_accepted_matches_offered(self):
        cfg = mesh_config(mesh_k=4)
        r = run_simulation(cfg, rate=0.1, warmup=200, measure=600, drain=400)
        assert r.avg_throughput == pytest.approx(0.1, abs=0.02)
        assert not r.saturated

    def test_latency_reasonable_at_low_load(self):
        cfg = mesh_config(mesh_k=4)
        r = run_simulation(cfg, rate=0.05, warmup=200, measure=400, drain=400)
        # Zero-load: ~3 cycles/hop * avg ~2.7 hops + injection/ejection.
        assert 5 < r.packet_latency.mean < 20

    def test_chaining_does_not_break_low_load(self):
        cfg = mesh_config(mesh_k=4, chaining=ChainingScheme.ANY_INPUT)
        r = run_simulation(cfg, rate=0.1, warmup=200, measure=400, drain=400)
        assert r.avg_throughput == pytest.approx(0.1, abs=0.02)

    def test_seed_reproducibility(self):
        results = [
            run_simulation(
                mesh_config(mesh_k=4), rate=0.2, warmup=100, measure=300,
                drain=200, seed=42,
            ).avg_throughput
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        a = run_simulation(
            mesh_config(mesh_k=4), rate=0.2, warmup=100, measure=300, seed=1
        )
        b = run_simulation(
            mesh_config(mesh_k=4), rate=0.2, warmup=100, measure=300, seed=2
        )
        assert a.avg_throughput != b.avg_throughput

    def test_chain_stats_populated_only_when_chaining(self):
        base = run_simulation(
            mesh_config(mesh_k=4), rate=0.4, warmup=100, measure=300
        )
        assert base.chain_stats.total_chains == 0
        chained = run_simulation(
            mesh_config(mesh_k=4, chaining=ChainingScheme.ANY_INPUT),
            rate=0.4, warmup=100, measure=300,
        )
        assert chained.chain_stats.total_chains > 0

    def test_bimodal_lengths(self):
        from repro.traffic import BimodalLength

        cfg = mesh_config(mesh_k=4)
        r = run_simulation(
            cfg, rate=0.2, lengths=BimodalLength(1, 5), warmup=200, measure=400
        )
        assert r.avg_throughput == pytest.approx(0.2, abs=0.04)


def _record_firings(probe):
    """Wrap ``probe.on_cycle``; returns the post-step cycles it fires at."""
    cycles = []
    on_cycle = probe.on_cycle

    def recorded(run):
        cycles.append(run.network.cycle)
        on_cycle(run)

    probe.on_cycle = recorded
    return cycles


class TestProbes:
    def test_probes_do_not_change_results_and_fire_on_cadence(self,
                                                              tmp_path):
        """Sampler, report-mode watchdog, heartbeat to a file, digest
        and checkpointer on one run: the SimResult equals a bare run's
        apart from the watchdog's summary, and each probe fires exactly
        on its own cadence."""
        config = mesh_config(mesh_k=4, seed=5,
                             chaining=ChainingScheme.ANY_INPUT)
        run = dict(rate=0.3, warmup=100, measure=300, drain=200)
        set_next_packet_id(0)
        bare = run_simulation(config, **run).to_dict()

        sampler = NetworkSampler(period=7)
        watchdog = HangWatchdog(check_period=5, mode="report")
        beats = BeatProbe(Heartbeat(str(tmp_path / "run.hb.json"), "run", 1))
        digest = DigestRecorder(every=11)
        checkpointer = Checkpointer(str(tmp_path / "ck.json"), every=17)
        probes = [sampler, watchdog, beats, digest, checkpointer]
        fired = [_record_firings(p) for p in probes]
        set_next_packet_id(0)
        probed = run_simulation(config, probes=probes, **run).to_dict()

        assert probed.pop("faults") == {"watchdog": watchdog.summary()}
        assert bare.pop("faults") is None
        assert probed == bare
        end = probed["cycles_run"]
        assert fired == [
            list(range(1, end + 1, 7)),
            list(range(1, end + 1, 5)),
            list(range(1, end + 1)),
            list(range(11, end + 1, 11)),
            list(range(17, end + 1, 17)),
        ]
        # Each probe's own output follows the cycles it fired at.
        assert [s["cycle"] + 1 for s in sampler.samples] == fired[0]
        with open(tmp_path / "run.hb.json") as fh:
            final = json.load(fh)
        assert (final["state"], final["cycle"]) == ("done", end)
        assert [r["cycle"] for r in digest.records] == fired[3] + [end]
        assert checkpointer.last_cycle == fired[4][-1]
        assert checkpointer.saves == len(fired[4])


class TestSweeps:
    def test_sweep_monotone_then_flat(self):
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.1, 0.6], workers=2,
            warmup=150, measure=400, drain=0,
        )
        (r1, res1), (r2, res2) = results
        assert res1.avg_throughput == pytest.approx(0.1, abs=0.03)
        assert res2.avg_throughput > res1.avg_throughput
