"""Periodic network-state sampler: snapshots, ring buffer, heatmaps."""

import gzip
import json
import random

import pytest

from repro.network.config import fbfly_config, mesh_config
from repro.network.network import Network
from repro.obs import SAMPLE_FIELDS, NetworkSampler
from repro.obs.sampler import shade
from repro.sim.runner import SimulationRun, run_simulation
from repro.traffic.injection import BernoulliInjector, FixedLength
from repro.traffic.patterns import build_pattern


def _sampled_run(period=50, capacity=1024, cycles=300, rate=0.4,
                 mesh_k=4, chaining="any_input"):
    sampler = NetworkSampler(period=period, capacity=capacity)
    cfg = mesh_config(mesh_k=mesh_k, chaining=chaining)
    result = run_simulation(
        cfg, rate=rate, warmup=0, measure=cycles, drain=0, seed=3,
        probes=[sampler],
    )
    return result, sampler


def _bare_run(measure):
    """A SimulationRun on an idle 4x4 mesh (no traffic offered)."""
    net = Network(mesh_config(mesh_k=4))
    rng = random.Random(1)
    pattern = build_pattern("uniform", net.num_terminals, rng)
    injector = BernoulliInjector(net.num_terminals, pattern, 0.0,
                                 FixedLength(1), rng)
    return SimulationRun(net, injector, warmup=0, measure=measure, drain=0)


class TestSampling:
    def test_sample_cadence(self):
        _, sampler = _sampled_run(period=50, cycles=300)
        cycles = [s["cycle"] for s in sampler.samples]
        assert cycles == [0, 50, 100, 150, 200, 250]
        assert sampler.dropped == 0

    def test_sample_shape(self):
        _, sampler = _sampled_run(period=100, cycles=200, mesh_k=4)
        sample = sampler.samples[-1]
        assert len(sample["buffered"]) == 16
        assert len(sample["credits_free"]) == 16
        assert len(sample["conns_held"]) == 16
        assert len(sample["port_flits"]) == 16
        # Congested mesh mid-run: something is buffered somewhere.
        assert sum(sample["buffered"]) > 0
        assert all(len(p) == 5 for p in sample["port_flits"])

    def test_ring_buffer_bounds_and_counts_drops(self):
        _, sampler = _sampled_run(period=10, capacity=4, cycles=100)
        assert len(sampler.samples) == 4
        assert sampler.dropped == 6
        # Oldest dropped first: the retained window is the most recent.
        assert [s["cycle"] for s in sampler.samples] == [60, 70, 80, 90]

    def test_port_flits_are_deltas(self):
        _, sampler = _sampled_run(period=50, cycles=300)
        per_sample = [
            sum(sum(ports) for ports in s["port_flits"])
            for s in sampler.samples
        ]
        net_total = sum(per_sample)
        # Deltas, not cumulative counters: later samples don't dominate.
        assert max(per_sample) < net_total

    def test_unattached_network_has_no_sampler(self):
        """Samplers are run probes; the network carries no hook."""
        net = Network(mesh_config(mesh_k=4))
        assert not hasattr(net, "sampler")
        assert _bare_run(10).probes == []

    def test_start_mid_run_starts_at_current_cycle(self):
        run = _bare_run(40)
        for _ in range(30):
            run.step_cycle()
        sampler = NetworkSampler(period=100)
        run.probes.append(sampler)
        run.execute()  # starts the sampler at cycle 30, runs to 40
        assert [s["cycle"] for s in sampler.samples] == [30]

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSampler(period=0)
        with pytest.raises(ValueError):
            NetworkSampler(capacity=0)


class TestDerivedViews:
    @pytest.fixture(scope="class")
    def sampled(self):
        return _sampled_run(period=50, cycles=300)

    def test_router_series_fields(self, sampled):
        _, sampler = sampled
        for field in SAMPLE_FIELDS:
            series = sampler.router_series(field)
            assert len(series) == len(sampler.samples)
            assert all(len(row) == 16 for row in series)

    def test_unknown_field_rejected(self, sampled):
        _, sampler = sampled
        with pytest.raises(ValueError):
            sampler.router_series("vibes")

    def test_link_utilization_totals(self, sampled):
        _, sampler = sampled
        util = sampler.link_utilization()
        total_flits = sum(
            sum(sum(ports) for ports in s["port_flits"])
            for s in sampler.samples
        )
        cycles = sampler.period * len(sampler.samples)
        assert sum(util.values()) == pytest.approx(total_flits / cycles)
        # One flit per cycle is a link's capacity.
        assert all(0 <= u <= 1 for u in util.values())

    def test_hottest_links_ranked(self, sampled):
        _, sampler = sampled
        hot = sampler.hottest_links(top=5)
        assert 0 < len(hot) <= 5
        rates = [u for _, _, u in hot]
        assert rates == sorted(rates, reverse=True)
        assert all(u > 0 for u in rates)

    def test_empty_sampler_views(self):
        sampler = NetworkSampler()
        assert sampler.link_utilization() == {}
        assert sampler.hottest_links() == []


class TestHeatmap:
    def test_mesh_heatmap_shape(self):
        _, sampler = _sampled_run(period=50, cycles=300, mesh_k=4)
        for reduce in ("mean", "last"):
            art = sampler.heatmap(field="buffered", reduce=reduce)
            rows = art.split("\n")
            assert len(rows) == 4
            assert all(len(row) == 4 for row in rows)

    def test_shade_ramp(self):
        assert shade(0, 10) == " "
        assert shade(10, 10) == "@"
        assert shade(0, 0) == " "

    def test_heatmap_no_samples(self):
        sampler = NetworkSampler()
        sampler.start(_bare_run(10))
        assert sampler.heatmap() == "(no samples)"

    def test_heatmap_bad_reduce(self):
        _, sampler = _sampled_run(period=100, cycles=200)
        with pytest.raises(ValueError):
            sampler.heatmap(reduce="median")

    def test_heatmap_requires_grid(self):
        sampler = NetworkSampler(period=100)
        cfg = fbfly_config(fbfly_rows=2, fbfly_cols=2)
        run_simulation(
            cfg, rate=0.1, warmup=0, measure=100, drain=0, probes=[sampler],
        )
        with pytest.raises(TypeError):
            sampler.heatmap()


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        _, sampler = _sampled_run(period=100, cycles=300)
        path = tmp_path / "samples.jsonl"
        sampler.save_jsonl(str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(sampler.samples)
        assert json.loads(lines[0]) == sampler.to_dicts()[0]

    def test_jsonl_gzip(self, tmp_path):
        _, sampler = _sampled_run(period=100, cycles=300)
        path = tmp_path / "samples.jsonl.gz"
        sampler.save_jsonl(str(path))
        with gzip.open(path, "rt") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows == sampler.to_dicts()
