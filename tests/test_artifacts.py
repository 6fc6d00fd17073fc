"""Run-artifact flight recorder and `repro diff` regression gate."""

import io
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.network.config import mesh_config
from repro.obs import (
    MetricsRegistry,
    NetworkSampler,
    compare_artifacts,
    format_diff,
    write_run_artifacts,
    write_sweep_manifest,
)
from repro.obs.artifacts import DiffRow, _compare_run, rate_subdir
from repro.sim.runner import run_simulation


def _record_run(directory, rate=0.3, seed=7, with_sampler=False, **cfg_kw):
    cfg = mesh_config(mesh_k=4, chaining="any_input", seed=seed, **cfg_kw)
    registry = MetricsRegistry()
    sampler = NetworkSampler(period=100) if with_sampler else None
    result = run_simulation(
        cfg, rate=rate, warmup=50, measure=200, drain=500,
        metrics=registry, probes=[sampler] if with_sampler else (),
    )
    write_run_artifacts(
        str(directory), cfg, result, registry=registry,
        run_info={"rate": rate}, sampler=sampler,
    )
    return result


class TestWriteArtifacts:
    def test_directory_contents(self, tmp_path):
        art = tmp_path / "art"
        _record_run(art, with_sampler=True)
        names = sorted(os.listdir(art))
        assert names == [
            "manifest.json", "metrics.json", "samples.jsonl",
            "summary.json",
        ]

    def test_manifest_self_describes(self, tmp_path):
        art = tmp_path / "art"
        _record_run(art, seed=11)
        manifest = json.loads((art / "manifest.json").read_text())
        assert manifest["kind"] == "run"
        assert manifest["seed"] == 11
        assert manifest["config"]["chaining"] == "any_input"
        assert manifest["run"]["rate"] == 0.3
        assert manifest["versions"]["repro"]
        assert manifest["versions"]["python"]
        assert sorted(manifest["files"]) == manifest["files"]
        for name in manifest["files"]:
            assert (art / name).exists()

    def test_summary_matches_result(self, tmp_path):
        art = tmp_path / "art"
        result = _record_run(art)
        summary = json.loads((art / "summary.json").read_text())
        assert summary == result.to_dict()


class TestCompare:
    def test_identical_runs_diff_clean(self, tmp_path):
        _record_run(tmp_path / "a")
        _record_run(tmp_path / "b")
        diff = compare_artifacts(str(tmp_path / "a"), str(tmp_path / "b"))
        assert diff.regressions == []
        assert {row.metric for row in diff.rows} == {
            "packet_latency_mean", "packet_latency_p99",
            "avg_throughput", "min_throughput",
        }
        assert all(row.delta_pct == 0.0 for row in diff.rows)
        assert "no regressions" in format_diff(diff)

    def test_perturbed_run_trips_threshold(self, tmp_path):
        _record_run(tmp_path / "a", rate=0.3)
        _record_run(tmp_path / "b", rate=0.6)
        diff = compare_artifacts(
            str(tmp_path / "a"), str(tmp_path / "b"), threshold_pct=5.0
        )
        regressed = {row.metric for row in diff.regressions}
        assert "packet_latency_mean" in regressed
        assert "REGRESSION" in format_diff(diff)

    def test_latency_improvement_is_not_a_regression(self, tmp_path):
        _record_run(tmp_path / "a", rate=0.6)
        _record_run(tmp_path / "b", rate=0.3)
        diff = compare_artifacts(str(tmp_path / "a"), str(tmp_path / "b"))
        assert "packet_latency_mean" not in {
            row.metric for row in diff.regressions
        }

    def test_metrics_only_baseline_fallback(self, tmp_path):
        # A checked-in baseline may carry metrics.json only; the differ
        # reconstructs throughput gauges and mean latency from it.
        _record_run(tmp_path / "a")
        _record_run(tmp_path / "b")
        os.remove(tmp_path / "a" / "summary.json")
        diff = compare_artifacts(str(tmp_path / "a"), str(tmp_path / "b"))
        names = {row.metric for row in diff.rows}
        assert names == {
            "packet_latency_mean", "avg_throughput", "min_throughput"
        }
        assert diff.regressions == []

    def test_empty_dirs_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        with pytest.raises(ValueError):
            compare_artifacts(str(tmp_path / "a"), str(tmp_path / "b"))

    def test_zero_base_delta_is_inf(self, tmp_path):
        for name, tp in (("a", 0.0), ("b", 0.5)):
            d = tmp_path / name
            d.mkdir()
            (d / "summary.json").write_text(
                json.dumps({"avg_throughput": tp})
            )
        diff = compare_artifacts(str(tmp_path / "a"), str(tmp_path / "b"))
        (row,) = diff.rows
        assert row.delta_pct == float("inf")
        assert not row.regressed  # more throughput from zero: improvement
        assert "+inf" in format_diff(diff)

    def test_threshold_is_exclusive(self, tmp_path):
        for name, lat in (("a", 100.0), ("b", 105.0)):
            d = tmp_path / name
            d.mkdir()
            (d / "summary.json").write_text(
                json.dumps({"packet_latency": {"mean": lat}})
            )
        exactly = _compare_run(str(tmp_path / "a"), str(tmp_path / "b"), 5.0)
        assert exactly.regressions == []
        tighter = _compare_run(str(tmp_path / "a"), str(tmp_path / "b"), 4.9)
        assert len(tighter.regressions) == 1

    def test_diff_row_serializes(self):
        row = DiffRow("m", 1.0, 2.0, 100.0, False, True)
        assert row.to_dict()["regressed"] is True


class TestSweepArtifacts:
    def test_sweep_layout_and_diff(self, tmp_path):
        rates = [0.1, 0.3]
        for name in ("a", "b"):
            root = tmp_path / name
            cfg = mesh_config(mesh_k=4, chaining="any_input", seed=2)
            write_sweep_manifest(str(root), cfg, rates)
            for rate in rates:
                _record_run(root / rate_subdir(rate), rate=rate, seed=2)
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["kind"] == "sweep"
        assert manifest["runs"] == ["rate_0.1000", "rate_0.3000"]
        diff = compare_artifacts(str(tmp_path / "a"), str(tmp_path / "b"))
        assert diff.children and set(diff.children) == set(manifest["runs"])
        assert diff.regressions == []
        text = format_diff(diff)
        assert "rate_0.1000:" in text

    def test_sweep_diff_requires_common_rates(self, tmp_path):
        cfg = mesh_config(mesh_k=4)
        write_sweep_manifest(str(tmp_path / "a"), cfg, [0.1])
        write_sweep_manifest(str(tmp_path / "b"), cfg, [0.2])
        _record_run(tmp_path / "a" / rate_subdir(0.1), rate=0.1)
        _record_run(tmp_path / "b" / rate_subdir(0.2), rate=0.2)
        with pytest.raises(ValueError):
            compare_artifacts(str(tmp_path / "a"), str(tmp_path / "b"))

    def test_sweep_regression_bubbles_up(self, tmp_path):
        cfg = mesh_config(mesh_k=4)
        for name, rate_used in (("a", 0.3), ("b", 0.6)):
            root = tmp_path / name
            write_sweep_manifest(str(root), cfg, [0.3])
            # Same subdir name, different actual load in "b".
            _record_run(root / rate_subdir(0.3), rate=rate_used)
        diff = compare_artifacts(str(tmp_path / "a"), str(tmp_path / "b"))
        assert diff.rows == []
        assert len(diff.regressions) > 0


class TestCLIDiff:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def test_run_artifacts_flag(self, tmp_path):
        art = tmp_path / "art"
        code, _ = self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.3",
            "--warmup", "50", "--measure", "200", "--drain", "500",
            "--artifacts", str(art),
        )
        assert code == 0
        names = set(os.listdir(art))
        assert {"manifest.json", "summary.json", "metrics.json",
                "samples.jsonl"} <= names

    def test_run_artifacts_with_trace_adds_spans(self, tmp_path):
        art = tmp_path / "art"
        code, _ = self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.3",
            "--warmup", "50", "--measure", "200", "--drain", "500",
            "--trace", str(tmp_path / "t.jsonl.gz"), "--artifacts", str(art),
        )
        assert code == 0
        spans = json.loads((art / "spans.json").read_text())
        assert spans["packets"] > 0
        assert spans["incomplete"] == 0
        metrics = json.loads((art / "metrics.json").read_text())
        assert metrics["counters"]["span_packets"] == spans["packets"]

    def test_diff_identical_exits_zero(self, tmp_path):
        common = [
            "run", "--mesh-k", "4", "--rate", "0.3", "--seed", "5",
            "--warmup", "50", "--measure", "200", "--drain", "500",
        ]
        self.run_cli(*common, "--artifacts", str(tmp_path / "a"))
        self.run_cli(*common, "--artifacts", str(tmp_path / "b"))
        code, text = self.run_cli(
            "diff", str(tmp_path / "a"), str(tmp_path / "b"),
            "--threshold", "5",
        )
        assert code == 0
        assert "no regressions" in text

    def test_diff_perturbed_exits_nonzero(self, tmp_path):
        common = [
            "run", "--mesh-k", "4", "--seed", "5",
            "--warmup", "50", "--measure", "200", "--drain", "500",
        ]
        self.run_cli(*common, "--rate", "0.3",
                     "--artifacts", str(tmp_path / "a"))
        self.run_cli(*common, "--rate", "0.6",
                     "--artifacts", str(tmp_path / "b"))
        code, text = self.run_cli(
            "diff", str(tmp_path / "a"), str(tmp_path / "b"),
            "--threshold", "5",
        )
        assert code == 1
        assert "REGRESSION" in text

    def test_diff_json_output(self, tmp_path):
        self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.2", "--warmup", "50",
            "--measure", "100", "--drain", "200",
            "--artifacts", str(tmp_path / "a"),
        )
        code, text = self.run_cli(
            "diff", str(tmp_path / "a"), str(tmp_path / "a"), "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["regressions"] == 0
        assert payload["threshold_pct"] == 5.0

    def test_diff_bad_dirs_exit_two(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        code, text = self.run_cli(
            "diff", str(tmp_path / "a"), str(tmp_path / "b"),
        )
        assert code == 2
        assert "repro diff:" in text

    def test_sweep_artifacts_flag(self, tmp_path):
        art = tmp_path / "sw"
        code, _ = self.run_cli(
            "sweep", "--mesh-k", "4", "--rates", "0.1", "0.2",
            "--warmup", "50", "--measure", "100",
            "--artifacts", str(art),
        )
        assert code == 0
        manifest = json.loads((art / "manifest.json").read_text())
        assert manifest["kind"] == "sweep"
        for sub in manifest["runs"]:
            assert (art / sub / "summary.json").exists()
            assert (art / sub / "metrics.json").exists()
