"""Run-artifact flight recorder (``repro run --artifacts``)."""

import io
import json
import os

from repro.cli import main as cli_main
from repro.network.config import mesh_config
from repro.obs import MetricsRegistry, NetworkSampler, write_run_artifacts
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
