"""Run-artifact flight recorder (``repro run --artifacts``)."""

import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.network.config import mesh_config
from repro.obs import MetricsRegistry, NetworkSampler, write_run_artifacts
from repro.serve import spec_for


def _record_run(directory, rate=0.3, seed=7, with_sampler=False, **cfg_kw):
    cfg = mesh_config(mesh_k=4, chaining="any_input", seed=seed, **cfg_kw)
    spec = spec_for(cfg, rate=rate, warmup=50, measure=200, drain=500)
    registry = MetricsRegistry()
    sampler = NetworkSampler(period=100) if with_sampler else None
    result = spec.simulate(metrics=registry,
                           probes=[sampler] if with_sampler else ())
    write_run_artifacts(str(directory), spec, result, registry=registry,
                        sampler=sampler)
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
        assert manifest["schema"] == 2
        spec = manifest["spec"]
        assert spec["config"]["seed"] == 11
        assert spec["config"]["chaining"] == "any_input"
        assert spec["rate"] == 0.3
        assert manifest["spec_hash"] == spec_for(
            mesh_config(mesh_k=4, chaining="any_input", seed=11), rate=0.3,
            warmup=50, measure=200, drain=500).spec_hash()
        assert not {"config", "seed", "run"} & set(manifest)
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


FAULT_PLAN_K4 = os.path.join(os.path.dirname(__file__), "..", "examples",
                             "faultplan_k4.json")


@st.composite
def run_flags(draw):
    """``repro run`` flags on k=4: pattern, rate, fixed or bimodal
    lengths, the k=4 fault plan and the reliable transport on or off."""
    flags = ["--mesh-k", "4", "--chaining", "any_input",
             "--warmup", "100", "--measure", "300", "--drain", "3000",
             "--pattern", draw(st.sampled_from(
                 ["uniform", "transpose", "bitcomp", "neighbor"])),
             "--rate", str(draw(st.sampled_from([0.05, 0.15, 0.3])))]
    flags += draw(st.sampled_from(
        [["--packet-length", "1"], ["--packet-length", "3"], ["--bimodal"]]))
    if draw(st.booleans()):
        flags += ["--faults", FAULT_PLAN_K4]
    if draw(st.booleans()):
        flags += ["--reliable", "--reliable-timeout", "256"]
    return flags


@settings(max_examples=8, derandomize=True)
@given(run_flags())
def test_run_directory_reruns_from_its_manifest(flags):
    """``run --artifacts D`` then ``serve R --submit D/manifest.json``
    and ``serve R --once``: the cache entry's summary.json is
    byte-identical to D's, faulted and reliable runs included."""
    with tempfile.TemporaryDirectory(prefix="art-rerun-") as tmp:
        art, root = os.path.join(tmp, "D"), os.path.join(tmp, "R")
        code = cli_main(["run", *flags, "--artifacts", art], out=io.StringIO())
        assert code in (0, 1)  # 1: the transport gave up on a packet
        out = io.StringIO()
        assert cli_main(["serve", root, "--submit",
                         os.path.join(art, "manifest.json")], out) == 0
        assert cli_main(["serve", root, "--once", "--workers", "1"],
                        io.StringIO()) == 0
        with open(os.path.join(art, "manifest.json")) as fh:
            spec_hash = json.load(fh)["spec_hash"]
        entry = os.path.join(root, "cache", "objects", spec_hash)
        with open(os.path.join(art, "summary.json"), "rb") as fh:
            expected = fh.read()
        with open(os.path.join(entry, "summary.json"), "rb") as fh:
            assert fh.read() == expected


def test_faulted_digest_header_names_the_run_spec(tmp_path):
    """A faulted, reliable run's digest header records the run spec its
    manifest describes, fault plan and transport included."""
    from repro.checkpoint import canonical_run_spec
    from repro.obs.digest import read_digest_stream

    art, digest = tmp_path / "D", tmp_path / "d.jsonl"
    code = cli_main(["run", "--mesh-k", "4", "--rate", "0.15",
                     "--warmup", "100", "--measure", "300", "--drain", "3000",
                     "--faults", FAULT_PLAN_K4, "--reliable",
                     "--digest", str(digest), "--artifacts", str(art)],
                    out=io.StringIO())
    assert code in (0, 1)  # 1: the transport gave up on a packet
    spec = json.loads((art / "manifest.json").read_text())["spec"]
    assert spec["faults"] is not None and spec["transport"] is not None
    expected = canonical_run_spec(
        spec["pattern"], spec["rate"], spec["lengths"], spec["warmup"],
        spec["measure"], spec["drain"], spec["faults"], spec["transport"])
    assert read_digest_stream(str(digest)).header["run_spec"] == expected
