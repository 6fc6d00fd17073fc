"""The lockstep divergence microscope, end to end.

The acceptance bar from the issue: inject an off-by-one into the fast
core's allocator fast path (test-only monkeypatch) and ``repro diverge
ref-vs-fast`` must pinpoint the exact first divergent cycle, the owning
router, and the drifted arbiter-pointer field — via the library API and
via the CLI, with a machine-readable report.
"""

import io
import json

import pytest

from repro.cli import main
from repro.fastcore.allocators import FastSeparableInputFirstAllocator
from repro.network import flit as flitmod
from repro.network.config import mesh_config
from repro.obs.digest import DigestRecorder, read_digest_stream
from repro.obs.lockstep import (
    LockstepSide,
    find_divergence,
    run_lockstep,
    run_vs_stream,
    side_factory,
)
from repro.sim.runner import run_simulation

SPEC = dict(pattern="uniform", rate=0.3, warmup=100, measure=300, drain=200)


def _config(seed=1, backend="reference", **kw):
    # Side A, recorded streams and standalone probes name the reference
    # core: a comparison of fast against fast would prove nothing.
    return mesh_config(mesh_k=4, chaining="any_input", seed=seed,
                       backend=backend, **kw)


def _factories(seed=1, **spec):
    spec = {**SPEC, **spec}
    return (
        side_factory("reference", _config(seed=seed), **spec),
        side_factory("fast", _config(seed=seed, backend="fast"), **spec),
    )


@pytest.fixture
def broken_fast_allocator(monkeypatch):
    """Inject an off-by-one into the fast allocator's grant bookkeeping.

    Whenever more than one input requests, every granted input's
    round-robin pointer is advanced one slot too far — exactly the kind
    of subtle fast-path divergence the microscope exists to catch: the
    grants themselves stay valid, only future arbitration drifts.
    """
    orig = FastSeparableInputFirstAllocator.allocate

    def broken(self, requests):
        grants = orig(self, requests)
        if len(requests) > 1:
            for i, o in grants.items():
                self._input_arbiters[i].pointer = (
                    self._input_arbiters[i].pointer + 1
                ) % self.num_outputs
        return grants

    monkeypatch.setattr(FastSeparableInputFirstAllocator, "allocate", broken)


# ---------------------------------------------------------------------------
# library API


class TestFindDivergence:
    def test_ref_vs_fast_identical_without_bug(self):
        make_a, make_b = _factories()
        assert find_divergence(make_a, make_b, every=64) is None

    def test_injected_off_by_one_is_pinpointed(self, broken_fast_allocator):
        make_a, make_b = _factories()
        report = find_divergence(make_a, make_b, every=64)

        assert report is not None
        assert report["verdict"] == "diverged"
        # Exact first divergent cycle: the coarse pass runs at stride
        # 64, the refinement pass must still land cycle-exactly.
        assert report["last_match_cycle"] == report["cycle"] - 1
        # The drift is localized to the owning router(s) ...
        assert report["components"]
        assert all(path.startswith("router[") for path in report["components"])
        # ... and to the exact arbiter-pointer field inside the switch
        # allocator, with both sides' values one apart.
        first = report["components"][0]
        keys = [d["key"] for d in report["diffs"][first]]
        assert any("switch_alloc.input_arbiters" in k and k.endswith("pointer")
                   for k in keys)
        pointer = next(d for d in report["diffs"][first]
                       if k_match(d["key"]))
        assert (pointer["b"] - pointer["a"]) % 5 == 1
        # The fast side's SoA arrays still match its canonical state —
        # the bug is in allocation, not array maintenance.
        assert report["soa_consistent"]["b"] is True
        assert report["side_a"]["backend"] == "reference"
        assert report["side_b"]["backend"] == "fast"
        assert report["trace_a"] and report["trace_b"]

    def test_coarse_and_fine_agree_on_cycle(self, broken_fast_allocator):
        coarse = find_divergence(*_factories(), every=64)
        fine = find_divergence(*_factories(), every=1)
        assert coarse["cycle"] == fine["cycle"]
        assert coarse["components"] == fine["components"]

    def test_run_lockstep_stride_brackets_divergence(
        self, broken_fast_allocator
    ):
        make_a, make_b = _factories()
        window = run_lockstep(make_a(), make_b(), every=64)
        exact = find_divergence(*_factories(), every=1)["cycle"]
        assert window is not None
        assert window.last_match < exact <= window.cycle


def k_match(key):
    return "switch_alloc.input_arbiters" in key and key.endswith("pointer")


class TestLockstepSides:
    def test_side_state_matches_standalone_run(self):
        """A lockstep side's pid windowing reproduces a fresh process."""
        side = LockstepSide("probe", _config(), **SPEC)
        for _ in range(50):
            side.step()
        probe = side.digest()["root"]

        other = LockstepSide("other", _config(backend="fast"), **SPEC)
        for _ in range(50):
            other.step()
        assert other.digest()["root"] == probe

    def test_vs_config_diverges_from_construction_or_early(self):
        a = LockstepSide("a", _config(), **SPEC)
        b = LockstepSide("b", _config(allocator="wavefront"), **SPEC)
        window = run_lockstep(a, b, every=1)
        assert window is not None


# ---------------------------------------------------------------------------
# live run vs recorded stream


class TestVsStream:
    def _record(self, tmp_path, seed=1, name="digests.jsonl"):
        flitmod.set_next_packet_id(0)
        path = str(tmp_path / name)
        recorder = DigestRecorder(every=32, path=path)
        recorder.write_header(_config(seed=seed))
        run_simulation(_config(seed=seed), digest=recorder, **SPEC)
        return path

    def test_matching_stream_is_identical(self, tmp_path):
        path = self._record(tmp_path)
        stream = read_digest_stream(path)
        side = LockstepSide("live", _config(backend="fast"), **SPEC)
        assert run_vs_stream(side, stream) is None

    def test_bugged_live_run_diverges_from_stream(
        self, tmp_path, broken_fast_allocator
    ):
        path = self._record(tmp_path)
        stream = read_digest_stream(path)
        side = LockstepSide("live", _config(backend="fast"), **SPEC)
        report = run_vs_stream(side, stream)
        assert report is not None
        assert report["mode"] == "vs-stream"
        assert report["verdict"] == "diverged"
        # Stream granularity: the divergent cycle is the first recorded
        # cycle whose digests mismatch, localized per component path.
        assert report["cycle"] % 32 == 0
        assert any(p.startswith("router[") for p in report["components"])
        for path_ in report["components"]:
            entry = report["digests"][path_]
            assert entry["a"] != entry["b"]


# ---------------------------------------------------------------------------
# CLI: repro diverge


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


CLI_ARGS = [
    "diverge", "--mesh-k", "4", "--chaining", "any_input", "--seed", "1",
    "--rate", "0.3", "--warmup", "100", "--measure", "300", "--drain", "200",
]


class TestDivergeCLI:
    def test_identical_backends_exit_zero(self):
        code, text = run_cli(*CLI_ARGS)
        assert code == 0
        assert "IDENTICAL" in text

    def test_bug_is_reported_with_exit_one(
        self, tmp_path, broken_fast_allocator
    ):
        report_path = str(tmp_path / "report.json")
        code, text = run_cli(*CLI_ARGS, "--report", report_path)
        assert code == 1
        assert "DIVERGED" in text
        assert "router[" in text
        assert "pointer" in text

        with open(report_path) as fh:
            report = json.load(fh)
        assert report["verdict"] == "diverged"
        assert report["last_match_cycle"] == report["cycle"] - 1
        assert all(p.startswith("router[") for p in report["components"])

    def test_json_output(self, broken_fast_allocator):
        code, text = run_cli(*CLI_ARGS, "--json")
        assert code == 1
        report = json.loads(text)
        assert report["verdict"] == "diverged"

    def test_vs_digests_cli(self, tmp_path):
        digest_path = str(tmp_path / "ref.jsonl")
        # In-process CLI: pids continue from earlier tests unless reset;
        # a standalone `repro run` process starts at 0, which is what
        # the lockstep side reproduces.
        flitmod.set_next_packet_id(0)
        code, _ = run_cli(
            "run", "--mesh-k", "4", "--chaining", "any_input", "--seed", "1",
            "--rate", "0.3", "--warmup", "100", "--measure", "300",
            "--drain", "200", "--digest", digest_path, "--digest-every", "32",
            "--backend", "reference",
        )
        assert code == 0
        code, text = run_cli(*CLI_ARGS, "--backend", "fast",
                             "--vs-digests", digest_path)
        assert code == 0
        assert "IDENTICAL" in text

    def test_vs_digests_refuses_config_mismatch(self, tmp_path):
        digest_path = str(tmp_path / "ref.jsonl")
        code, _ = run_cli(
            "run", "--mesh-k", "4", "--chaining", "any_input", "--seed", "1",
            "--rate", "0.3", "--warmup", "100", "--measure", "300",
            "--drain", "200", "--digest", digest_path, "--digest-every", "32",
        )
        assert code == 0
        args = list(CLI_ARGS)
        args[args.index("--seed") + 1] = "2"  # different experiment
        code, text = run_cli(*args, "--vs-digests", digest_path)
        assert code == 2

    def test_vs_backend_and_vs_config_are_exclusive(self, tmp_path):
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(_config().to_dict(), fh)
        code, _ = run_cli(*CLI_ARGS, "--vs-backend", "fast",
                          "--vs-config", cfg)
        assert code == 2
