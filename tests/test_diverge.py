"""The lockstep divergence microscope, end to end.

The acceptance bar: inject an off-by-one into one side's allocator (a
test-only, per-instance patch on side B) and the microscope must
pinpoint the exact first divergent cycle, the owning router, and the
drifted arbiter-pointer field — via the library API and via the CLI,
with a machine-readable report. Without the bug, the production core
and the test oracle (``tests/reference_core.py``) run in lockstep to
the end.
"""

import io
import json

import pytest

from repro.cli import main
from repro.network import flit as flitmod
from repro.network.config import mesh_config
from repro.obs import lockstep
from repro.obs.digest import DigestRecorder, read_digest_stream
from repro.obs.lockstep import (
    LockstepSide,
    find_divergence,
    run_lockstep,
    run_vs_stream,
    side_factory,
)
from repro.sim.runner import run_simulation

from tests.reference_core import reference_core

SPEC = dict(pattern="uniform", rate=0.3, warmup=100, measure=300, drain=200)


def _config(seed=1, **kw):
    return mesh_config(mesh_k=4, chaining="any_input", seed=seed, **kw)


def break_allocators(side):
    """Off-by-one in one side's switch-allocator grant bookkeeping.

    Whenever more than one input requests, every granted input's
    round-robin pointer is advanced one slot too far — exactly the kind
    of subtle divergence the microscope exists to catch: the grants
    themselves stay valid, only future arbitration drifts. Patched per
    allocator instance, so the other side is untouched.
    """
    for router in side.network.routers:
        alloc = router.switch_alloc
        orig = alloc.allocate

        def broken(requests, alloc=alloc, orig=orig):
            grants = orig(requests)
            if len(requests) > 1:
                for i in grants:
                    arb = alloc._input_arbiters[i]
                    arb.pointer = (arb.pointer + 1) % alloc.num_outputs
            return grants

        alloc.allocate = broken
    return side


def oracle_factory(label, config, **spec):
    """Like ``side_factory``, with the side built on the test oracle."""
    def make():
        with reference_core():
            return LockstepSide(label, config, **spec)
    return make


def broken_factory(label, config, **spec):
    """Like ``side_factory``, with the side's allocators broken."""
    return lambda: break_allocators(LockstepSide(label, config, **spec))


def _factories(seed=1, broken=False, **spec):
    spec = {**SPEC, **spec}
    make_b = broken_factory if broken else side_factory
    return (
        oracle_factory("reference", _config(seed=seed), **spec),
        make_b("fast", _config(seed=seed), **spec),
    )


@pytest.fixture
def broken_side_b(monkeypatch):
    """``repro diverge`` builds side B (``--vs-config``) broken."""
    real = lockstep.side_factory

    def factory(label, config, **spec):
        make = real(label, config, **spec)
        if label == "a":
            return make
        return lambda: break_allocators(make())

    monkeypatch.setattr(lockstep, "side_factory", factory)


# ---------------------------------------------------------------------------
# library API


class TestFindDivergence:
    def test_ref_vs_fast_identical_without_bug(self):
        make_a, make_b = _factories()
        assert find_divergence(make_a, make_b, every=64) is None

    def test_injected_off_by_one_is_pinpointed(self):
        make_a, make_b = _factories(broken=True)
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
        assert report["side_a"]["label"] == "reference"
        assert report["side_b"]["label"] == "fast"
        assert report["trace_a"] and report["trace_b"]

    def test_coarse_and_fine_agree_on_cycle(self):
        coarse = find_divergence(*_factories(broken=True), every=64)
        fine = find_divergence(*_factories(broken=True), every=1)
        assert coarse["cycle"] == fine["cycle"]
        assert coarse["components"] == fine["components"]

    def test_run_lockstep_stride_brackets_divergence(self):
        make_a, make_b = _factories(broken=True)
        window = run_lockstep(make_a(), make_b(), every=64)
        exact = find_divergence(*_factories(broken=True), every=1)["cycle"]
        assert window is not None
        assert window.last_match < exact <= window.cycle


def k_match(key):
    return "switch_alloc.input_arbiters" in key and key.endswith("pointer")


class TestLockstepSides:
    def test_side_state_matches_standalone_run(self):
        """A lockstep side's pid windowing reproduces a fresh process."""
        side = oracle_factory("probe", _config(), **SPEC)()
        for _ in range(50):
            side.step()
        probe = side.digest()["root"]

        other = LockstepSide("other", _config(), **SPEC)
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
        with reference_core():
            run_simulation(_config(seed=seed), digest=recorder, **SPEC)
        return path

    def test_matching_stream_is_identical(self, tmp_path):
        path = self._record(tmp_path)
        stream = read_digest_stream(path)
        side = LockstepSide("live", _config(), **SPEC)
        assert run_vs_stream(side, stream) is None

    def test_bugged_live_run_diverges_from_stream(self, tmp_path):
        path = self._record(tmp_path)
        stream = read_digest_stream(path)
        side = break_allocators(LockstepSide("live", _config(), **SPEC))
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


def _vs_config_args(tmp_path):
    cfg = str(tmp_path / "cfg.json")
    _config().save(cfg)
    return CLI_ARGS + ["--vs-config", cfg]


class TestDivergeCLI:
    def test_identical_configs_exit_zero(self, tmp_path):
        code, text = run_cli(*_vs_config_args(tmp_path))
        assert code == 0
        assert "IDENTICAL" in text

    def test_nothing_to_compare_exits_two(self):
        code, text = run_cli(*CLI_ARGS)
        assert code == 2
        assert "--vs-config" in text and "--vs-digests" in text

    def test_bug_is_reported_with_exit_one(self, tmp_path, broken_side_b):
        report_path = str(tmp_path / "report.json")
        code, text = run_cli(*_vs_config_args(tmp_path),
                             "--report", report_path)
        assert code == 1
        assert "DIVERGED" in text
        assert "router[" in text
        assert "pointer" in text

        with open(report_path) as fh:
            report = json.load(fh)
        assert report["verdict"] == "diverged"
        assert report["last_match_cycle"] == report["cycle"] - 1
        assert all(p.startswith("router[") for p in report["components"])

    def test_json_output(self, tmp_path, broken_side_b):
        code, text = run_cli(*_vs_config_args(tmp_path), "--json")
        assert code == 1
        report = json.loads(text)
        assert report["verdict"] == "diverged"

    def test_vs_digests_cli(self, tmp_path):
        """A stream recorded on the oracle replays on the production core."""
        digest_path = str(tmp_path / "ref.jsonl")
        # In-process CLI: pids continue from earlier tests unless reset;
        # a standalone `repro run` process starts at 0, which is what
        # the lockstep side reproduces.
        flitmod.set_next_packet_id(0)
        with reference_core():
            code, _ = run_cli(
                "run", "--mesh-k", "4", "--chaining", "any_input",
                "--seed", "1", "--rate", "0.3", "--warmup", "100",
                "--measure", "300", "--drain", "200",
                "--digest", digest_path, "--digest-every", "32",
            )
        assert code == 0
        code, text = run_cli(*CLI_ARGS, "--vs-digests", digest_path)
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
