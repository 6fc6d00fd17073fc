"""Checked-in golden outputs of the simulation core.

The equivalence suite (``test_fastcore_equivalence.py``) compares the
production router with the test oracle in ``tests/reference_core.py``.
The oracle inherits construction, checkpoint layout, the fault pre-pass,
starvation releases, split VC allocation and all network wiring from the
production classes, so a change there moves both sides together and the
comparison cannot see it. These goldens pin the outputs themselves: for
every case the SHA-256 of the ``SimResult`` JSON, of the metrics export,
and the final digest Merkle root.

The cases are the equivalence matrix (3 seeds x 4 configs at k=4, the
k=8 chained run, the threshold-8 run), one run per same-VC / same-input
chaining config (k=4 same-VC; k=4 same-input with bimodal 1/5-flit
packets and threshold 8; the Section 4.7 ablation, same-input without PC
priorities; the radix-10 FBFly 2x2 c=8 with a PIM PC allocator), one
k=4 any-input run per router mode the oracle inherits from production
(AGE starvation control with bimodal 1/5-flit packets at rate 0.8;
pseudo-circuit release; split and speculative VC allocation), the k=4
any-input run at rate 0.4 drained for 1,000 cycles (which a 5 % artifact
diff against a checked-in baseline used to gate) and the faulted 8x8 CLI
run of the CI job. Regenerate — only for an intentional
behaviour change, and say so in the change description — with::

    PYTHONPATH=src python -m tests.test_core_goldens
"""

import hashlib
import io
import json
import os
import tempfile

import pytest

from repro.cli import main
from repro.network import flit as flitmod
from repro.network.config import fbfly_config, mesh_config
from repro.obs.digest import DigestRecorder, read_digest_stream
from repro.obs.metrics import MetricsRegistry
from repro.sim.runner import run_simulation
from repro.traffic import BimodalLength

GOLDENS = os.path.join(os.path.dirname(__file__), "data", "core_goldens.json")

FAULT_PLAN = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                          "faultplan.json")

RUN = dict(pattern="uniform", rate=0.3, warmup=100, measure=300, drain=200)

MATRIX = {
    "islip1": dict(allocator="islip1", chaining="disabled"),
    "islip1+chain": dict(allocator="islip1", chaining="any_input"),
    "wavefront": dict(allocator="wavefront", chaining="disabled"),
    "wavefront+chain": dict(allocator="wavefront", chaining="any_input"),
}

#: The CI job's faulted 8x8 run (``repro run`` flags).
FAULTED_ARGS = [
    "run", "--mesh-k", "8", "--rate", "0.2", "--chaining", "any_input",
    "--warmup", "300", "--measure", "900", "--drain", "8000",
    "--faults", FAULT_PLAN, "--reliable", "--invariants", "strict",
]


def _sha256(obj):
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def cases():
    """``{name: (config, run spec)}`` of the in-process cases."""
    out = {}
    for label, fields in MATRIX.items():
        for seed in (1, 2, 3):
            out[f"k4-{label}-s{seed}"] = (
                mesh_config(mesh_k=4, seed=seed, **fields), RUN)
    out["k8-any_input-s2"] = (
        mesh_config(mesh_k=8, seed=2, chaining="any_input"), RUN)
    out["k4-any_input-threshold8-s1"] = (mesh_config(
        mesh_k=4, seed=1, chaining="any_input", starvation_threshold=8), RUN)
    out["k4-same_vc-s1"] = (
        mesh_config(mesh_k=4, seed=1, chaining="same_vc"), RUN)
    out["k4-same_input-bimodal-threshold8-s1"] = (
        mesh_config(mesh_k=4, seed=1, chaining="same_input",
                    starvation_threshold=8),
        dict(RUN, lengths=BimodalLength(1, 5)))
    # Section 4.7's ablation at its injection rate.
    out["k4-same_input-no_pc_priorities-s1"] = (
        mesh_config(mesh_k=4, seed=1, chaining="same_input",
                    pc_priorities=False),
        dict(RUN, rate=1.0))
    out["fbfly2x2c8-same_input-pim-s1"] = (
        fbfly_config(fbfly_rows=2, fbfly_cols=2, fbfly_concentration=8,
                     seed=1, chaining="same_input", pc_allocator="pim"),
        RUN)
    # Router modes the oracle reuses from production (_forced_releases,
    # _competing_waiter, _split_vc_allocation): only a golden sees them.
    out["k4-any_input-age2-bimodal-s1"] = (
        mesh_config(mesh_k=4, seed=1, chaining="any_input", age_period=2),
        dict(RUN, rate=0.8, lengths=BimodalLength(1, 5)))
    out["k4-any_input-pseudo_circuit-s1"] = (
        mesh_config(mesh_k=4, seed=1, chaining="any_input",
                    pseudo_circuit_release=True), RUN)
    for mode in ("split", "speculative"):
        out[f"k4-any_input-{mode}_va-s1"] = (
            mesh_config(mesh_k=4, seed=1, chaining="any_input",
                        vc_allocation=mode), RUN)
    out["k4-any_input-rate0.4-drain1000-s1"] = (
        mesh_config(mesh_k=4, seed=1, chaining="any_input"),
        dict(RUN, rate=0.4, warmup=200, measure=500, drain=1000))
    return out


def run_outputs(config, run):
    """Golden record of one in-process run."""
    flitmod.set_next_packet_id(0)
    registry = MetricsRegistry()
    recorder = DigestRecorder(every=64)
    result = run_simulation(config, metrics=registry, probes=[recorder],
                            **run)
    return {
        "result_sha256": _sha256(result.to_dict()),
        "metrics_sha256": _sha256(registry.to_dict()),
        "digest_root": recorder.records[-1]["root"],
    }


def faulted_outputs():
    """Golden record of the faulted CLI run (``--json`` + ``--digest``)."""
    with tempfile.TemporaryDirectory(prefix="core-golden-") as tmp:
        path = os.path.join(tmp, "digests.jsonl")
        out = io.StringIO()
        flitmod.set_next_packet_id(0)  # a fresh process starts at 0
        assert main(FAULTED_ARGS + ["--json", "--digest", path],
                    out=out) == 0
        payload = json.loads(out.getvalue())
        stream = read_digest_stream(path)
        root = stream.records[max(stream.cycles())]["root"]
    metrics = payload.pop("metrics")
    payload.pop("digest")  # names the temporary stream path
    return {
        "result_sha256": _sha256(payload),
        "metrics_sha256": _sha256(metrics),
        "digest_root": root,
    }


def generate():
    goldens = {name: run_outputs(*case) for name, case in cases().items()}
    goldens["faulted-k8-cli"] = faulted_outputs()
    return goldens


def _load():
    with open(GOLDENS) as fh:
        return json.load(fh)


def test_goldens_cover_every_case():
    assert set(_load()) == set(cases()) | {"faulted-k8-cli"}


@pytest.mark.parametrize("name", sorted(cases()))
def test_core_matches_golden(name):
    assert run_outputs(*cases()[name]) == _load()[name]


def test_faulted_cli_run_matches_golden():
    assert faulted_outputs() == _load()["faulted-k8-cli"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDENS), exist_ok=True)
    with open(GOLDENS, "w") as fh:
        json.dump(generate(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDENS}")
