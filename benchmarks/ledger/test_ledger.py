"""Self-tests of the ledger harness (run explicitly, not tier-1)::

    python -m pytest benchmarks/ledger/test_ledger.py -q

They call the workload functions with tiny cycle counts, so they check
the harness — names, arithmetic, determinism, the golden gate — not
the numbers.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers as L  # noqa: E402
import report  # noqa: E402
import run as ledger  # noqa: E402
from spans import SpanLog  # noqa: E402
from workloads import (  # noqa: E402
    FINGERPRINT_FIELDS,
    WORKLOADS,
    sim_record,
)

TINY = 0.05
SPEC = ledger.load_spec()


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    return proc.returncode, proc.stdout


def printed_metrics(stdout):
    return [line.split()[0] for line in stdout.splitlines()
            if line and line[0] not in "#{"]


# --- BENCHMARK.json ---------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128


# --- every named metric printed once, nothing unnamed -----------------------

@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_named_metrics_printed_exactly_once(name, trace, tmp_path):
    code, stdout = run_cli(
        "--workload", name, "--seed", "7", "--seconds", "0", "--scale",
        str(TINY), "--trace", str(trace), "--out", str(tmp_path / "o.json"))
    assert code == 0, stdout
    key = "per_layer" if trace else "end_to_end"
    expected = [m["name"] for m in SPEC[key]]
    assert printed_metrics(stdout) == expected
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    for metric, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == units[metric]
        assert isinstance(entry["value"], (int, float))
    assert "golden=skipped" in stdout or trace == 1
    written = json.loads((tmp_path / "o.json").read_text())
    assert written["workload"] == name and written["nproc"] >= 1
    for entry in written[key].values():
        assert entry["value"] is not None or entry["reason"]


def test_unnamed_metric_is_a_harness_error():
    with pytest.raises(RuntimeError, match="unnamed"):
        ledger.named_metrics(SPEC["per_layer"], {"made.up": 1.0}, {}, "w")


# --- span arithmetic ----------------------------------------------------------

@pytest.mark.parametrize("name", ["mesh8-chain-sat",
                                  "fbfly4-wavefront-bimodal",
                                  "mesh8-faults-reliable"])
def test_span_arithmetic(name):
    workload = WORKLOADS[name]
    log, result, counters, module = L.traced_unit(
        workload, workload.inputs(3, TINY))
    assert not log.missing
    total = log.total("sim.runner")
    assert total > 0
    selfs = {}
    for span in log.names():
        own, kids = log.total(span), log.children_total(span)
        assert kids <= own + 1e-9, span  # children <= parent
        selfs[span] = log.self_time(span)
        assert selfs[span] >= -1e-9, span  # self >= 0
        assert 100.0 * own / total <= 100.0 + 1e-6, span  # share <= 100 %
    # Self times partition the root span.
    assert sum(selfs.values()) == pytest.approx(total, rel=1e-6)
    cycles = result.cycles_run
    assert log.calls("network.step") == cycles
    assert log.calls("traffic.generate") == cycles
    net, _injector = workload.construct(workload.inputs(3, TINY))[0]
    assert log.calls("router.step") == cycles * len(net.routers)
    if name == "fbfly4-wavefront-bimodal":
        assert log.calls("allocators.pc") == 0  # chaining disabled
    layers = L.Layers()
    L.span_layers(layers, log)
    L.simulated_layers(layers, result, counters, packets=1)
    assert all(v is not None for v in layers.values.values())
    assert module.startswith("repro.")


def test_wrappers_are_removed_and_missing_hooks_degrade():
    class Thing:
        def work(self):
            return 42

    thing, log = Thing(), SpanLog()
    assert log.wrap(thing, "work", "t.work")
    assert not log.wrap(thing, "gone", "t.gone")
    assert not log.wrap_path(thing, "inner.allocate", "t.inner")
    assert thing.work() == 42 and "work" in vars(thing)
    log.unwrap_all()
    assert "work" not in vars(thing)
    assert log.calls("t.work") == 1
    assert log.calls("t.gone") is None and log.total("t.inner") is None
    assert "gone" in log.missing["t.gone"]

    layers = L.Layers()

    def broken():
        raise TypeError("ExperimentService signature changed")

    layers.guarded(("serve.dispatch_ms_per_job",), "serve probe", broken)
    assert layers.values["serve.dispatch_ms_per_job"] is None
    assert "signature changed" in layers.reasons["serve.dispatch_ms_per_job"]
    named = ledger.named_metrics(
        [m for m in SPEC["per_layer"]
         if m["name"] == "serve.dispatch_ms_per_job"],
        layers.values, layers.reasons, "w")
    assert named["serve.dispatch_ms_per_job"]["reason"]


# --- determinism and generated inputs ---------------------------------------

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_simulation_other_seed_other_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.inputs(5, TINY)
    first = workload.run_unit(inputs, str(tmp_path))
    again = workload.run_unit(workload.inputs(5, TINY), str(tmp_path))
    assert not first.failures and not again.failures
    assert first.records == again.records
    assert first.sim_throughput == again.sim_throughput
    assert first.sim_latency_cycles == again.sim_latency_cycles
    for record in first.records:
        assert set(record) == set(FINGERPRINT_FIELDS) | {"label"}
    other = workload.inputs(6, TINY)
    assert workload.describe(other) != workload.describe(inputs)
    json.dumps(workload.describe(inputs))  # the inputs are plain data


def test_oracles_pass_on_tiny_runs(tmp_path):
    for name in ("mesh8-faults-reliable", "mesh8-shard2"):
        workload = WORKLOADS[name]
        inputs = workload.inputs(5, TINY)
        outcome = workload.run_unit(inputs, str(tmp_path))
        ops, failures, _ = workload.oracle(inputs, outcome, str(tmp_path))
        assert ops == 1 and failures == []


def test_fingerprint_ignores_fields_added_later():
    class Latency:
        count, mean, p99 = 3, 1.5, 2.0

    class Chains:
        same_input_same_vc = same_input_other_vc = other_input = 1
        conflicts = speculation_failures = 0

    class Result:
        avg_throughput = min_throughput = 0.25
        packet_latency, chain_stats = Latency, Chains
        cycles_run, faults = 10, None

    before = sim_record(Result)
    Result.some_new_field = 123
    assert sim_record(Result) == before


# --- the golden gate ----------------------------------------------------------

def test_corrupted_golden_fails_the_run(tmp_path):
    golden = tmp_path / "golden.json"
    common = ("--workload", "mesh8-chain-sat", "--seed", "1", "--seconds",
              "0", "--scale", str(TINY), "--golden", str(golden),
              "--out", str(tmp_path / "o.json"))
    code, stdout = run_cli(*common, "--update-golden")
    assert code == 0 and "golden=updated" in stdout
    code, stdout = run_cli(*common)
    assert code == 0 and "golden=ok" in stdout
    code, stdout = run_cli(*common[:3], "2", *common[4:])
    assert code == 0 and "golden=skipped" in stdout
    data = json.loads(golden.read_text())
    data["workloads"]["mesh8-chain-sat"]["sha256"] = "0" * 64
    golden.write_text(json.dumps(data))
    code, stdout = run_cli(*common)
    assert code != 0 and "golden=mismatch" in stdout
    line = json.loads(stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
    written = json.loads((tmp_path / "o.json").read_text())
    assert written["failed_share"] > 0


def test_missing_source_tree_exits_nonzero(tmp_path):
    """A directory with only BENCHMARK.json + the harness: no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "mesh8-chain-sat", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# --- --compare ------------------------------------------------------------------

def _entry(value, low=None, high=None):
    low = value if low is None else low
    high = value if high is None else high
    return {"value": value, "min": low, "max": high, "n": 5,
            "samples": [low, low, value, high, high]}


def test_compare_verdicts():
    higher = {"name": "sim_cycles_per_s", "better": "higher", "bound": 0.10}
    lower = {"name": "wall_s", "better": "lower", "bound": 0.10}
    assert report.verdict(_entry(100), _entry(95), higher)[1] == "ok"
    assert report.verdict(_entry(100), _entry(85), higher)[1] == "worse"
    assert report.verdict(_entry(100), _entry(130), higher)[1] == "ok"
    assert report.verdict(_entry(2.0), _entry(2.3), lower)[1] == "worse"
    assert report.verdict(_entry(2.0), _entry(1.0), lower)[1] == "ok"
    noisy = _entry(100, 80, 120)
    assert report.verdict(noisy, _entry(99), higher)[1] == "unresolved"
    # ... unless every run of B beats every run of A.
    assert report.verdict(noisy, _entry(150, 140, 160), higher)[1] == "ok"
    exact = {"name": "sim_throughput", "better": "higher", "bound": 0.0}
    assert report.verdict(_entry(0.43), _entry(0.43), exact)[1] == "ok"
    assert report.verdict(_entry(0.43), _entry(0.42), exact)[1] == "worse"


def test_compare_exit_status_and_markdown(tmp_path, capsys):
    def ledger_with(rate, failed_share=0.0):
        passes = {
            "trace0": {"failed_share": failed_share,
                       "sim_latency_cycles": 40.0, "end_to_end": {
                m["name"]: dict(_entry(rate), unit=m["unit"])
                for m in SPEC["end_to_end"]}},
            "trace1": {"per_layer": {
                m["name"]: {"value": 1.0, "unit": m["unit"]}
                for m in SPEC["per_layer"]}},
        }
        return {"host": "h", "nproc": 2, "python": "3", "commit": "c",
                "seed": 1, "seconds": 15,
                "workloads": {w["name"]: passes for w in SPEC["workloads"]}}

    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(ledger_with(100.0)))
    b.write_text(json.dumps(ledger_with(100.0)))
    c.write_text(json.dumps(ledger_with(100.0, failed_share=0.5)))
    table = tmp_path / "ledger.md"
    assert report.compare(str(a), str(b), SPEC, str(table)) == 0
    text = table.read_text()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"| {metric['name']} |" in text
    assert "failed_share" in text and "sim_latency_cycles" in text
    assert "nproc" in text
    assert report.compare(str(a), str(c), SPEC) == 1
    assert "worse" in capsys.readouterr().out
