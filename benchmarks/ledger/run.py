#!/usr/bin/env python3
"""Cost ledger: one command that prints every metric and checks outputs.

Driver form (one workload, one pass; last stdout line is the result)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

Whole ledger (each workload in a fresh subprocess, one JSON out)::

    PYTHONPATH=src python benchmarks/ledger/run.py [--seed N] [--traced]
    python benchmarks/ledger/run.py --compare A.json B.json

``--trace 0`` is the untraced pass and yields the end-to-end metrics;
``--trace 1`` is the separate traced pass (units of a third the length)
and yields the per-layer metrics. Metric names, units and bounds are
read from ``BENCHMARK.json``; see README.md beside this file.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, ".work")
GOLDEN = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 1
#: Hard limit of one workload pass; the driver allows 180 s.
HARD_TIMEOUT_S = 170
MIN_UNITS = 3
SETUP_REPEATS = 5


def load_spec():
    """BENCHMARK.json: the one place metric names, units, bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bootstrap():
    """Make ``repro`` and the harness modules importable, here and in
    every child process (pool workers, shard workers, set-up probes)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"ledger: no simulator source at {src}; run from a "
                 f"checkout of the repository")
    for path in (HERE, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + ([inherited] if inherited else []))


def host_info():
    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def peak_rss_mb():
    """Max RSS of this process and of its reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def summary(samples):
    """Median with min, max and n (with n < 11 no percentile
    qualifies, so max is the stated spread)."""
    return {"value": statistics.median(samples), "min": min(samples),
            "max": max(samples), "n": len(samples),
            "samples": list(samples)}


def cold_setup_s(workload_name, seed, scale):
    """Set-up seconds in a fresh interpreter (setup_probe.py)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"),
         workload_name, str(seed), repr(scale)],
        capture_output=True, text=True, timeout=HARD_TIMEOUT_S, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# golden fingerprints

def check_golden(path, name, seed, scale, records, update=False):
    """``ok`` / ``mismatch`` / ``missing`` / ``skipped`` / ``updated``.

    Goldens exist for one (seed, scale); any other run is ``skipped``.
    ``update`` rewrites the entry and is the only way the file changes.
    """
    from workloads import FINGERPRINT_FIELDS, fingerprint

    golden = {"seed": seed, "scale": scale, "workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            golden = json.load(fh)
    same_run = golden.get("seed") == seed and golden.get("scale") == scale
    if update:
        if not same_run:
            golden = {"seed": seed, "scale": scale, "workloads": {}}
        golden["fields"] = list(FINGERPRINT_FIELDS)
        golden["workloads"][name] = {
            "sha256": fingerprint(records), "records": records,
        }
        with open(path, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return "updated"
    if not same_run:
        return "skipped"
    entry = golden.get("workloads", {}).get(name)
    if entry is None:
        return "missing"
    return "ok" if entry.get("sha256") == fingerprint(records) else "mismatch"


# ---------------------------------------------------------------------------
# the untraced pass (the traced one is layers.layers_pass)

def end_to_end_pass(workload, seed, seconds, scale, workdir, golden_path,
                    update_golden=False):
    """Untraced pass: set-up, warm-up, timed units, oracle, golden."""
    from workloads import collect_failures, fingerprint, timed_units

    inputs = workload.inputs(seed, scale)
    cold_setup_s(workload.name, seed, scale)  # discarded: fills the page cache
    setup = [cold_setup_s(workload.name, seed, scale)
             for _ in range(SETUP_REPEATS)]
    # One discarded pass at 10 % length: DOR memo tables, allocator
    # tables, fork machinery.
    workload.run_unit(workload.inputs(seed, scale * 0.1), workdir)
    units = timed_units(lambda: workload.run_unit(inputs, workdir),
                        seconds, MIN_UNITS)
    ops, failures = collect_failures(units)
    first = units[0][1]
    oracle_ops, oracle_failures, _ = workload.oracle(inputs, first, workdir)
    ops += oracle_ops
    failures += oracle_failures
    golden = check_golden(golden_path, workload.name, seed, scale,
                          first.records, update_golden)
    if golden in ("mismatch", "missing"):
        failures.append(f"golden fingerprint {golden} for seed {seed}")
    failed = min(len(failures), ops)
    walls = [wall for wall, _ in units]
    rates = [outcome.cycles / wall for wall, outcome in units]
    metrics = {
        "sim_cycles_per_s": summary(rates),
        "wall_s": summary(walls),
        "setup_s": summary(setup),
        "peak_rss_mb": summary([peak_rss_mb()]),
        "sim_throughput": summary([o.sim_throughput for _, o in units]),
    }
    return {
        "inputs": workload.describe(inputs),
        "units": len(units), "cycles_per_unit": first.cycles,
        "ops": ops, "failed_ops": failed,
        "failed_share": failed / ops if ops else 1.0,
        "failures": failures, "golden": golden,
        "fingerprint": fingerprint(first.records),
        # Exact for a seed, but too seed-sensitive at saturation for any
        # bound BENCHMARK.json may state, so it rides beside the bounded
        # metrics (README: "End-to-end metrics").
        "sim_latency_cycles": first.sim_latency_cycles,
        "end_to_end": metrics,
    }


# ---------------------------------------------------------------------------
# one workload pass = the driver's contract

def named_metrics(spec_list, values, reasons, workload_name):
    """Exactly the metrics BENCHMARK.json names, each once."""
    unnamed = sorted(set(values) - {m["name"] for m in spec_list})
    if unnamed:
        raise RuntimeError(f"harness produced unnamed metrics: {unnamed}")
    out = {}
    for metric in spec_list:
        name = metric["name"]
        entry = {"unit": metric["unit"]}
        value = values.get(name)
        if isinstance(value, dict):
            entry.update(value)
        else:
            entry["value"] = value
        if entry["value"] is None:
            entry["reason"] = reasons.get(
                name, f"does not apply to {workload_name}")
        out[name] = entry
    return out


def print_metrics(title, metrics):
    print(f"# {title}")
    for name, entry in metrics.items():
        value = entry["value"]
        if value is None:
            print(f"{name:44s} null  ({entry['reason']})")
            continue
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        extra = ""
        if "n" in entry:
            extra = (f"  (min {entry['min']:.6g} max {entry['max']:.6g} "
                     f"n={entry['n']})")
        print(f"{name:44s} {text} {entry['unit']}{extra}")


def run_workload(args, spec):
    """One workload, one pass; prints the table and the result line."""
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"ledger: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)

    def on_timeout(_signum, _frame):
        raise TimeoutError(f"pass exceeded {HARD_TIMEOUT_S} s")

    signal.signal(signal.SIGALRM, on_timeout)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        if args.trace:
            from layers import layers_pass

            result = layers_pass(workload, args.seed, args.seconds,
                                 args.scale, workdir)
            layers = result.pop("layers")
            key, section = "per_layer", named_metrics(
                spec["per_layer"], layers.values, layers.reasons,
                workload.name)
        else:
            result = end_to_end_pass(
                workload, args.seed, args.seconds, args.scale, workdir,
                args.golden, args.update_golden)
            key, section = "end_to_end", named_metrics(
                spec["end_to_end"], result.pop("end_to_end"), {},
                workload.name)
    finally:
        signal.alarm(0)
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    result[key] = section
    result.update(workload=workload.name, seed=args.seed, scale=args.scale,
                  seconds=args.seconds, trace=int(args.trace),
                  nproc=os.cpu_count())
    print_metrics(f"{workload.name} seed={args.seed} trace={int(args.trace)}"
                  f" ({key})", section)
    for name, value in sorted(result.get("info", {}).items()):
        print(f"# {name} = {value}")
    if "sim_latency_cycles" in result:
        print(f"# sim_latency_cycles = {result['sim_latency_cycles']:.6g} "
              f"cycles (simulated, exact for the seed)")
    print(f"# ops={result['ops']} failed_ops={result['failed_ops']} "
          f"failed_share={result['failed_share']:.6g} "
          f"golden={result.get('golden', 'n/a')}")
    for line in result["failures"]:
        print(f"# FAILED: {line}")
    out_path = args.out or os.path.join(
        WORK, f"{workload.name}-trace{int(args.trace)}.json")
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    # The driver's line: numbers only, so a metric that is null in the
    # JSON (not applicable / hook missing) reads 0 here.
    print(json.dumps({
        "correct": result["failed_ops"] == 0,
        "attempted": result["ops"],
        "failed": result["failed_ops"],
        "metrics": {
            name: {"value": 0 if e["value"] is None else e["value"],
                   "unit": e["unit"]}
            for name, e in section.items()
        },
    }))
    return 1 if result["failed_ops"] else 0


def reap_children():
    """No pool or shard worker outlives the pass, also on failure."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()


# ---------------------------------------------------------------------------
# the whole ledger

def run_ledger(args, spec):
    """Every workload in its own fresh subprocess; one JSON out."""
    os.makedirs(WORK, exist_ok=True)
    ledger = dict(host_info(), schema=1, seed=args.seed, scale=args.scale,
                  seconds=args.seconds, workloads={})
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        merged = {}
        for trace in ([0, 1] if args.traced else [0]):
            out_path = os.path.join(WORK, f"{name}-trace{trace}.json")
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", repr(args.scale), "--golden", args.golden,
                   "--out", out_path]
            if args.update_golden and not trace:
                cmd.append("--update-golden")
            code = run_isolated(cmd, HARD_TIMEOUT_S + 10)
            if code != 0:
                status = 1
            if code in (0, 1) and os.path.exists(out_path):
                with open(out_path) as fh:
                    merged[f"trace{trace}"] = json.load(fh)
            else:
                merged[f"trace{trace}"] = {"error": f"exit code {code}"}
        ledger["workloads"][name] = merged
    out_path = args.out or os.path.join(WORK, f"ledger-seed{args.seed}.json")
    with open(out_path, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"# ledger written to {os.path.relpath(out_path)}")
    return status


def run_isolated(cmd, timeout):
    """Run a workload subprocess in its own process group; on timeout
    the whole group (its pool / shard workers too) is killed."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException as exc:  # timeout, Ctrl-C: leave nothing behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            return -9
        raise


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver form)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window of one pass "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end pass, 1: traced per-layer pass")
    parser.add_argument("--traced", action="store_true",
                        help="whole ledger: also run the traced passes; "
                             "with --workload: same as --trace 1")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every cycle count (self-tests)")
    parser.add_argument("--golden", default=GOLDEN)
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--out", help="where to write the JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--markdown", help="with --compare: also render "
                                           "the ledger table to this file")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    bootstrap()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.compare:
        import report

        return report.compare(args.compare[0], args.compare[1], spec,
                              args.markdown)
    if args.workload:
        args.trace = args.trace or int(args.traced)
        return run_workload(args, spec)
    return run_ledger(args, spec)


if __name__ == "__main__":
    sys.exit(main())
