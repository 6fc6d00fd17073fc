"""Continuous benchmarking: the ``repro bench`` trend gate.

A standardized step-throughput suite — a fixed (topology x allocator x
size) grid with fixed seeds — measures host cycles/sec per case with
one discarded warmup repeat plus N timed repeats (median taken, so one
scheduler hiccup cannot fake a regression). Every invocation appends
one entry to a per-host history file (``BENCH_<host>.json``), building
the cycles/sec trajectory across commits.

Cross-machine comparability comes from a *calibration score*: a fixed
pure-Python spin workload is timed alongside the suite, and each
case's cycles/sec is also recorded normalized by that score
(simulated-cycles per calibration-op). Two hosts with different raw
speeds produce comparable normalized values, so a checked-in baseline
from one machine can gate CI runs on another.

``compare_entries`` implements the gate: any case whose normalized
cycles/sec drops more than ``threshold`` percent against the reference
(the per-case *median over the history*, robust to one bad entry) is a
regression, and the CLI exits non-zero — the perf-trend counterpart of
``repro diff``'s per-run artifact gate.
"""

import dataclasses
import json
import os
import platform
import socket
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.network.config import NetworkConfig
from repro.obs.artifacts import atomic_write
from repro.sim.runner import run_simulation

#: History schema version (bump on incompatible layout changes).
SCHEMA = 1

#: Spin iterations per calibration repeat (fixed workload).
CALIBRATION_OPS = 200_000


@dataclass
class BenchCase:
    """One standardized grid point of the suite."""

    name: str
    topology: str
    mesh_k: int
    allocator: str
    chaining: str
    rate: float
    warmup: int
    measure: int
    seed: int = 1
    #: Digest stride (``--digest-every``); None runs digest-free. A
    #: digesting case measures the observability tax of the lockstep
    #: microscope's state hashing, gated like any other case.
    digest_every: Optional[int] = None

    def config(self):
        routing = "ugal" if self.topology == "fbfly" else "dor"
        return NetworkConfig(
            topology=self.topology, mesh_k=self.mesh_k, routing=routing,
            allocator=self.allocator, pc_allocator="islip1",
            chaining=self.chaining, seed=self.seed,
        )


@dataclass
class ServeBenchCase(BenchCase):
    """A dispatch-inclusive grid point: one job per rate through
    :class:`repro.serve.ExperimentService` (fresh root, fork workers).

    Its cycles/sec includes every service cost — journal fsyncs, worker
    forks, heartbeat supervision, cache publication — so a regression
    in the scheduler shows up on this trend line while the plain
    simulation cases stay flat. ``benchmarks/test_serve_overhead.py``
    is the corresponding hard gate.
    """

    rates: tuple = (0.1, 0.2, 0.3, 0.35)
    workers: int = 2


@dataclass
class ShardBenchCase(BenchCase):
    """A sharded-run grid point: the same simulation executed by
    :func:`repro.parallel.shard_run` across ``shards`` row-band worker
    processes with conservative-lookahead boundary synchronization.

    Its cycles/sec includes the whole sharded runtime — fork, heartbeat
    supervision, window-cadence checkpoints, boundary exchange fsyncs
    and the final merge — and the measured entry additionally splits
    the overhead into ``exchange_seconds`` (boundary wait + publish)
    and ``dispatch_seconds`` (everything the coordinator adds beyond
    per-shard busy time), so a regression names its layer. The 1-shard
    case isolates the supervision + checkpoint tax from boundary
    synchrony, which only the multi-shard cases pay.
    """

    shards: int = 2


def default_suite(quick=False, scale=1.0):
    """The standardized suite: a topology x allocator x size grid.

    ``quick`` is the CI-sized subset; ``scale`` multiplies every phase
    length (tests shrink it, publication runs stretch it). Case names
    are stable identifiers — history comparison joins on them.
    """

    def cycles(warmup, measure):
        return max(50, int(warmup * scale)), max(100, int(measure * scale))

    def case(name, topology, mesh_k, allocator, chaining, rate,
             warmup, measure):
        w, m = cycles(warmup, measure)
        return BenchCase(name, topology, mesh_k, allocator, chaining, rate,
                         w, m)

    quick_cases = [
        case("mesh4-islip1-chain", "mesh", 4, "islip1", "any_input",
             0.4, 200, 800),
        case("mesh4-wavefront", "mesh", 4, "wavefront", "disabled",
             0.4, 200, 800),
        case("torus4-islip1-chain", "torus", 4, "islip1", "any_input",
             0.4, 200, 800),
        # Digest-overhead probe: same grid point as mesh4-islip1-chain
        # but hashing whole-network state every 64 cycles. Its trend
        # line bounds the lockstep microscope's observability tax.
        dataclasses.replace(
            case("mesh4-islip1-digest64", "mesh", 4, "islip1", "any_input",
                 0.4, 200, 800),
            digest_every=64,
        ),
        # Service-dispatch probe: the same mesh-4 grid point run as four
        # jobs through the experiment service, tracking scheduler +
        # journal + cache overhead as a trend line.
        ServeBenchCase("serve-dispatch", "mesh", 4, "islip1", "disabled",
                       0.3, *cycles(200, 800)),
        # Shard-scaling probe: one mesh-4 grid point executed by the
        # sharded runtime at 1, 2 and 4 row-band shards. The trio's
        # trend lines track the crash-tolerant runtime's cost: the
        # 1-shard case moves when supervision/checkpointing regresses,
        # the wider cases when boundary exchange does.
        ShardBenchCase("shard-scaling-1", "mesh", 4, "islip1", "disabled",
                       0.3, *cycles(100, 400), shards=1),
        ShardBenchCase("shard-scaling-2", "mesh", 4, "islip1", "disabled",
                       0.3, *cycles(100, 400), shards=2),
        ShardBenchCase("shard-scaling-4", "mesh", 4, "islip1", "disabled",
                       0.3, *cycles(100, 400), shards=4),
    ]
    if quick:
        return quick_cases
    full_cases = [
        case("mesh8-islip1-chain", "mesh", 8, "islip1", "any_input",
             0.4, 300, 1200),
        case("mesh8-islip1", "mesh", 8, "islip1", "disabled",
             0.4, 300, 1200),
        case("mesh8-wavefront-chain", "mesh", 8, "wavefront", "any_input",
             0.4, 300, 1200),
        case("fbfly8-islip1-chain", "fbfly", 8, "islip1", "any_input",
             0.3, 300, 1200),
        case("cmesh8-islip1-chain", "cmesh", 8, "islip1", "any_input",
             0.3, 300, 1200),
    ]
    return quick_cases + full_cases


# ---------------------------------------------------------------------------
# measurement


def calibration_score(repeats=3):
    """Host speed on a fixed pure-Python workload, in ops/sec.

    Uses the best (fastest) repeat: calibration should capture what the
    host *can* do, not what a noisy neighbour let it do this instant.
    """
    best = float("inf")
    for _ in range(repeats):
        acc = 0
        start = time.perf_counter()
        for i in range(CALIBRATION_OPS):
            acc = (acc + i * 31) % 1_000_003
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return CALIBRATION_OPS / best if best > 0 else 0.0


def run_case(case, repeats=3):
    """Measure one case: warmup repeat discarded, median of the rest.

    Returns ``{"cycles_per_sec", "cycles", "wall_seconds", "repeats"}``
    (raw values; normalization happens at suite level).
    """
    samples = []
    cycles_run = 0
    for i in range(repeats + 1):
        start = time.perf_counter()
        result = run_simulation(
            case.config(), rate=case.rate, warmup=case.warmup,
            measure=case.measure, drain=0, seed=case.seed,
            digest_every=case.digest_every,
        )
        elapsed = time.perf_counter() - start
        cycles_run = result.cycles_run
        if i == 0:
            continue  # warmup repeat: imports, allocator tables, caches
        samples.append(elapsed)
    wall = statistics.median(samples)
    return {
        "cycles_per_sec": cycles_run / wall if wall > 0 else 0.0,
        "cycles": cycles_run,
        "wall_seconds": wall,
        "repeats": repeats,
    }


def run_serve_case(case, repeats=3):
    """Measure one :class:`ServeBenchCase`: jobs/sec through the service.

    Each repeat gets a fresh service root (no cache hits — every job
    simulates), so the measured wall time is simulation plus the full
    dispatch path. Reported cycles are the total simulated cycles
    across the fleet; the warmup repeat is discarded as usual.
    """
    import shutil
    import tempfile

    from repro.serve import ExperimentService
    from repro.serve.spec import spec_for

    config = case.config()
    samples = []
    cycles_run = 0
    for i in range(repeats + 1):
        root = tempfile.mkdtemp(prefix="repro-bench-serve-")
        try:
            start = time.perf_counter()
            with ExperimentService(root, workers=case.workers,
                                   heartbeat_every=200) as svc:
                for rate in case.rates:
                    svc.submit(spec_for(
                        config, rate=rate, label=f"bench{rate:g}",
                        warmup=case.warmup, measure=case.measure, drain=0,
                    ))
                svc.run(once=True, max_seconds=600,
                        install_signals=False)
                records = svc.jobs
            elapsed = time.perf_counter() - start
            done = [r for r in records.values() if r.state == "done"]
            if len(done) != len(case.rates):
                raise RuntimeError(
                    f"serve bench fleet incomplete: {len(done)}/"
                    f"{len(case.rates)} done"
                )
            cycles_run = sum(
                _artifact_cycles(root, rec) for rec in done
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if i == 0:
            continue  # warmup repeat: imports, fork machinery, caches
        samples.append(elapsed)
    wall = statistics.median(samples)
    return {
        "cycles_per_sec": cycles_run / wall if wall > 0 else 0.0,
        "cycles": cycles_run,
        "wall_seconds": wall,
        "repeats": repeats,
    }


def run_shard_case(case, repeats=3):
    """Measure one :class:`ShardBenchCase`: sharded cycles/sec.

    Each repeat runs :func:`repro.parallel.shard_run` into a fresh
    state directory. Besides the usual cycles/sec the measured entry
    carries ``exchange_seconds`` (per-shard boundary wait + publish
    time) and ``dispatch_seconds`` (wall time beyond average per-shard
    busy time: fork, supervision, final merge) so the trend history
    shows *where* a sharding regression lands, not just that one
    happened. Worker timers arrive summed across shards; dividing by
    the shard count yields the average per-process figure the wall
    clock is compared against.
    """
    import shutil
    import tempfile

    from repro.parallel import shard_run

    config = case.config()
    samples = []
    exchange = []
    dispatch = []
    cycles_run = 0
    for i in range(repeats + 1):
        out_dir = tempfile.mkdtemp(prefix="repro-bench-shard-")
        try:
            start = time.perf_counter()
            run = shard_run(
                config, rate=case.rate, warmup=case.warmup,
                measure=case.measure, drain=0, seed=case.seed,
                shards=case.shards, out_dir=out_dir,
            )
            elapsed = time.perf_counter() - start
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if run.status != "done":
            raise RuntimeError(
                f"shard bench run ended '{run.status}', expected 'done'"
            )
        if i == 0:
            continue  # warmup repeat: imports, fork machinery, caches
        cycles_run = run.cycles
        busy = sum(run.timers.values()) / case.shards
        exch = (run.timers.get("wait_seconds", 0.0)
                + run.timers.get("publish_seconds", 0.0))
        samples.append(elapsed)
        exchange.append(exch / case.shards)
        dispatch.append(max(0.0, elapsed - busy))
    wall = statistics.median(samples)
    return {
        "cycles_per_sec": cycles_run / wall if wall > 0 else 0.0,
        "cycles": cycles_run,
        "wall_seconds": wall,
        "repeats": repeats,
        "shards": case.shards,
        "exchange_seconds": statistics.median(exchange),
        "dispatch_seconds": statistics.median(dispatch),
    }


def _artifact_cycles(root, record):
    """cycles_run of one done job, read from its cached summary."""
    from repro.serve import load_result

    return load_result(root, record).cycles_run


def host_fingerprint():
    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def run_suite(suite=None, quick=False, scale=1.0, repeats=3,
              calibration_repeats=3, progress=None):
    """Run the suite; returns one history entry dict."""
    if suite is None:
        suite = default_suite(quick=quick, scale=scale)
    calibration = calibration_score(calibration_repeats)
    cases = {}

    def record(case, measured):
        # Simulated cycles/sec per million calibration ops/sec: a
        # dimensionless-ish speed that transfers across hosts.
        measured["normalized"] = (
            measured["cycles_per_sec"] / (calibration / 1e6)
            if calibration > 0 else 0.0
        )
        cases[case.name] = measured

    for case in suite:
        if isinstance(case, ShardBenchCase):
            if progress is not None:
                progress(case.name)
            record(case, run_shard_case(case, repeats=repeats))
            continue
        if isinstance(case, ServeBenchCase):
            if progress is not None:
                progress(case.name)
            record(case, run_serve_case(case, repeats=repeats))
            continue
        if progress is not None:
            progress(case.name)
        record(case, run_case(case, repeats=repeats))
    return {
        "schema": SCHEMA,
        "time": time.time(),
        "suite": "quick" if quick else "full",
        "calibration": calibration,
        "host_info": host_fingerprint(),
        "cases": cases,
    }


# ---------------------------------------------------------------------------
# history


def host_slug():
    """Filesystem-safe host identifier for the history file name."""
    name = socket.gethostname().split(".")[0] or "host"
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in name)


def default_history_path(directory="."):
    return os.path.join(directory, f"BENCH_{host_slug()}.json")


def load_history(path):
    """``{"schema", "entries": [...]}`` — empty history if missing."""
    if not os.path.exists(path):
        return {"schema": SCHEMA, "entries": []}
    with open(path) as fh:
        data = json.load(fh)
    if "entries" not in data:
        # A bare entry file (e.g. a checked-in baseline) is a
        # single-entry history.
        data = {"schema": data.get("schema", SCHEMA), "entries": [data]}
    return data


def append_history(path, entry):
    """Append ``entry`` to the history at ``path`` (atomic rewrite)."""
    history = load_history(path)
    history["entries"].append(entry)
    with atomic_write(path) as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return history


def reference_cases(history, metric="normalized"):
    """Per-case reference value: the median over all history entries.

    The median absorbs a single anomalous entry (thermal throttling, a
    busy CI runner) that a plain last-entry reference would anchor on.
    """
    series = {}
    for entry in history.get("entries", ()):
        for name, case in entry.get("cases", {}).items():
            if metric in case:
                series.setdefault(name, []).append(case[metric])
    return {
        name: statistics.median(values) for name, values in series.items()
    }


# ---------------------------------------------------------------------------
# comparison (the gate)


@dataclass
class BenchRow:
    case: str
    reference: float
    current: float

    @property
    def delta_pct(self):
        if self.reference <= 0:
            return 0.0
        return 100.0 * (self.current / self.reference - 1.0)


@dataclass
class BenchComparison:
    threshold: float
    metric: str
    rows: List[BenchRow] = field(default_factory=list)
    #: Cases present on only one side (never a regression by itself).
    unmatched: List[str] = field(default_factory=list)

    @property
    def regressions(self):
        return [r for r in self.rows if r.delta_pct < -self.threshold]

    @property
    def ok(self):
        return not self.regressions

    def to_dict(self):
        return {
            "threshold": self.threshold,
            "metric": self.metric,
            "ok": self.ok,
            "rows": [
                {
                    "case": r.case,
                    "reference": r.reference,
                    "current": r.current,
                    "delta_pct": r.delta_pct,
                    "regression": r.delta_pct < -self.threshold,
                }
                for r in self.rows
            ],
            "unmatched": list(self.unmatched),
        }


def compare_entries(entry, reference, threshold=15.0, metric="normalized"):
    """Gate ``entry`` against per-case ``reference`` values.

    ``reference`` is ``{case: value}`` (see :func:`reference_cases`).
    A case is a regression when its ``metric`` fell more than
    ``threshold`` percent below the reference; improvements and new or
    vanished cases never trip the gate.
    """
    comparison = BenchComparison(threshold=threshold, metric=metric)
    cases = entry.get("cases", {})
    for name in sorted(set(cases) | set(reference)):
        if name not in cases or name not in reference:
            comparison.unmatched.append(name)
            continue
        comparison.rows.append(
            BenchRow(name, reference[name], cases[name].get(metric, 0.0))
        )
    return comparison


# ---------------------------------------------------------------------------
# formatting


def format_entry(entry):
    info = entry.get("host_info", {})
    lines = [
        f"bench suite '{entry.get('suite', '?')}' on"
        f" {info.get('host', '?')} (python {info.get('python', '?')},"
        f" {info.get('cpus', '?')} cpus)",
        f"calibration: {entry.get('calibration', 0.0):,.0f} ops/sec",
        "",
        f"  {'case':<24} {'cycles/sec':>12} {'normalized':>11} {'wall':>8}",
    ]
    for name, case in sorted(entry.get("cases", {}).items()):
        lines.append(
            f"  {name:<24} {case['cycles_per_sec']:>12,.0f}"
            f" {case.get('normalized', 0.0):>11.4f}"
            f" {case['wall_seconds']:>7.2f}s"
        )
    return "\n".join(lines) + "\n"


def format_comparison(comparison):
    lines = [
        f"trend gate: metric={comparison.metric},"
        f" threshold={comparison.threshold:g}%",
        f"  {'case':<24} {'reference':>11} {'current':>11} {'delta':>8}",
    ]
    for row in comparison.rows:
        flag = "  REGRESSION" if row.delta_pct < -comparison.threshold else ""
        lines.append(
            f"  {row.case:<24} {row.reference:>11.4f} {row.current:>11.4f}"
            f" {row.delta_pct:>+7.1f}%{flag}"
        )
    for name in comparison.unmatched:
        lines.append(f"  {name:<24} (no common reference; skipped)")
    lines.append(
        "gate: OK" if comparison.ok
        else f"gate: {len(comparison.regressions)} regression(s)"
    )
    return "\n".join(lines) + "\n"
