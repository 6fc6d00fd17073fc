"""Run-artifact flight recorder and regression diffing.

``repro run --artifacts DIR`` (and ``repro sweep``) write a
self-describing directory so a run's performance claims survive the
machine, the branch, and the person who made them:

.. code-block:: text

    DIR/
      manifest.json   # full config, seed, traffic, phases, versions
      summary.json    # SimResult.to_dict()
      metrics.json    # MetricsRegistry JSON export
      metrics.prom    # same registry, Prometheus text format
      samples.jsonl   # optional: NetworkSampler snapshots
      spans.json      # optional: span latency decomposition
      rate_*/         # sweep artifacts: one run artifact per rate

``repro diff A B --threshold PCT`` compares two artifact directories on
the headline metrics (latency mean/p99 up = bad, throughput avg/min
down = bad) and exits non-zero when any delta crosses the threshold in
the bad direction — the CLI doubles as a CI perf gate. Sweep artifact
pairs diff rate-by-rate over their common rates.
"""

import contextlib
import json
import os
import platform
import tempfile
import time
from dataclasses import dataclass
from typing import List, Optional

MANIFEST = "manifest.json"
SUMMARY = "summary.json"
METRICS_JSON = "metrics.json"
METRICS_PROM = "metrics.prom"
SAMPLES = "samples.jsonl"
SPANS = "spans.json"

#: (metric name, extractor path in summary.json, higher_is_better)
_SUMMARY_METRICS = (
    ("packet_latency_mean", ("packet_latency", "mean"), False),
    ("packet_latency_p99", ("packet_latency", "p99"), False),
    ("avg_throughput", ("avg_throughput",), True),
    ("min_throughput", ("min_throughput",), True),
)


@contextlib.contextmanager
def atomic_write(path, mode="w", fsync=True):
    """Write ``path`` via a same-directory temp file plus ``os.replace``.

    A crash mid-write leaves either the previous file contents or
    nothing — never a truncated artifact. Used for every artifact and
    checkpoint file. ``mode`` is ``"w"`` or ``"wb"``. ``fsync=False``
    keeps the rename atomicity (readers never see a partial file) but
    not durability across a host crash — only for files nothing reads
    after one, i.e. liveness leases.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def _dump(path, payload):
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def build_manifest(config, run_info=None, kind="run"):
    """The self-description block: enough to re-run the experiment."""
    from repro import __version__

    return {
        "kind": kind,
        "schema": 1,
        "config": config.to_dict(),
        "seed": config.seed,
        "run": dict(run_info or {}),
        "versions": {
            "repro": __version__,
            "python": platform.python_version(),
        },
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def write_run_artifacts(
    directory, config, result, registry=None, run_info=None,
    sampler=None, span_set=None,
):
    """Write one run's artifact directory; returns the file list."""
    os.makedirs(directory, exist_ok=True)
    written = [MANIFEST, SUMMARY]
    _dump(os.path.join(directory, SUMMARY), result.to_dict())
    if registry is not None:
        _dump(os.path.join(directory, METRICS_JSON), registry.to_dict())
        with atomic_write(os.path.join(directory, METRICS_PROM)) as fh:
            fh.write(registry.to_prometheus())
        written += [METRICS_JSON, METRICS_PROM]
    if sampler is not None:
        sampler.save_jsonl(os.path.join(directory, SAMPLES))
        written.append(SAMPLES)
    if span_set is not None:
        _dump(os.path.join(directory, SPANS), span_set.decomposition())
        written.append(SPANS)
    manifest = build_manifest(config, run_info=run_info, kind="run")
    manifest["files"] = sorted(written)
    _dump(os.path.join(directory, MANIFEST), manifest)
    return manifest["files"]


def rate_subdir(rate):
    """Canonical sweep subdirectory name for one injection rate."""
    return f"rate_{rate:.4f}"


def write_sweep_manifest(directory, config, rates, run_info=None):
    """Top-level manifest for a sweep artifact tree."""
    os.makedirs(directory, exist_ok=True)
    manifest = build_manifest(config, run_info=run_info, kind="sweep")
    manifest["rates"] = list(rates)
    manifest["runs"] = [rate_subdir(rate) for rate in rates]
    _dump(os.path.join(directory, MANIFEST), manifest)
    return manifest


# ---------------------------------------------------------------------------
# diffing


@dataclass
class DiffRow:
    """One metric compared across two artifact directories."""

    metric: str
    base: float
    new: float
    delta_pct: float  # signed percent change, new vs base
    higher_is_better: bool
    regressed: bool

    def to_dict(self):
        return {
            "metric": self.metric,
            "base": self.base,
            "new": self.new,
            "delta_pct": self.delta_pct,
            "regressed": self.regressed,
        }


@dataclass
class ArtifactDiff:
    """All compared metrics for a pair of artifact directories."""

    base_dir: str
    new_dir: str
    threshold_pct: float
    rows: List[DiffRow]
    #: Sweep diffs: one nested ArtifactDiff per common rate subdir.
    children: Optional[dict] = None

    @property
    def regressions(self):
        out = [row for row in self.rows if row.regressed]
        for child in (self.children or {}).values():
            out.extend(child.regressions)
        return out

    def to_dict(self):
        data = {
            "base": self.base_dir,
            "new": self.new_dir,
            "threshold_pct": self.threshold_pct,
            "rows": [row.to_dict() for row in self.rows],
            "regressions": len(self.regressions),
        }
        if self.children:
            data["runs"] = {
                name: child.to_dict()
                for name, child in sorted(self.children.items())
            }
        return data


def _dig(data, path):
    for key in path:
        if not isinstance(data, dict) or key not in data:
            return None
        data = data[key]
    return data if isinstance(data, (int, float)) else None


def _artifact_metrics(directory):
    """Extract the comparable metrics from one artifact directory.

    Prefers summary.json; falls back to metrics.json (gauges and the
    latency histogram) for minimal baselines that check in metrics only.
    """
    values = {}
    summary_path = os.path.join(directory, SUMMARY)
    if os.path.exists(summary_path):
        summary = _load(summary_path)
        for name, path, _ in _SUMMARY_METRICS:
            value = _dig(summary, path)
            if value is not None:
                values[name] = value
    metrics_path = os.path.join(directory, METRICS_JSON)
    if os.path.exists(metrics_path):
        metrics = _load(metrics_path)
        gauges = metrics.get("gauges", {})
        values.setdefault("avg_throughput", gauges.get("throughput_avg"))
        values.setdefault("min_throughput", gauges.get("throughput_min"))
        hist = metrics.get("histograms", {}).get("packet_latency_cycles")
        if hist and hist.get("count"):
            values.setdefault(
                "packet_latency_mean", hist["sum"] / hist["count"]
            )
    return {k: v for k, v in values.items() if v is not None}


def _compare_run(base_dir, new_dir, threshold_pct):
    base = _artifact_metrics(base_dir)
    new = _artifact_metrics(new_dir)
    common = [
        (name, higher)
        for name, _, higher in _SUMMARY_METRICS
        if name in base and name in new
    ]
    if not common:
        raise ValueError(
            f"nothing to compare: no shared metrics between {base_dir!r} "
            f"and {new_dir!r} (need summary.json or metrics.json)"
        )
    rows = []
    for name, higher in common:
        b, n = base[name], new[name]
        if b == n:
            delta = 0.0
        elif b == 0:
            delta = float("inf") if n > 0 else float("-inf")
        else:
            delta = 100.0 * (n - b) / abs(b)
        if higher:
            regressed = delta < -threshold_pct
        else:
            regressed = delta > threshold_pct
        rows.append(DiffRow(name, b, n, delta, higher, regressed))
    return ArtifactDiff(base_dir, new_dir, threshold_pct, rows)


def _manifest_kind(directory):
    path = os.path.join(directory, MANIFEST)
    if os.path.exists(path):
        return _load(path).get("kind", "run")
    return "run"


def compare_artifacts(base_dir, new_dir, threshold_pct=5.0):
    """Diff two artifact directories; works for run and sweep layouts."""
    if _manifest_kind(base_dir) == "sweep" and _manifest_kind(new_dir) == "sweep":
        base_runs = {
            d for d in os.listdir(base_dir)
            if d.startswith("rate_")
            and os.path.isdir(os.path.join(base_dir, d))
        }
        new_runs = {
            d for d in os.listdir(new_dir)
            if d.startswith("rate_")
            and os.path.isdir(os.path.join(new_dir, d))
        }
        common = sorted(base_runs & new_runs)
        if not common:
            raise ValueError(
                f"sweep artifacts share no rate subdirectories: "
                f"{base_dir!r} vs {new_dir!r}"
            )
        children = {
            name: _compare_run(
                os.path.join(base_dir, name),
                os.path.join(new_dir, name),
                threshold_pct,
            )
            for name in common
        }
        return ArtifactDiff(
            base_dir, new_dir, threshold_pct, rows=[], children=children
        )
    return _compare_run(base_dir, new_dir, threshold_pct)


def _fmt_delta(delta):
    if delta == float("inf"):
        return "+inf"
    if delta == float("-inf"):
        return "-inf"
    return f"{delta:+.2f}%"


def format_diff(diff):
    """Human-readable diff table with a final verdict line."""
    lines = [f"comparing {diff.base_dir} (base) vs {diff.new_dir} (new), "
             f"threshold {diff.threshold_pct:g}%"]

    def rows_for(d, indent=""):
        lines.append(
            f"{indent}  {'metric':<20} {'base':>12} {'new':>12}"
            f" {'delta':>9}  {'':<4}"
        )
        for row in d.rows:
            flag = "REGR" if row.regressed else "ok"
            lines.append(
                f"{indent}  {row.metric:<20} {row.base:>12.4f}"
                f" {row.new:>12.4f} {_fmt_delta(row.delta_pct):>9}  {flag}"
            )

    if diff.children:
        for name, child in sorted(diff.children.items()):
            lines.append(f"{name}:")
            rows_for(child, indent="  ")
    else:
        rows_for(diff)
    regressions = diff.regressions
    if regressions:
        lines.append(
            f"REGRESSION: {len(regressions)} metric(s) past the "
            f"{diff.threshold_pct:g}% threshold"
        )
    else:
        lines.append("no regressions")
    return "\n".join(lines) + "\n"
