"""``--compare A.json B.json``: two ledgers, metric by metric.

For every end-to-end metric x workload: both medians, the relative
difference in the metric's own direction, the bound from
BENCHMARK.json, and a verdict:

- ``ok``          B is no worse than A by more than the bound;
- ``worse``       B is worse than A by more than the bound;
- ``unresolved``  the run-to-run spread of either side (the distance
  between the quartiles of its samples, as a share of the median) is
  wider than the bound, so the pair cannot tell — unless every B
  sample beats every A sample.

Exit status is non-zero on any ``worse``. ``--markdown`` also renders
the table, with the per-layer numbers of both ledgers, to a file.
"""

import json
import statistics


def load(path):
    with open(path) as fh:
        return json.load(fh)


def worse_by(a, b, better):
    """Relative amount by which ``b`` is worse than ``a`` (< 0: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    delta = (b - a) / abs(a)
    return -delta if better == "higher" else delta


def spread(entry):
    """Run-to-run spread of one side, as a share of its median: the
    distance between the quartiles, or max - min below four samples."""
    samples = entry.get("samples") or []
    if not entry.get("value") or len(samples) < 2:
        return 0.0
    if len(samples) >= 4:
        low, _, high = statistics.quantiles(samples, n=4)
    else:
        low, high = min(samples), max(samples)
    return (high - low) / abs(entry["value"])


def all_better(a, b, better):
    """Every run of B reads better than every run of A."""
    if "min" not in a or "min" not in b:
        return False
    if better == "higher":
        return b["min"] > a["max"]
    return b["max"] < a["min"]


def verdict(a, b, metric):
    bound, better = metric["bound"], metric["better"]
    if a.get("value") is None or b.get("value") is None:
        return None, "unresolved"
    amount = worse_by(a["value"], b["value"], better)
    if max(spread(a), spread(b)) > bound and not all_better(a, b, better):
        return amount, "unresolved"
    return amount, ("worse" if amount > bound else "ok")


def end_to_end_rows(ledger_a, ledger_b, spec):
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        side_a = ledger_a["workloads"].get(name, {}).get("trace0", {})
        side_b = ledger_b["workloads"].get(name, {}).get("trace0", {})
        for metric in spec["end_to_end"]:
            a = side_a.get("end_to_end", {}).get(metric["name"], {})
            b = side_b.get("end_to_end", {}).get(metric["name"], {})
            amount, status = verdict(a, b, metric)
            rows.append({
                "workload": name, "metric": metric["name"],
                "unit": metric["unit"], "a": a.get("value"),
                "b": b.get("value"), "worse_by": amount,
                "bound": metric["bound"], "status": status,
                "spread": max(spread(a), spread(b)) if a and b else None,
            })
        rows += exact_rows(name, side_a, side_b)
    return rows


def exact_rows(name, side_a, side_b):
    """The two ledger metrics BENCHMARK.json cannot bound (bound 0).

    ``failed_share`` is 0 on a healthy tree and the contract wants
    metrics that are never 0; ``sim_latency_cycles`` differs between
    seeds by more than the widest bound the contract allows. Both are
    exact for one seed, so here any worsening is ``worse``.
    """
    rows = []
    for metric, unit in (("sim_latency_cycles", "cycles"),
                         ("failed_share", "ratio")):
        a, b = side_a.get(metric), side_b.get(metric)
        known = a is not None and b is not None
        rows.append({
            "workload": name, "metric": metric, "unit": unit, "a": a, "b": b,
            "worse_by": worse_by(a, b, "lower") if known else None,
            "bound": 0.0, "spread": 0.0,
            "status": "ok" if known and b <= a else "worse",
        })
    return rows


def fmt(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.5g}"
    return str(value)


def pct(value):
    if value is None:
        return "n/a"
    return f"{100.0 * value + 0.0:+.2f}%".replace("-0.00%", "+0.00%")


def print_rows(rows):
    print(f"{'workload':26s} {'metric':20s} {'A':>11s} {'B':>11s} "
          f"{'B worse by':>11s} {'bound':>7s} {'spread':>8s}  status")
    for row in rows:
        print(f"{row['workload']:26s} {row['metric']:20s} "
              f"{fmt(row['a']):>11s} {fmt(row['b']):>11s} "
              f"{pct(row['worse_by']):>11s} {pct(row['bound']):>7s} "
              f"{pct(row['spread']):>8s}  {row['status']}")


def render_markdown(ledger_a, ledger_b, spec, rows, path_a, path_b):
    lines = ["# Cost ledger", ""]
    lines.append("| run | file | host | nproc | python | commit | seed | "
                 "seconds/pass |")
    lines.append("|---|---|---|---|---|---|---|---|")
    for tag, path, ledger in (("A", path_a, ledger_a), ("B", path_b,
                                                        ledger_b)):
        lines.append(
            f"| {tag} | {path} | {ledger.get('host')} | "
            f"{ledger.get('nproc')} | {ledger.get('python')} | "
            f"{ledger.get('commit')} | {ledger.get('seed')} | "
            f"{ledger.get('seconds')} |")
    lines += ["", "## End to end (A vs B, same commit: repeatability)", ""]
    lines.append("| workload | metric | unit | A | B | B worse by | bound | "
                 "spread | status |")
    lines.append("|---|---|---|---|---|---|---|---|---|")
    for row in rows:
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['unit']} | "
            f"{fmt(row['a'])} | {fmt(row['b'])} | {pct(row['worse_by'])} | "
            f"{pct(row['bound'])} | {pct(row['spread'])} | {row['status']} |")
    names = [w["name"] for w in spec["workloads"]]
    for tag, ledger in (("A", ledger_a), ("B", ledger_b)):
        lines += ["", f"## Per layer, traced pass ({tag})", ""]
        lines.append("| metric | unit | " + " | ".join(names) + " |")
        lines.append("|---|---|" + "---|" * len(names))
        for metric in spec["per_layer"]:
            cells = []
            for name in names:
                entry = (ledger["workloads"].get(name, {}).get("trace1", {})
                         .get("per_layer", {}).get(metric["name"], {}))
                cells.append(fmt(entry.get("value")))
            lines.append(f"| {metric['name']} | {metric['unit']} | "
                         + " | ".join(cells) + " |")
    lines += ["", "## The unflattering rows", ""]
    lines += unflattering(ledger_a, "A")
    return "\n".join(lines) + "\n"


def unflattering(ledger, tag):
    """Numbers that do not look good, said in words (from ledger A)."""

    def e2e(workload, metric):
        return (ledger["workloads"].get(workload, {}).get("trace0", {})
                .get("end_to_end", {}).get(metric, {}).get("value"))

    def layer(workload, metric):
        return (ledger["workloads"].get(workload, {}).get("trace1", {})
                .get("per_layer", {}).get(metric, {}).get("value"))

    out = []
    ratio = layer("mesh8-shard2", "parallel.vs_single_ratio")
    if ratio is not None:
        out.append(f"- `parallel.vs_single_ratio` = {ratio:.2f} ({tag}): "
                   f"two shards on two cores take {ratio:.2f}x the wall of "
                   f"the single-process reference run of the same cycles.")
    fast, ref = (e2e("mesh8-chain-sat", "sim_cycles_per_s"),
                 e2e("mesh8-faults-reliable", "sim_cycles_per_s"))
    if fast and ref:
        out.append(f"- reference-vs-fast gap ({tag}): mesh8-chain-sat runs "
                   f"{fast:.0f} cycles/s on the fast core at rate 0.45; "
                   f"mesh8-faults-reliable runs {ref:.0f} cycles/s on the "
                   f"reference core at the lighter rate 0.3.")
    shard = e2e("mesh8-shard2", "sim_cycles_per_s")
    if shard and fast:
        out.append(f"- mesh8-shard2 steps {shard:.0f} cycles/s ({tag}), "
                   f"{fast / shard:.1f}x slower than the fast "
                   f"single-process run at a heavier load.")
    for scheme in ("any_input", "same_input"):
        gain = layer("fig7a-sweep",
                     f"core.chaining.fig7a_gain_{scheme}_pct")
        if gain is not None:
            out.append(f"- `fig7a_gain_{scheme}_pct` = {gain:+.1f} % ({tag}) "
                       f"at rate 1.0 in these short windows; the paper "
                       f"reports +5 % at saturation.")
    for workload in ("mesh8-chain-sat", "fbfly4-wavefront-bimodal",
                     "mesh8-faults-reliable"):
        overhead = layer(workload, "sim.runner.trace_overhead_pct")
        if overhead is not None:
            out.append(f"- tracing overhead on {workload} ({tag}): "
                       f"{overhead:.1f} %.")
    return out


def compare(path_a, path_b, spec, markdown=None):
    ledger_a, ledger_b = load(path_a), load(path_b)
    rows = end_to_end_rows(ledger_a, ledger_b, spec)
    print_rows(rows)
    if markdown:
        with open(markdown, "w") as fh:
            fh.write(render_markdown(ledger_a, ledger_b, spec, rows,
                                     path_a, path_b))
    worse = [r for r in rows if r["status"] == "worse"]
    unresolved = [r for r in rows if r["status"] == "unresolved"]
    print(f"# {len(rows)} pairs: {len(worse)} worse, "
          f"{len(unresolved)} unresolved")
    return 1 if worse else 0
