"""Wall-clock profiling of the router pipeline phases.

A :class:`PhaseProfiler` attaches to a :class:`~repro.network.network.Network`
and accumulates `time.perf_counter` spans for each router pipeline
phase (connection release, streaming/traversal, SA request collection,
PC allocation, SA commit, split-VC allocation, end-of-cycle) plus the
whole-network cycle, bucketed into fixed N-cycle epochs. Each epoch
reports cycles/sec, so a perf regression shows up as a drop in the
epoch series rather than a vague "it feels slower".

The router's hot path pays one ``profiler is None`` check per phase per
cycle when profiling is off; the timers only run when a profiler is
attached (opt-in, like the trace bus).

Beyond the phase split, the profiler attributes wall time to named
*components* inside a phase — currently the allocator invocations
(``sa``/``pc``/``vc_alloc`` each tagged with the configured allocator
type, e.g. ``alloc:islip1``) — so ``repro report`` can answer "which
allocator should the vectorization PR attack first". The whole
breakdown exports as collapsed stacks (``collapsed_stacks``), one
``frame;frame;frame count`` line per stack with counts in
microseconds, directly consumable by flamegraph.pl / speedscope /
inferno.

Output (``to_dict()`` / ``save()``) follows the benchmarks' JSON
conventions — a flat dict of scalars plus an ``epochs`` list — so the
files drop into the same tooling as ``benchmarks/results``.
"""

import json
import time

#: Router pipeline phases, in execution order.
PHASES = (
    "release",  # starvation-control forced releases
    "stream",  # flits streamed on held connections (traversal)
    "sa_collect",  # switch-allocator request collection
    "pc",  # PC candidate collection + PC allocation + PC commit
    "sa",  # switch allocation + commit
    "vc_alloc",  # split VC allocation (no-op for the combined allocator)
    "end",  # end-of-cycle bookkeeping (ages, wait counters)
)


class PhaseProfiler:
    """Per-epoch accumulation of per-phase wall-clock time."""

    def __init__(self, epoch_cycles=1000):
        if epoch_cycles < 1:
            raise ValueError("epoch_cycles must be >= 1")
        self.epoch_cycles = epoch_cycles
        self.epochs = []
        self.cycles = 0
        self._phase_seconds = {name: 0.0 for name in PHASES}
        #: (phase, component) -> total seconds, run-global (components
        #: attribute hot-spot totals, not per-epoch series).
        self._component_seconds = {}
        self._epoch_start_cycle = 0
        self._epoch_start_time = None

    def add(self, phase, seconds):
        """Accumulate one phase span (called from Router.step)."""
        self._phase_seconds[phase] += seconds

    def add_component(self, phase, component, seconds):
        """Attribute seconds to a named component within ``phase``.

        Component time is a *subset* of its phase's time (the router
        times allocator calls inside the phase span), so hot-spot
        reports subtract it to get the phase's self time.
        """
        key = (phase, component)
        self._component_seconds[key] = (
            self._component_seconds.get(key, 0.0) + seconds
        )

    def end_cycle(self):
        """Advance the cycle count; roll the epoch at the boundary."""
        if self._epoch_start_time is None:
            self._epoch_start_time = time.perf_counter()
        self.cycles += 1
        if self.cycles - self._epoch_start_cycle >= self.epoch_cycles:
            self._finish_epoch()

    def _finish_epoch(self):
        now = time.perf_counter()
        cycles = self.cycles - self._epoch_start_cycle
        if cycles == 0:
            return
        elapsed = max(now - self._epoch_start_time, 1e-12)
        self.epochs.append(
            {
                "start_cycle": self._epoch_start_cycle,
                "cycles": cycles,
                "seconds": elapsed,
                "cycles_per_sec": cycles / elapsed,
                "phase_seconds": dict(self._phase_seconds),
            }
        )
        self._phase_seconds = {name: 0.0 for name in PHASES}
        self._epoch_start_cycle = self.cycles
        self._epoch_start_time = now

    def finish(self):
        """Close the trailing partial epoch (call once, after the run)."""
        if self._epoch_start_time is not None:
            self._finish_epoch()

    # --- reporting --------------------------------------------------------

    def cycles_per_sec(self):
        """Overall simulated cycles per wall-clock second."""
        seconds = sum(e["seconds"] for e in self.epochs)
        cycles = sum(e["cycles"] for e in self.epochs)
        return cycles / seconds if seconds > 0 else 0.0

    def phase_totals(self):
        """Total seconds per phase across all epochs."""
        totals = {name: 0.0 for name in PHASES}
        for epoch in self.epochs:
            for name, seconds in epoch["phase_seconds"].items():
                totals[name] += seconds
        return totals

    def total_seconds(self):
        """Wall-clock seconds across all closed epochs."""
        return sum(e["seconds"] for e in self.epochs)

    def component_totals(self):
        """``{"phase;component": seconds}`` for every timed component."""
        return {
            f"{phase};{component}": seconds
            for (phase, component), seconds in sorted(
                self._component_seconds.items()
            )
        }

    def hotspots(self):
        """Wall-time attribution rows, hottest first.

        Each row is ``(stack, seconds, pct_of_total)`` where ``stack``
        is a ``;``-joined frame path. Phase rows report *self* time
        (phase minus its timed components); an ``other`` row covers
        wall time outside the router pipeline (terminals, channels,
        stats, observer hooks).
        """
        return compute_hotspots(
            self.total_seconds(), self.phase_totals(),
            self.component_totals(),
        )

    def collapsed_stacks(self):
        """Flamegraph-compatible collapsed-stack lines.

        One ``sim;frame;frame count`` line per stack, where the count
        is integer microseconds of *self* time — feed the list straight
        into flamegraph.pl, inferno, or speedscope.
        """
        return _collapsed_lines(self.hotspots())

    def to_dict(self):
        return {
            "epoch_cycles": self.epoch_cycles,
            "total_cycles": self.cycles,
            "cycles_per_sec": self.cycles_per_sec(),
            "phase_seconds": self.phase_totals(),
            "components": self.component_totals(),
            "epochs": list(self.epochs),
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# hot-spot attribution (shared by the live profiler and saved profiles)


def compute_hotspots(total_seconds, phase_totals, components):
    """Self-time attribution rows from profile aggregates, hottest first.

    ``components`` maps ``"phase;component"`` to seconds (a subset of
    its phase's total). Returns ``[(stack, seconds, pct_of_total)]``.
    """
    children = {}
    rows = []
    for key, secs in components.items():
        phase = key.split(";", 1)[0]
        children[phase] = children.get(phase, 0.0) + secs
        rows.append((f"router;{key}", secs))
    for phase, secs in phase_totals.items():
        rows.append(
            (f"router;{phase}", max(0.0, secs - children.get(phase, 0.0)))
        )
    rows.append(
        ("other", max(0.0, total_seconds - sum(phase_totals.values())))
    )
    rows.sort(key=lambda row: row[1], reverse=True)
    return [
        (stack, secs,
         100.0 * secs / total_seconds if total_seconds > 0 else 0.0)
        for stack, secs in rows
    ]


def hotspots_from_dict(data):
    """:func:`compute_hotspots` over a saved profile JSON dict."""
    total = sum(e["seconds"] for e in data.get("epochs", ()))
    return compute_hotspots(
        total, data.get("phase_seconds", {}), data.get("components", {})
    )


def _collapsed_lines(hotspot_rows):
    lines = []
    for stack, seconds, _ in hotspot_rows:
        usec = int(round(seconds * 1e6))
        if usec > 0:
            lines.append(f"sim;{stack} {usec}")
    return lines


def collapsed_from_dict(data):
    """Collapsed-stack lines from a saved profile JSON dict."""
    return _collapsed_lines(hotspots_from_dict(data))


def is_profile_dict(data):
    """Does this JSON object look like a ``PhaseProfiler.to_dict()``?"""
    return (
        isinstance(data, dict)
        and "epochs" in data
        and "phase_seconds" in data
    )


def format_profile_report(data, top=10):
    """Human-readable hot-spot report for a saved profile dict.

    The ``repro report`` rendering: overall speed, the per-epoch
    cycles/sec trend, and the wall-time attribution table (phase self
    times and per-allocator components).
    """
    lines = []
    epochs = data.get("epochs", ())
    total = sum(e["seconds"] for e in epochs)
    lines.append(
        f"profile: {data.get('total_cycles', 0)} cycles in {total:.3f}s"
        f" ({data.get('cycles_per_sec', 0.0):.0f} cycles/sec,"
        f" {len(epochs)} epochs of {data.get('epoch_cycles', '?')})"
    )
    lines.append("")
    lines.append(f"wall-clock hot spots (top {top})")
    lines.append(f"  {'stack':<40} {'seconds':>9} {'share':>7}")
    for stack, seconds, pct in hotspots_from_dict(data)[:top]:
        lines.append(f"  {stack:<40} {seconds:>9.3f} {pct:>6.1f}%")
    if epochs:
        lines.append("")
        lines.append("cycles/sec per epoch")
        peak = max(e["cycles_per_sec"] for e in epochs) or 1.0
        for epoch in epochs:
            cps = epoch["cycles_per_sec"]
            bar = "#" * max(1, round(32 * cps / peak))
            lines.append(
                f"  @{epoch['start_cycle']:>8} {cps:>10.0f}  {bar}"
            )
    return "\n".join(lines) + "\n"
