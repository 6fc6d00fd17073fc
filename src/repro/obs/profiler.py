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
type, e.g. ``alloc:islip1``), read back with ``component_totals()``.

Output (``to_dict()`` / ``save()``, written by ``repro run --profile``)
follows the benchmarks' JSON conventions — a flat dict of scalars plus
an ``epochs`` list — so the files drop into the same tooling as
``benchmarks/results``.
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
        #: (phase, component) -> total seconds, run-global (not
        #: per-epoch series).
        self._component_seconds = {}
        self._epoch_start_cycle = 0
        self._epoch_start_time = None

    def add(self, phase, seconds):
        """Accumulate one phase span (called from Router.step)."""
        self._phase_seconds[phase] += seconds

    def add_component(self, phase, component, seconds):
        """Attribute seconds to a named component within ``phase``.

        Component time is a *subset* of its phase's time (the router
        times allocator calls inside the phase span).
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

    def component_totals(self):
        """``{"phase;component": seconds}`` for every timed component."""
        return {
            f"{phase};{component}": seconds
            for (phase, component), seconds in sorted(
                self._component_seconds.items()
            )
        }

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

