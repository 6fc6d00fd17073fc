"""Host-performance run telemetry: heartbeats, progress, ETA.

A :class:`RunTelemetry` rides along with one simulation as a run probe
(``run_simulation(probes=[...])``, see :class:`repro.sim.runner.Probe`)
and periodically reports how the run is doing *on the host*: simulated
cycle reached, instantaneous and average wall-clock cycles/sec,
fraction of the phase schedule completed, an ETA, resident-set memory,
and — when a :class:`~repro.obs.profiler.PhaseProfiler` is also
attached — the per-phase wall-time split so far.

Two independent outputs, both optional:

- ``path`` — an append-only JSONL heartbeat file. Every record is
  written with :func:`repro.obs.trace.append_jsonl` (fsynced), so
  another process can trust what it reads even if this process is
  later SIGKILLed; :func:`repro.obs.trace.read_jsonl` reads it back
  and discards a torn final line.

This is a user-facing progress stream (``repro run --progress`` /
``--heartbeat``), not a lease: supervised attempts (``repro serve``
jobs, shard workers) beat a :class:`repro.proc.Heartbeat`, throttled
on wall time, instead.
- ``console`` — a text stream (normally ``sys.stderr``) that gets a
  single carriage-return-rewritten progress line per heartbeat, so
  ``repro run --progress --json`` keeps machine-readable stdout clean.

Overhead: the run calls it only on heartbeat cycles, so a cycle between
heartbeats costs the run's one due-cycle compare;
``benchmarks/test_obs_overhead.py`` holds it under 5%.
"""

import os
import socket
import time

from repro.obs.trace import append_jsonl


def rss_kb():
    """Resident set size of this process in kB (0 if undeterminable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports kB; macOS reports bytes.
        return usage // 1024 if usage > 1 << 30 else usage
    except Exception:  # pragma: no cover - platform without getrusage
        return 0


def _format_eta(seconds):
    """Compact ``h:mm:ss`` rendering (``"-"`` when unknown)."""
    if seconds is None or seconds < 0:
        return "-"
    seconds = int(round(seconds))
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}"


class RunTelemetry:
    """Heartbeat emitter for one simulation run.

    ``every`` is the sampling period in cycles. ``total_cycles`` is the
    run's planned phase schedule (warmup + measure + drain); the drain
    may end early on quiescence, so progress/ETA treat it as an upper
    bound. ``rate`` identifies the run in every record.
    """

    def __init__(self, path=None, every=1000, console=None, rate=None,
                 clock=time.monotonic, walltime=time.time):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.path = path
        self.every = every
        self.console = console
        self.rate = rate
        self.total_cycles = None
        self.records_written = 0
        self._clock = clock
        self._walltime = walltime
        self._profiler = None
        self._start_time = None
        self._start_cycle = 0
        self._last_time = None
        self._last_cycle = 0
        self._finished = False
        self._console_dirty = False

    # --- run probe ----------------------------------------------------

    def start(self, run):
        """Emit the ``start`` record."""
        self.total_cycles = run.warmup + run.measure + run.drain
        self._profiler = run.network.profiler
        start_cycle = run.network.cycle
        now = self._clock()
        self._start_time = self._last_time = now
        self._start_cycle = self._last_cycle = start_cycle
        self.due = start_cycle + self.every
        self._emit(
            {
                "ev": "start",
                "t": self._walltime(),
                "cycle": start_cycle,
                "total_cycles": self.total_cycles,
                "rate": self.rate,
                "pid": os.getpid(),
                "host": socket.gethostname(),
            }
        )

    def on_cycle(self, run):
        """Emit a heartbeat; the next one ``every`` cycles on."""
        cycle = run.network.cycle
        self.due = cycle + self.every
        self._heartbeat(cycle, run.phase)

    def finish(self, run, status, result):
        """Emit the terminal record.

        ``status`` is ``"done"`` for a clean finish, or a short reason
        (``"killed"``, ``"failed"``) otherwise. Safe to call twice.
        """
        if self._finished:
            return
        self._finished = True
        now = self._clock()
        elapsed = (now - self._start_time) if self._start_time else 0.0
        cycle = run.network.cycle
        cycles = cycle - self._start_cycle
        record = {
            "ev": "finish",
            "t": self._walltime(),
            "status": status,
            "cycle": cycle,
            "total_cycles": self.total_cycles,
            "wall_seconds": elapsed,
            "cycles_per_sec": cycles / elapsed if elapsed > 0 else 0.0,
            "rss_kb": rss_kb(),
            "rate": self.rate,
        }
        if result is not None:
            record["result"] = {
                "avg_throughput": result.avg_throughput,
                "packet_latency_mean": result.packet_latency.mean,
                "cycles_run": result.cycles_run,
            }
        self._emit(record)
        if self.console is not None and self._console_dirty:
            # End the carriage-return progress line cleanly.
            self.console.write("\n")
            self.console.flush()

    # --- internals ----------------------------------------------------

    def _heartbeat(self, cycle, phase):
        now = self._clock()
        span = now - self._last_time
        inst = (cycle - self._last_cycle) / span if span > 0 else 0.0
        elapsed = now - self._start_time
        avg = (cycle - self._start_cycle) / elapsed if elapsed > 0 else 0.0
        progress = eta = None
        if self.total_cycles:
            progress = min(1.0, cycle / self.total_cycles)
            if avg > 0:
                eta = max(0, self.total_cycles - cycle) / avg
        record = {
            "ev": "heartbeat",
            "t": self._walltime(),
            "cycle": cycle,
            "total_cycles": self.total_cycles,
            "phase": phase,
            "cycles_per_sec": inst,
            "avg_cycles_per_sec": avg,
            "progress": progress,
            "eta_sec": eta,
            "rss_kb": rss_kb(),
            "rate": self.rate,
            "pid": os.getpid(),
        }
        if self._profiler is not None:
            record["phase_seconds"] = self._profiler.phase_totals()
        self._emit(record)
        if self.console is not None:
            self._console_line(record)
        self._last_time, self._last_cycle = now, cycle

    def _console_line(self, record):
        total = f"/{self.total_cycles}" if self.total_cycles else ""
        pct = (
            f" ({100 * record['progress']:.0f}%)"
            if record["progress"] is not None
            else ""
        )
        self.console.write(
            f"\rcycle {record['cycle']}{total}{pct}"
            f"  {record['cycles_per_sec']:.0f} cycles/sec"
            f"  eta {_format_eta(record['eta_sec'])}  "
        )
        self.console.flush()
        self._console_dirty = True

    def _emit(self, record):
        self.records_written += 1
        if self.path is not None:
            # Fsynced per record: a heartbeat that was reported is
            # durable, so a reader never sees a silently-stale file from
            # a live process (only from a dead one).
            append_jsonl(self.path, record)

