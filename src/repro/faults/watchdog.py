"""Deadlock/livelock watchdog with diagnostic dumps.

A :class:`HangWatchdog` is a run probe (``run_simulation(probes=[...])``,
see :class:`repro.sim.runner.Probe`) that every ``check_period`` cycles
reads two progress signals: flits *moving* (switched by any router or
consumed by any sink) and flits *ejecting*. With flits in flight,

- no movement for ``window`` cycles is a **deadlock** — every flit in
  the network is stuck behind a dependency cycle or exhausted
  resource;
- movement without a single ejection for ``window * livelock_factor``
  cycles is a **livelock** — flits circulate (misrouted around faults,
  for example) but never arrive.

On detection the watchdog assembles a diagnostic bundle — the
held-connection table (exactly the state packet chaining manipulates),
per-router buffer occupancy, the longest-waiting VC fronts, the
sampler's buffered-flits heatmap when the run has a sampler, the most
recent trace events when tracing is on, and the fault summary when a
controller is bound — writes it to ``dump_path`` (JSON) if given, and
raises :class:`WatchdogError` (``strict`` mode) or records the bundle
and disarms (``report`` mode).
"""

import json
import math

from repro.obs.sampler import NetworkSampler
from repro.obs.trace import NULL_TRACE, RingSink


class WatchdogError(RuntimeError):
    """The watchdog detected a hang; ``bundle`` holds the diagnostics."""

    def __init__(self, bundle):
        self.bundle = bundle
        super().__init__(
            f"{bundle['kind']} detected at cycle {bundle['cycle']}: no "
            f"{'flit movement' if bundle['kind'] == 'deadlock' else 'ejection'}"
            f" since cycle {bundle['last_progress_cycle']} with "
            f"{bundle['in_flight']} flits in flight"
        )


class HangWatchdog:
    """Detects simulations that stop making forward progress."""

    MODES = ("strict", "report")

    def __init__(self, window=1000, check_period=None, mode="strict",
                 dump_path=None, livelock_factor=8, ring_capacity=256):
        if window < 1:
            raise ValueError("watchdog window must be >= 1")
        if mode not in self.MODES:
            raise ValueError(f"unknown watchdog mode {mode!r} "
                             f"(expected one of {self.MODES})")
        self.window = window
        self.check_period = check_period or max(1, window // 4)
        self.mode = mode
        self.dump_path = dump_path
        self.livelock_factor = livelock_factor
        self.ring_capacity = ring_capacity
        self.network = None
        self.hangs = []  # bundles recorded in report mode
        self._sampler = None
        self._ring = None
        self._last_moved = -1
        self._last_ejected = -1
        self._moved_cycle = 0
        self._ejected_cycle = 0

    # --- run probe ----------------------------------------------------------

    def start(self, run):
        """Checks start with the run's first cycle (after any restore)."""
        self.network = network = run.network
        self.due = network.cycle + 1
        self._moved_cycle = network.cycle
        self._ejected_cycle = network.cycle
        self._sampler = next(
            (p for p in run.probes if isinstance(p, NetworkSampler)), None
        )
        # Keep a bounded tail of trace events for the diagnostic bundle
        # when the run is traced at all (never touch the shared
        # NULL_TRACE: it must stay inert).
        if network.trace is not NULL_TRACE:
            self._ring = RingSink(self.ring_capacity)
            network.trace.attach(self._ring)

    def on_cycle(self, run):
        """Check the cycle just stepped; the next one ``check_period`` on."""
        cycle = run.network.cycle - 1
        self.due = run.network.cycle + self.check_period
        net = self.network
        moved = sum(sum(r.port_flits) for r in net.routers)
        ejected = sum(k.flits_consumed for k in net.sinks)
        if moved != self._last_moved:
            self._last_moved = moved
            self._moved_cycle = cycle
        if ejected != self._last_ejected:
            self._last_ejected = ejected
            self._ejected_cycle = cycle
        in_flight = net.in_flight_flits()
        if in_flight == 0:
            return
        if cycle - self._moved_cycle >= self.window:
            self._hang("deadlock", cycle, in_flight, self._moved_cycle)
        elif cycle - self._ejected_cycle >= self.window * self.livelock_factor:
            self._hang("livelock", cycle, in_flight, self._ejected_cycle)

    # --- diagnostics ------------------------------------------------------

    def _hang(self, kind, cycle, in_flight, last_progress):
        bundle = self.diagnose(kind, cycle, in_flight, last_progress)
        if self.dump_path:
            with open(self.dump_path, "w") as fh:
                json.dump(bundle, fh, indent=2, sort_keys=True)
                fh.write("\n")
        tr = self.network.trace
        if tr.active:
            tr.emit("watchdog_hang", cycle, kind=kind, in_flight=in_flight)
        if self.mode == "strict":
            raise WatchdogError(bundle)
        self.hangs.append(bundle)
        self.due = math.inf  # one report per run

    def diagnose(self, kind, cycle, in_flight, last_progress):
        """Assemble the diagnostic bundle (JSON-serializable)."""
        net = self.network
        held = []
        waiters = []
        for r, router in enumerate(net.routers):
            for o, conn in enumerate(router.conn_out):
                if conn is None:
                    continue
                p, v = conn
                active = router.in_vcs[p][v].active_packet
                held.append({
                    "router": r, "out_port": o, "in_port": p, "vc": v,
                    "age": router.conn_age[o],
                    "pid": active.pid if active is not None else None,
                })
            for p in range(router.radix):
                for v, vcobj in enumerate(router.in_vcs[p]):
                    flit = vcobj.front()
                    if flit is None or vcobj.wait_cycles == 0:
                        continue
                    waiters.append({
                        "router": r, "in_port": p, "vc": v,
                        "pid": flit.packet.pid,
                        "wait_cycles": vcobj.wait_cycles,
                        "out_port": vcobj.front_out_port(),
                    })
        waiters.sort(key=lambda w: w["wait_cycles"], reverse=True)
        heatmap = None
        if self._sampler is not None and self._sampler.samples:
            try:
                heatmap = self._sampler.heatmap("buffered", reduce="last")
            except TypeError:
                heatmap = None  # non-grid topology
        bundle = {
            "kind": kind,
            "cycle": cycle,
            "window": self.window,
            "last_progress_cycle": last_progress,
            "in_flight": in_flight,
            "backlog": net.backlog(),
            "held_connections": held,
            "stalled_fronts": waiters[:20],
            "buffered_per_router": [
                r.total_buffered_flits() for r in net.routers
            ],
            "heatmap": heatmap,
            "recent_events": list(self._ring.events) if self._ring else [],
        }
        if net.faults is not None:
            bundle["faults"] = net.faults.summary()
        return bundle

    def finish(self, run, status, result):
        pass

    def summary(self):
        return {
            "window": self.window,
            "mode": self.mode,
            "hangs": len(self.hangs),
        }
