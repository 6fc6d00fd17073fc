"""Periodic network-state sampling: occupancy, credits, link utilization.

A :class:`NetworkSampler` is a run probe (``run_simulation(probes=[...])``,
see :class:`repro.sim.runner.Probe`) that, every ``period`` cycles,
records a snapshot of the whole network's congestion state:

- per-router **buffer occupancy** (flits sitting in input VCs) — the
  quantity dynamic-VC-allocation studies identify as the imbalance that
  drives performance;
- per-router **free downstream credits** (how much headroom each
  router's outputs still have);
- per-router **connection-table occupancy** (held switch connections —
  high under chaining, a direct view of incremental allocation at work);
- per-output-port **flit counts since the previous sample**, i.e.
  link utilization — the profile behind hotspot and tree-saturation
  analysis.

Samples live in a bounded ring buffer (old samples are dropped and
counted, never reallocated), export as JSONL (gzip via a ``.gz`` path),
and yield the package's link-utilization views: per-link flits/cycle,
the hottest links, and ASCII heatmaps for mesh/torus-style ``k x k``
grids.

Cost model: the run calls the sampler only on its sampling cycles, so
an attached sampler costs the snapshot every ``period`` cycles (see
``benchmarks/test_obs_overhead.py``). It runs between cycles, outside
the :class:`~repro.obs.profiler.PhaseProfiler`'s cycle.
"""

import json
from collections import deque

#: Per-router scalar fields a sample carries (heatmap candidates).
SAMPLE_FIELDS = ("buffered", "credits_free", "conns_held", "activity")

#: Shading ramp for heatmaps, lightest to darkest.
_RAMP = " .:-=+*#%@"


def shade(value, peak):
    """Map a value in [0, peak] onto the ASCII shading ramp."""
    if peak <= 0:
        return _RAMP[0]
    idx = int(min(1.0, value / peak) * (len(_RAMP) - 1))
    return _RAMP[idx]


class NetworkSampler:
    """Bounded periodic snapshots of network congestion state."""

    def __init__(self, period=100, capacity=1024):
        if period < 1:
            raise ValueError("sampler period must be >= 1")
        if capacity < 1:
            raise ValueError("sampler capacity must be >= 1")
        self.period = period
        self.capacity = capacity
        self.samples = deque()
        self.dropped = 0
        self.network = None
        self._last_port_flits = None

    def start(self, run):
        """Samples start with the run's first cycle (after any restore)."""
        self.network = net = run.network
        self.due = net.cycle + 1
        self._last_port_flits = [list(r.port_flits) for r in net.routers]

    def on_cycle(self, run):
        """Snapshot the cycle just stepped; the next one ``period`` on."""
        self._snapshot(run.network.cycle - 1)
        self.due = run.network.cycle + self.period

    def finish(self, run, status, result):
        pass

    def _snapshot(self, cycle):
        net = self.network
        buffered = []
        credits_free = []
        conns_held = []
        port_flits = []
        for i, router in enumerate(net.routers):
            buffered.append(router.total_buffered_flits())
            credits_free.append(sum(sum(c) for c in router.credits))
            conns_held.append(
                sum(1 for c in router.conn_out if c is not None)
            )
            last = self._last_port_flits[i]
            now = router.port_flits
            port_flits.append([now[p] - last[p] for p in range(router.radix)])
            self._last_port_flits[i] = list(now)
        sample = {
            "cycle": cycle,
            "buffered": buffered,
            "credits_free": credits_free,
            "conns_held": conns_held,
            "port_flits": port_flits,
        }
        if len(self.samples) >= self.capacity:
            self.samples.popleft()
            self.dropped += 1
        self.samples.append(sample)

    # --- derived views ----------------------------------------------------

    def router_series(self, field):
        """Per-router scalars for every sample: list of per-router lists.

        ``activity`` is total flits switched per router per cycle over
        the sampling interval; the other fields are raw sample values.
        """
        if field == "activity":
            return [
                [sum(ports) / self.period for ports in s["port_flits"]]
                for s in self.samples
            ]
        if field not in SAMPLE_FIELDS:
            raise ValueError(
                f"unknown sample field {field!r} (expected one of "
                f"{', '.join(SAMPLE_FIELDS)})"
            )
        return [list(s[field]) for s in self.samples]

    def link_utilization(self):
        """Mean flits/cycle per (router, port) across all samples."""
        if not self.samples:
            return {}
        totals = {}
        for sample in self.samples:
            for router, ports in enumerate(sample["port_flits"]):
                for port, flits in enumerate(ports):
                    totals[(router, port)] = totals.get((router, port), 0) + flits
        cycles = self.period * len(self.samples)
        return {key: flits / cycles for key, flits in totals.items()}

    def hottest_links(self, top=10):
        """The ``top`` busiest (router, port, flits/cycle), busiest first."""
        util = self.link_utilization()
        ranked = sorted(util.items(), key=lambda kv: kv[1], reverse=True)
        return [(r, p, u) for (r, p), u in ranked[:top] if u > 0][:top]

    def heatmap(self, field="buffered", reduce="mean"):
        """ASCII heatmap of a per-router field on a ``k x k`` grid.

        ``reduce`` is ``mean`` (across all samples) or ``last`` (the
        most recent sample only). Requires a grid topology exposing
        ``k`` and ``router_at`` (mesh, torus, cmesh); raises TypeError
        otherwise.
        """
        topo = self.network.topology
        k = getattr(topo, "k", None)
        if k is None:
            raise TypeError("heatmap requires a k x k grid topology")
        series = self.router_series(field)
        if not series:
            return "(no samples)"
        if reduce == "last":
            values = series[-1]
        elif reduce == "mean":
            n = len(series)
            values = [
                sum(sample[r] for sample in series) / n
                for r in range(len(series[0]))
            ]
        else:
            raise ValueError(f"unknown reduce {reduce!r} (mean or last)")
        peak = max(values) if values else 0.0
        rows = []
        for y in range(k):
            rows.append(
                "".join(
                    shade(values[topo.router_at(x, y)], peak)
                    for x in range(k)
                )
            )
        return "\n".join(rows)

    # --- export -----------------------------------------------------------

    def to_dicts(self):
        """All retained samples, oldest first (JSON-serializable)."""
        return list(self.samples)

    def save_jsonl(self, path):
        """One sample per line; ``.gz`` paths are gzip-compressed."""
        from repro.obs.trace import open_text_write

        with open_text_write(path) as fh:
            for sample in self.samples:
                fh.write(json.dumps(sample, separators=(",", ":")))
                fh.write("\n")
