"""Per-packet lifecycle spans reconstructed from an event trace.

The paper's central claim is that packet chaining removes *allocation*
latency specifically. End-to-end averages cannot show that; this module
can. From a trace carrying ``packet_created``, ``flit_injected``,
``head_arrived``, ``vc_alloc``, ``sa_grant``, ``pc_chain``,
``flit_routed``, and ``flit_ejected`` events it rebuilds, for every
packet, the full timeline

    created -> injected -> [hop: arrived -> (vc granted) -> granted ->
    departed]* -> head ejected -> tail ejected

and decomposes packet latency into five exactly-summing components:

- **source_queue** — cycles waiting at the source terminal before the
  head flit entered the network;
- **vc_wait** — cycles a head waited for an output VC before it could
  even bid for the switch (only nonzero under split VC allocation);
- **sa_wait** — cycles between a head reaching the front of a router
  and winning switch allocation *or being chained*: the allocation
  latency packet chaining attacks;
- **traversal** — wire/switch pipeline cycles (channel delays, the ST
  stage, the one-cycle chain handoff);
- **serialization** — body/tail flits streaming out behind the head.

``source_queue + vc_wait + sa_wait + traversal + serialization ==
latency`` holds per packet by construction (the segments telescope).

Spans also export as Chrome trace-event JSON (one "thread" per packet,
one slice per segment) for the Perfetto / ``chrome://tracing`` UI.
"""

import json

from repro.obs.metrics import LATENCY_EDGES

#: Decomposition component names, in timeline order.
SPAN_COMPONENTS = (
    "source_queue",
    "vc_wait",
    "sa_wait",
    "traversal",
    "serialization",
)


class Hop:
    """One router visit by a packet's head flit."""

    __slots__ = ("router", "arrived", "vc_cycle", "grant", "departed", "chained")

    def __init__(self, router, arrived):
        self.router = router
        self.arrived = arrived
        self.vc_cycle = None  # output VC claimed (split VA: before grant)
        self.grant = None  # sa_grant or pc_chain cycle
        self.departed = None  # head flit_routed cycle
        self.chained = False  # granted by the PC allocator, not SA

    @property
    def complete(self):
        return self.grant is not None and self.departed is not None

    @property
    def vc_wait(self):
        """Cycles stalled waiting for an output VC before bidding SA."""
        if self.vc_cycle is not None and self.vc_cycle < self.grant:
            return self.vc_cycle - self.arrived
        return 0

    @property
    def alloc_wait(self):
        """Cycles from head arrival to allocation (VC wait excluded)."""
        return self.grant - self.arrived - self.vc_wait

    def to_dict(self):
        return {
            "router": self.router,
            "arrived": self.arrived,
            "grant": self.grant,
            "departed": self.departed,
            "chained": self.chained,
            "vc_wait": self.vc_wait,
            "sa_wait": self.alloc_wait,
        }


class PacketSpan:
    """The reconstructed lifecycle of one packet."""

    __slots__ = (
        "pid", "src", "dest", "size", "created", "injected",
        "head_ejected", "ejected", "hops",
    )

    def __init__(self, pid):
        self.pid = pid
        self.src = None
        self.dest = None
        self.size = None
        self.created = None
        self.injected = None
        self.head_ejected = None
        self.ejected = None
        self.hops = []

    @property
    def complete(self):
        return (
            self.created is not None
            and self.injected is not None
            and self.head_ejected is not None
            and self.ejected is not None
            and self.hops
            and all(h.complete for h in self.hops)
        )

    @property
    def latency(self):
        return self.ejected - self.created

    @property
    def source_queue(self):
        return self.injected - self.created

    @property
    def vc_wait(self):
        return sum(h.vc_wait for h in self.hops)

    @property
    def sa_wait(self):
        return sum(h.alloc_wait for h in self.hops)

    @property
    def serialization(self):
        return self.ejected - self.head_ejected

    @property
    def traversal(self):
        """Wire + pipeline cycles: everything that is not waiting.

        Computed as the residual so the five components always sum to
        the packet latency, even for exotic channel delays.
        """
        return (
            self.latency - self.source_queue - self.vc_wait
            - self.sa_wait - self.serialization
        )

    def components(self):
        return {
            "source_queue": self.source_queue,
            "vc_wait": self.vc_wait,
            "sa_wait": self.sa_wait,
            "traversal": self.traversal,
            "serialization": self.serialization,
        }

    def to_dict(self):
        data = self.components()
        data.update(
            pid=self.pid, src=self.src, dest=self.dest, size=self.size,
            created=self.created, ejected=self.ejected,
            latency=self.latency, hops=[h.to_dict() for h in self.hops],
        )
        return data


class SpanSet:
    """All complete packet spans from one trace, plus aggregates."""

    def __init__(self, spans, incomplete=0):
        self.spans = spans
        self.incomplete = incomplete

    def __len__(self):
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)

    # --- aggregation ------------------------------------------------------

    def decomposition(self):
        """Totals / means of each latency component across all packets."""
        n = len(self.spans)
        totals = {name: 0 for name in SPAN_COMPONENTS}
        latency_total = 0
        hop_count = chained = 0
        chained_wait = sa_hop_wait = 0
        for span in self.spans:
            latency_total += span.latency
            for name, value in span.components().items():
                totals[name] += value
            for hop in span.hops:
                hop_count += 1
                if hop.chained:
                    chained += 1
                    chained_wait += hop.alloc_wait
                else:
                    sa_hop_wait += hop.alloc_wait
        mean = {
            name: (totals[name] / n if n else 0.0) for name in SPAN_COMPONENTS
        }
        return {
            "packets": n,
            "incomplete": self.incomplete,
            "latency_total": latency_total,
            "latency_mean": latency_total / n if n else 0.0,
            "total": totals,
            "mean": mean,
            "hops": {
                "count": hop_count,
                "chained": chained,
                "chained_fraction": chained / hop_count if hop_count else 0.0,
                "mean_wait": (
                    (chained_wait + sa_hop_wait) / hop_count
                    if hop_count else 0.0
                ),
                "mean_wait_chained": (
                    chained_wait / chained if chained else 0.0
                ),
                "mean_wait_sa": (
                    sa_hop_wait / (hop_count - chained)
                    if hop_count > chained else 0.0
                ),
            },
        }

    def publish_metrics(self, registry):
        """Register per-packet component histograms (and hop counters)."""
        for name in SPAN_COMPONENTS:
            hist = registry.histogram(f"span_{name}_cycles", LATENCY_EDGES)
            for span in self.spans:
                hist.observe(span.components()[name])
        decomp = self.decomposition()
        registry.counter("span_packets").inc(decomp["packets"])
        registry.counter("span_packets_incomplete").inc(decomp["incomplete"])
        registry.counter("span_hops_chained").inc(decomp["hops"]["chained"])
        registry.counter("span_hops").inc(decomp["hops"]["count"])
        return registry

    # --- Chrome trace-event / Perfetto export -----------------------------

    def to_chrome_trace(self, limit=None):
        """Chrome trace-event JSON (load in Perfetto / chrome://tracing).

        One "thread" per packet, one complete-event slice per lifecycle
        segment; ``ts``/``dur`` are simulation cycles (displayed as
        microseconds). ``limit`` caps the number of packets exported.
        """
        events = []
        spans = self.spans if limit is None else self.spans[:limit]
        for span in spans:
            tid = span.pid
            events.append({
                "ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
                "args": {
                    "name": f"packet {span.pid} ({span.src}->{span.dest})"
                },
            })

            def slice_(name, start, dur, args=None):
                if dur <= 0:
                    return
                ev = {
                    "ph": "X", "name": name, "cat": "span", "pid": 0,
                    "tid": tid, "ts": start, "dur": dur,
                }
                if args:
                    ev["args"] = args
                events.append(ev)

            slice_("source_queue", span.created, span.source_queue)
            prev_dep = span.injected
            for hop in span.hops:
                slice_("link", prev_dep, hop.arrived - prev_dep)
                label = "pc_chain" if hop.chained else "sa_wait"
                slice_(
                    label, hop.arrived, hop.grant - hop.arrived,
                    args={"router": hop.router, "vc_wait": hop.vc_wait},
                )
                slice_("switch", hop.grant, hop.departed - hop.grant,
                       args={"router": hop.router})
                prev_dep = hop.departed
            slice_("link", prev_dep, span.head_ejected - prev_dep)
            slice_("serialization", span.head_ejected, span.serialization)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save_chrome_trace(self, path, limit=None):
        from repro.obs.trace import open_text_write

        with open_text_write(path) as fh:
            json.dump(self.to_chrome_trace(limit=limit), fh)
            fh.write("\n")


def build_spans(events):
    """Reconstruct a :class:`SpanSet` from an iterable of trace events.

    Tolerates filtered traces: packets missing any lifecycle event are
    counted as incomplete and excluded from aggregation. Events arriving
    for a closed hop (mid-packet re-allocation after a connection was
    cut, body-flit routing) are ignored by design — spans track head
    flits; body-flit cost lands in the serialization component.
    """
    spans = {}
    open_hops = {}  # pid -> Hop currently being serviced

    def span_for(pid):
        span = spans.get(pid)
        if span is None:
            span = spans[pid] = PacketSpan(pid)
        return span

    for event in events:
        ev = event["ev"]
        pid = event.get("pid")
        if pid is None:
            continue
        cycle = event["cycle"]
        if ev == "packet_created":
            span = span_for(pid)
            span.created = cycle
            span.src = event.get("src")
            span.dest = event.get("dest")
            span.size = event.get("size")
        elif ev == "flit_injected":
            if event.get("idx") == 0:
                span_for(pid).injected = cycle
        elif ev == "head_arrived":
            span = span_for(pid)
            hop = Hop(event["router"], cycle)
            span.hops.append(hop)
            open_hops[pid] = hop
        elif ev == "vc_alloc":
            hop = open_hops.get(pid)
            if hop is not None and hop.vc_cycle is None:
                hop.vc_cycle = cycle
        elif ev in ("sa_grant", "pc_chain"):
            hop = open_hops.get(pid)
            if hop is not None and hop.grant is None:
                hop.grant = cycle
                hop.chained = ev == "pc_chain"
        elif ev == "flit_routed":
            if event.get("idx") == 0:
                hop = open_hops.pop(pid, None)
                if hop is not None and hop.grant is not None:
                    hop.departed = cycle
                # A popped hop with no grant (filtered trace) stays
                # incomplete, excluding the packet from aggregation.
        elif ev == "flit_ejected":
            span = span_for(pid)
            if event.get("idx") == 0:
                span.head_ejected = cycle
            if event.get("tail"):
                span.ejected = cycle

    complete = [s for s in spans.values() if s.complete]
    complete.sort(key=lambda s: s.pid)
    return SpanSet(complete, incomplete=len(spans) - len(complete))


def format_spans_report(span_set, top=5):
    """Human-readable latency-decomposition report for one SpanSet."""
    decomp = span_set.decomposition()
    lines = []
    lines.append(
        f"spans: {decomp['packets']} complete packets"
        f" ({decomp['incomplete']} incomplete dropped)"
    )
    if not decomp["packets"]:
        lines.append("  (no complete packet lifecycles in trace; "
                     "was the trace filtered?)")
        return "\n".join(lines) + "\n"
    lines.append("")
    lines.append("latency decomposition (mean cycles per packet)")
    latency_mean = decomp["latency_mean"]
    for name in SPAN_COMPONENTS:
        mean = decomp["mean"][name]
        pct = 100.0 * mean / latency_mean if latency_mean else 0.0
        bar = "#" * max(0, round(40 * mean / latency_mean)) if latency_mean \
            else ""
        lines.append(f"  {name:<14} {mean:>8.2f}  {pct:>5.1f}%  {bar}")
    lines.append(f"  {'total latency':<14} {latency_mean:>8.2f}")
    hops = decomp["hops"]
    lines.append("")
    lines.append(
        f"hops: {hops['count']} total, {hops['chained']} chained"
        f" ({100 * hops['chained_fraction']:.1f}%)"
    )
    lines.append(
        f"  allocation wait/hop: {hops['mean_wait']:.2f} cycles overall"
        f" (SA {hops['mean_wait_sa']:.2f},"
        f" chained {hops['mean_wait_chained']:.2f})"
    )
    worst = sorted(span_set, key=lambda s: s.sa_wait, reverse=True)[:top]
    if worst:
        lines.append("")
        lines.append(f"top {len(worst)} packets by allocation wait")
        lines.append(f"  {'pid':>8} {'sa_wait':>8} {'latency':>8} {'hops':>5}")
        for span in worst:
            lines.append(
                f"  {span.pid:>8} {span.sa_wait:>8} {span.latency:>8}"
                f" {len(span.hops):>5}"
            )
    return "\n".join(lines) + "\n"
