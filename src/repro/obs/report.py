"""Trace summarization behind the ``repro report`` subcommand.

Reconstructs router behavior from a JSONL event trace:

- **chain-length distribution** — how many packets streamed
  consecutively over each switch connection before it was finally
  released (1 = no chaining happened on that connection);
- **per-output-port contention** — flits sent and SA grants per
  (router, output port), surfacing hot ports;
- **top-blocked packets** — the packets that spent the most cycles
  blocked at the front of a VC, from tail-ejection events;
- raw event counts per type.

Chain runs are stitched from the connection lifecycle: a release whose
connection is chained onto *in the same cycle* continues the run (the
router releases the register when the tail departs and packet chaining
re-establishes it within the cycle), any other release finalizes it.
"""

from collections import Counter as TallyCounter


class TraceSummary:
    """Aggregates computed by :func:`summarize_trace`."""

    def __init__(self):
        self.event_counts = TallyCounter()
        self.chain_lengths = TallyCounter()  # run length -> occurrences
        self.port_flits = TallyCounter()  # (router, port) -> flits routed
        self.port_sa_grants = TallyCounter()  # (router, port) -> SA grants
        self.ejected_tails = []  # (blocked, latency, pid) per packet
        self.first_cycle = None
        self.last_cycle = None

    @property
    def total_chains(self):
        """Chained takeovers (should equal ChainStats.total_chains)."""
        return self.event_counts.get("pc_chain", 0)

    def top_blocked(self, n=10):
        """The n packets with the most blocked cycles, worst first."""
        return sorted(self.ejected_tails, reverse=True)[:n]

    def top_ports(self, n=10):
        return self.port_flits.most_common(n)


class _ChainRun:
    """Open chain run on one (router, output): length + pending release."""

    __slots__ = ("length", "pending_release_cycle")

    def __init__(self, length):
        self.length = length
        self.pending_release_cycle = None


def summarize_trace(events):
    """Summarize an iterable of event dicts (see obs.trace.read_jsonl)."""
    summary = TraceSummary()
    runs = {}  # (router, port) -> _ChainRun

    def finalize(key):
        run = runs.pop(key, None)
        if run is not None:
            summary.chain_lengths[run.length] += 1

    for event in events:
        ev = event["ev"]
        cycle = event.get("cycle")
        summary.event_counts[ev] += 1
        if cycle is not None:
            if summary.first_cycle is None:
                summary.first_cycle = cycle
            summary.last_cycle = cycle

        if ev == "flit_routed":
            summary.port_flits[(event["router"], event["port"])] += 1
        elif ev == "sa_grant":
            summary.port_sa_grants[(event["router"], event["port"])] += 1
        elif ev == "conn_held":
            key = (event["router"], event["port"])
            finalize(key)  # a lost release event; close the stale run
            runs[key] = _ChainRun(1)
        elif ev == "conn_released":
            key = (event["router"], event["port"])
            run = runs.get(key)
            if run is not None:
                # Defer: a same-cycle pc_chain continues this run.
                run.pending_release_cycle = cycle
        elif ev == "pc_chain":
            key = (event["router"], event["port"])
            run = runs.get(key)
            if run is None:
                # Chained onto a connection formed (and consumed) by an
                # SA tail grant this cycle: tail's packet + this one.
                runs[key] = _ChainRun(2)
            elif (
                run.pending_release_cycle is None
                or run.pending_release_cycle == cycle
            ):
                run.length += 1
                run.pending_release_cycle = None
            else:
                # The old run's release aged out un-chained; this chain
                # rides a connection an SA tail grant formed this cycle.
                finalize(key)
                runs[key] = _ChainRun(2)
        elif ev == "flit_ejected" and event.get("tail"):
            summary.ejected_tails.append(
                (event.get("blocked", 0), event.get("latency"), event["pid"])
            )

    for key in list(runs):
        finalize(key)
    return summary


def format_report(summary, top=10):
    """Human-readable report text for one TraceSummary."""
    lines = []
    span = ""
    if summary.first_cycle is not None:
        span = f" over cycles [{summary.first_cycle}, {summary.last_cycle}]"
    total_events = sum(summary.event_counts.values())
    lines.append(f"trace: {total_events} events{span}")
    lines.append("")
    lines.append("event counts")
    for ev, count in sorted(summary.event_counts.items()):
        lines.append(f"  {ev:<16} {count}")

    lines.append("")
    lines.append("chain-length distribution (packets per connection hold)")
    if summary.chain_lengths:
        peak = max(summary.chain_lengths.values())
        for length in sorted(summary.chain_lengths):
            count = summary.chain_lengths[length]
            bar = "#" * max(1, round(40 * count / peak))
            lines.append(f"  {length:>4} {count:>8}  {bar}")
        chained = sum(
            (length - 1) * count
            for length, count in summary.chain_lengths.items()
        )
        lines.append(f"  chained takeovers reconstructed: {chained}")
    else:
        lines.append("  (no connection events in trace)")

    lines.append("")
    lines.append(f"per-output-port contention (top {top} by flits routed)")
    if summary.port_flits:
        lines.append(f"  {'router':>6} {'port':>4} {'flits':>8} {'sa_grants':>9}")
        for (router, port), flits in summary.top_ports(top):
            grants = summary.port_sa_grants.get((router, port), 0)
            lines.append(f"  {router:>6} {port:>4} {flits:>8} {grants:>9}")
    else:
        lines.append("  (no flit_routed events in trace)")

    lines.append("")
    lines.append(f"top {top} blocked packets")
    blocked = summary.top_blocked(top)
    if blocked:
        lines.append(f"  {'pid':>8} {'blocked':>8} {'latency':>8}")
        for blocked_cycles, latency, pid in blocked:
            lat = f"{latency}" if latency is not None else "-"
            lines.append(f"  {pid:>8} {blocked_cycles:>8} {lat:>8}")
    else:
        lines.append("  (no tail ejection events in trace)")
    return "\n".join(lines) + "\n"
