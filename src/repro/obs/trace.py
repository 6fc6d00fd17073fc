"""Structured event tracing for the simulation core.

A :class:`TraceBus` carries typed, per-cycle router events (flit
injected/routed/ejected, SA grants, PC chains, VC allocation,
connection lifecycle, starvation releases) from the simulator's hot
paths to attached sinks. The design goal is *zero overhead when
disabled*: every emission site guards on ``bus.active``, a plain
attribute that is ``False`` whenever tracing is off **or** no sink is
attached, so the disabled cost is one attribute load and one branch.

Events are flat dicts so they serialize directly to JSONL::

    {"ev": "sa_grant", "cycle": 412, "router": 9, "port": 2,
     "pid": 1731, "in_port": 4, "vc": 1, "out_vc": 0}

Common keys: ``ev`` (event type), ``cycle``, and — where meaningful —
``router``, ``port`` (the *output* port of the event), ``pid`` (packet
id). Remaining keys are event-specific.

The module also owns the JSONL format of every durable log (job store,
cache index, sweep and shard journals): :func:`append_jsonl` is their
one fsynced writer and :func:`read_jsonl` the one reader, for those
logs and for traces and digest streams alike. Heartbeats are not logs:
each is one JSON object replaced in place (:class:`repro.proc.Heartbeat`).
"""

import gzip
import json
import os
import sys

#: The typed events the simulation core emits.
EVENT_TYPES = frozenset(
    {
        "packet_created",  # injector generated a packet (traffic/injection)
        "flit_injected",  # source put a flit on its injection channel
        "head_arrived",  # head flit entered a router's input VC
        "flit_routed",  # router sent a flit out a port (switch traversal)
        "sa_grant",  # switch allocator grant committed
        "pc_chain",  # packet chaining took over a connection
        "flit_ejected",  # sink consumed a flit
        "vc_alloc",  # output VC claimed by a packet
        "vc_free",  # output VC released by a departing tail
        "conn_held",  # switch connection register set
        "conn_released",  # switch connection register cleared (with reason)
        "starvation_tick",  # starvation control force-released a connection
        "drain_aborted",  # drain budget expired with flits still in flight
        # Fault injection and resilience (repro.faults):
        "link_failed",  # a link's data path went down
        "link_repaired",  # a transient link fault expired
        "router_failed",  # a router died (links down, buffers lost)
        "flit_dropped",  # a flit was lost to a fault (credit returned)
        "flit_corrupted",  # a flit was corrupted in flight
        "packet_killed",  # a packet was abandoned after a flit loss
        "conn_torn_down",  # a held connection was dismantled by a fault
        "detour",  # routing diverted around a dead link
        "retransmit",  # the reliable transport re-injected a packet
        "delivery_failed",  # the retry budget ran out for a packet
        "invariant_violation",  # a runtime invariant failed (report mode)
        "watchdog_hang",  # the watchdog declared deadlock/livelock
    }
)


class TraceFilter:
    """Per-event filtering by router, port, packet id, or event type.

    Each criterion is a set (or ``None`` for "accept all"); an event
    passes if every non-``None`` criterion matches. Events without the
    filtered key (e.g. ``packet_created`` has no router) are dropped by
    a ``routers``/``ports`` filter and kept otherwise.
    """

    __slots__ = ("routers", "ports", "packets", "events")

    def __init__(self, routers=None, ports=None, packets=None, events=None):
        self.routers = set(routers) if routers is not None else None
        self.ports = set(ports) if ports is not None else None
        self.packets = set(packets) if packets is not None else None
        if events is not None:
            events = {str(e) for e in events}
            unknown = events - EVENT_TYPES
            if unknown:
                raise ValueError(f"unknown trace event types: {sorted(unknown)}")
        self.events = events

    def admits(self, event):
        if self.events is not None and event["ev"] not in self.events:
            return False
        if self.routers is not None and event.get("router") not in self.routers:
            return False
        if self.ports is not None and event.get("port") not in self.ports:
            return False
        if self.packets is not None and event.get("pid") not in self.packets:
            return False
        return True

    @classmethod
    def parse(cls, expr):
        """Parse a CLI filter expression.

        Comma-separated ``key=value`` pairs; ``|`` separates
        alternatives within a value. Keys: ``router``, ``port``,
        ``packet``, ``event``. Example::

            router=3|12,event=sa_grant|pc_chain
        """
        if not expr:
            return cls()
        kwargs = {}
        for pair in expr.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise ValueError(f"bad trace filter clause {pair!r} (need key=value)")
            key, _, value = pair.partition("=")
            key = key.strip()
            values = [v.strip() for v in value.split("|") if v.strip()]
            if key in ("router", "port", "packet"):
                kwargs[key + "s"] = [int(v) for v in values]
            elif key == "event":
                kwargs["events"] = values
            else:
                raise ValueError(
                    f"unknown trace filter key {key!r} "
                    "(expected router, port, packet, or event)"
                )
        return cls(**kwargs)


class MemorySink:
    """Collects events in a list (tests, `repro report` on live runs)."""

    def __init__(self):
        self.events = []

    def write(self, event):
        self.events.append(event)

    def close(self):
        pass


class RingSink:
    """Keeps only the most recent ``capacity`` events (bounded memory).

    The watchdog attaches one of these so its diagnostic bundle can
    include the trace tail leading up to a hang without retaining the
    whole run.
    """

    def __init__(self, capacity=256):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        from collections import deque

        self.events = deque(maxlen=capacity)

    def write(self, event):
        self.events.append(event)

    def close(self):
        pass


def open_text_write(path):
    """Open ``path`` for text writing; ``.gz`` paths are gzip-compressed."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "wt")
    return open(path, "w")


def open_text_read(path):
    """Open ``path`` for text reading: ``-`` is stdin, ``.gz`` is gzip."""
    if str(path) == "-":
        return sys.stdin
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt")
    return open(path)


class JsonlSink:
    """Appends one JSON object per line to a file (gzipped if ``.gz``).

    Usable as a context manager: ``with JsonlSink(path) as sink: ...``
    closes the file on exit.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open_text_write(path)

    def write(self, event):
        self._fh.write(json.dumps(event, separators=(",", ":")))
        self._fh.write("\n")

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class TraceBus:
    """Fan-out point between the simulation core and trace sinks.

    ``active`` is the hot-path guard: emission sites do

    .. code-block:: python

        tr = self.trace
        if tr.active:
            tr.emit("sa_grant", cycle, router=..., port=..., pid=...)

    and pay only the attribute load + branch when tracing is off. It is
    recomputed whenever sinks attach/detach or the bus is
    enabled/disabled, never read lazily.
    """

    __slots__ = ("sinks", "filter", "enabled", "active", "counts")

    def __init__(self, filter=None, enabled=True):
        self.sinks = []
        self.filter = filter
        self.enabled = enabled
        self.active = False
        self.counts = {}

    def _refresh(self):
        self.active = bool(self.enabled and self.sinks)

    def attach(self, sink):
        self.sinks.append(sink)
        self._refresh()
        return sink

    def detach(self, sink):
        self.sinks.remove(sink)
        self._refresh()

    def enable(self):
        self.enabled = True
        self._refresh()

    def disable(self):
        self.enabled = False
        self._refresh()

    def emit(self, ev, cycle, **fields):
        """Build, filter, count, and fan out one event."""
        event = {"ev": ev, "cycle": cycle}
        event.update(fields)
        if self.filter is not None and not self.filter.admits(event):
            return
        self.counts[ev] = self.counts.get(ev, 0) + 1
        for sink in self.sinks:
            sink.write(event)

    def close(self):
        for sink in self.sinks:
            sink.close()
        self.sinks = []
        self._refresh()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


#: Shared inert bus: ``active`` is always False (no sinks are ever
#: attached), so components can unconditionally hold a trace reference.
NULL_TRACE = TraceBus(enabled=False)


def append_jsonl(path, record):
    """Durably append one JSON line to ``path``.

    The file is opened, written, flushed, fsynced and closed for every
    record, so a record that was appended survives the writer dying the
    next instant; a writer killed mid-append leaves at most one torn
    final line, which :func:`read_jsonl` discards. The next append cuts
    that torn line off first, so records written after a crash are not
    glued onto it and lost.
    """
    line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        keep = _last_line_end(fh, end)
        if keep != end:
            fh.truncate(keep)
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())


def _last_line_end(fh, end):
    """Offset just past the last newline in ``fh``'s first ``end`` bytes.

    A whole log ends in a newline, so the first probe reads one byte;
    only a torn tail is scanned further back. 0 if there is no newline.
    """
    pos, step = end, 1
    while pos > 0:
        step = min(pos, step)
        pos -= step
        fh.seek(pos)
        newline = fh.read(step).rfind(b"\n")
        if newline >= 0:
            return pos + newline + 1
        step = 1 << 16
    return 0


def read_jsonl(path):
    """Load a JSONL log back into a list of dicts, up to a torn tail.

    ``path`` may be a plain file, a ``.gz`` gzip-compressed file, or
    ``-`` for stdin (so traces pipe straight into ``repro report``).
    Blank lines and lines that are not objects are skipped. Reading
    stops at the first line that does not decode, at a final line with
    no newline, and at the end of a ``.gz`` stream cut short: a writer
    killed mid-record leaves exactly that, and the intact records before
    it load. A record counts once its newline is on disk, so a final
    line that happens to be whole JSON is dropped too — the next
    :func:`append_jsonl` cuts it off, and no reader may see it first.
    """
    records = []
    fh = open_text_read(path)
    try:
        for line in fh:
            if not line.endswith("\n"):
                break  # unterminated final line: never acknowledged
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail: the writer died mid-append
            if isinstance(record, dict):
                records.append(record)
    except EOFError:
        pass  # a killed .gz writer never wrote the end-of-stream marker
    finally:
        if fh is not sys.stdin:
            fh.close()
    return records
