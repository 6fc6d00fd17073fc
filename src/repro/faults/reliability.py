"""End-to-end reliable delivery over a faulty network.

A :class:`ReliableTransport` gives terminals transport-layer recovery
on top of the lossy data path fault injection creates: every packet
carries a per-flow (source, dest) sequence number, the destination
acknowledges complete, uncorrupted packets, and the source retransmits
a fresh copy after a timeout, with exponential backoff and a bounded
retry budget.

Modeling choices (documented, deliberately simple):

- Acks travel **out of band** with a fixed ``ack_delay`` instead of as
  network packets, so reliability does not perturb the traffic pattern
  under study; ``ack_delay`` only delays when the source learns about
  a delivery.
- A retransmission is a brand-new :class:`~repro.network.flit.Packet`
  (new pid, fresh statistics identity) carrying the same flow/sequence
  tag; duplicate deliveries are counted and suppressed at the
  transport level.
- The retry timer starts when the packet is offered to the source
  (``Network.inject``), so the timeout must cover source queueing plus
  network latency.
"""

import heapq
from collections import deque

from repro.network.flit import Packet


class ReliabilityTag:
    """Transport header: flow id, sequence number, attempt count."""

    __slots__ = ("flow", "seq", "attempt")

    def __init__(self, flow, seq, attempt=0):
        self.flow = flow
        self.seq = seq
        self.attempt = attempt

    def __repr__(self):
        return (f"ReliabilityTag(flow={self.flow}, seq={self.seq}, "
                f"attempt={self.attempt})")


class ReliableTransport:
    """Sequence numbers, acks, timeouts, and bounded retransmission."""

    def __init__(self, timeout=512, max_retries=4, backoff=2.0, ack_delay=8):
        if timeout < 1:
            raise ValueError("reliability timeout must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.ack_delay = ack_delay
        self.network = None
        self._seq = {}  # flow -> next sequence number
        self.pending = {}  # (flow, seq) -> (packet, attempt)
        self._deadlines = []  # heap of (deadline, flow, seq, attempt)
        self._acks = deque()  # (due_cycle, key) FIFO (constant ack delay)
        self.delivered_keys = set()
        # Counters.
        self.tracked = 0
        self.delivered = 0
        self.duplicates = 0
        self.retransmissions = 0
        self.failed = []  # (flow, seq) given up after max_retries

    def bind(self, network):
        self.network = network
        # Sinks report complete uncorrupted packets through the stats
        # listener API; that callback is our (out-of-band) ack source.
        network.stats.add_listener(self)
        return self

    # --- injection hook (Network.inject) ---------------------------------

    def on_inject(self, packet, cycle):
        tag = packet.rtag
        if tag is None:
            flow = (packet.src, packet.dest)
            seq = self._seq.get(flow, 0)
            self._seq[flow] = seq + 1
            tag = packet.rtag = ReliabilityTag(flow, seq)
            self.tracked += 1
        key = (tag.flow, tag.seq)
        if key in self.delivered_keys:
            return  # a late retransmission of an already-delivered packet
        deadline = cycle + int(self.timeout * self.backoff ** tag.attempt)
        self.pending[key] = (packet, tag.attempt)
        heapq.heappush(
            self._deadlines, (deadline, tag.flow, tag.seq, tag.attempt)
        )

    # --- delivery hook (StatsCollector listener) --------------------------

    def on_packet_ejected(self, packet, cycle):
        tag = packet.rtag
        if tag is None:
            return
        key = (tag.flow, tag.seq)
        if key in self.delivered_keys:
            self.duplicates += 1
            return
        self.delivered_keys.add(key)
        self.delivered += 1
        self._acks.append((cycle + self.ack_delay, key))

    # --- per-cycle hook (Network.step) ------------------------------------

    def step(self, cycle):
        acks = self._acks
        while acks and acks[0][0] <= cycle:
            _, key = acks.popleft()
            self.pending.pop(key, None)
        heap = self._deadlines
        while heap and heap[0][0] <= cycle:
            _, flow, seq, attempt = heapq.heappop(heap)
            key = (flow, seq)
            entry = self.pending.get(key)
            if entry is None or entry[1] != attempt:
                continue  # acked, or superseded by a newer attempt
            if key in self.delivered_keys:
                continue  # delivered; the ack is still in flight
            packet, _ = entry
            if attempt >= self.max_retries:
                del self.pending[key]
                self.failed.append(key)
                tr = self.network.trace
                if tr.active:
                    tr.emit(
                        "delivery_failed", cycle, pid=packet.pid,
                        src=packet.src, dest=packet.dest, seq=seq,
                        attempts=attempt + 1,
                    )
                continue
            clone = Packet(
                packet.src, packet.dest, packet.size, cycle,
                vc_class=packet.vc_class, priority=packet.priority,
            )
            clone.rtag = ReliabilityTag(flow, seq, attempt + 1)
            self.retransmissions += 1
            tr = self.network.trace
            if tr.active:
                tr.emit(
                    "retransmit", cycle, pid=clone.pid, src=packet.src,
                    dest=packet.dest, seq=seq, attempt=attempt + 1,
                )
            self.network.inject(clone)

    # --- reporting --------------------------------------------------------

    def idle(self):
        """True when no packet is awaiting delivery or retransmission."""
        return not self.pending

    def summary(self):
        return {
            "tracked": self.tracked,
            "delivered": self.delivered,
            "duplicates": self.duplicates,
            "retransmissions": self.retransmissions,
            "failed": len(self.failed),
            "pending": len(self.pending),
        }

    def publish_metrics(self, registry):
        registry.counter("reliable_tracked").inc(self.tracked)
        registry.counter("reliable_delivered").inc(self.delivered)
        registry.counter("retransmissions").inc(self.retransmissions)
        registry.counter("duplicate_deliveries").inc(self.duplicates)
        registry.counter("delivery_failures").inc(len(self.failed))
        return registry
