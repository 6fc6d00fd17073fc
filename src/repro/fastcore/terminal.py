"""The fast core's terminals: inlined channel I/O, memoized first hops.

FastSource and FastSink reproduce the reference
:class:`~repro.network.terminal.Source`/``Sink`` behavior exactly,
fault injection included (a packet killed mid-injection is abandoned,
corrupted/killed packets are discarded at the sink). The differences
are mechanical:

- channel sends/receives append/pop the timestamped deques directly
  (one tuple per flit instead of a method call plus a list);
- the per-class VC ranges are resolved once at construction;
- for plain XY DOR (no faults, no detour state) the first-hop routing
  decision is memoized per destination — ``prepare``/``next_hop`` are
  pure there, see :class:`repro.fastcore.router.FastRouter`
  (``FastNetwork.attach_faults`` drops the memo).

Checkpoint state layout is inherited unchanged; the cached channel
deques keep their identity across ``load_state`` (channels load in
place), so snapshots round-trip with the reference terminals.
"""

from collections import deque

from repro.network.terminal import Sink, Source
from repro.routing.dor import DORMesh


class FastSource(Source):
    """Reference source with inlined injection fast paths."""

    def __init__(self, terminal, config, routing, flit_channel, credit_channel,
                 stats=None, trace=None):
        super().__init__(terminal, config, routing, flit_channel,
                         credit_channel, stats=stats, trace=trace)
        self._fq = flit_channel._queue
        self._fdelay = flit_channel.delay
        self._cq = credit_channel._queue
        self._class_vcs = [
            tuple(config.vc_class_range(c)) for c in range(config.num_classes)
        ]
        self._route_cache = {} if type(routing) is DORMesh else None

    def receive_credits(self, cycle):
        cq = self._cq
        credits = self.credits
        while cq and cq[0][0] <= cycle:
            due, vc = cq.popleft()
            if due < cycle:
                raise AssertionError("channel item missed its delivery cycle")
            credits[vc] += 1

    def step(self, cycle):
        """Send at most one flit into the injection channel."""
        flits = self._flits
        if not flits:
            self._start_next_packet(cycle)
            flits = self._flits
            if not flits:
                return
        if flits[0].packet.killed:
            # Killed mid-injection: the remaining flits never enter the
            # network (see Source.step).
            self._flits = None
            self._vc = None
            return
        vc = self._vc
        if self.credits[vc] == 0:
            return
        flit = flits.popleft()
        flit.vc = vc
        self.credits[vc] -= 1
        self._fq.append((cycle + self._fdelay, flit))
        self.flits_sent += 1
        tr = self.trace
        if tr.active:
            tr.emit(
                "flit_injected", cycle, terminal=self.terminal,
                pid=flit.packet.pid, idx=flit.index, vc=vc,
            )

    def _start_next_packet(self, cycle):
        queue = self.queue
        if not queue:
            return
        packet = queue[0]
        routing = self.routing
        cache = self._route_cache
        if cache is not None:
            packet.route_state = None  # inlined DORMesh.prepare()
            key = (packet.src, packet.dest)
            hop = cache.get(key)
            if hop is None:
                first_router, _ = routing.topology.terminal_attachment(
                    packet.src
                )
                hop = cache[key] = routing.next_hop(first_router, packet)
        else:
            # Non-memoizable routing: keep the reference call order
            # (next_hop only after the VC-credit gate passes, since an
            # adaptive function may consult state or mark the packet).
            routing.prepare(packet)
            hop = None
        # Inlined _pick_vc: lowest-numbered VC of the class with credit.
        credits = self.credits
        for vc in self._class_vcs[packet.vc_class]:
            if credits[vc] > 0:
                break
        else:
            return  # no credit on any VC of the class; retry next cycle
        queue.popleft()
        flits = packet.flits()
        head = flits[0]
        if hop is None:
            first_router, _ = routing.topology.terminal_attachment(packet.src)
            hop = routing.next_hop(first_router, packet)
        head.out_port, head.vc_class = hop
        packet.time_injected = cycle
        if self.stats is not None:
            self.stats.record_injected(packet, cycle)
        self._flits = deque(flits)
        self._vc = vc


class FastSink(Sink):
    """Reference sink with the ejection loop inlined."""

    def __init__(self, terminal, flit_channel, credit_channel, stats,
                 trace=None):
        super().__init__(terminal, flit_channel, credit_channel, stats,
                         trace=trace)
        self._fq = flit_channel._queue
        self._cq = credit_channel._queue
        self._cdelay = credit_channel.delay

    def step(self, cycle):
        fq = self._fq
        cq = self._cq
        cdelay = self._cdelay
        stats = self.stats
        tr = self.trace
        consumed = 0
        while fq and fq[0][0] <= cycle:
            due, flit = fq.popleft()
            if due < cycle:
                raise AssertionError("channel item missed its delivery cycle")
            cq.append((cycle + cdelay, flit.vc))
            consumed += 1
            packet = flit.packet
            if packet.corrupted or packet.killed:
                # End-to-end check failed (see Sink.step): the credit
                # went back, the packet is not delivered.
                if flit.is_tail and tr.active:
                    tr.emit(
                        "packet_killed", cycle, terminal=self.terminal,
                        pid=packet.pid, reason="corrupted_at_sink",
                    )
                continue
            if flit.is_tail:
                packet.time_ejected = cycle
                stats.record_ejected(packet, cycle)
            stats.record_flit_ejected(flit, cycle)
            if tr.active:
                fields = {
                    "terminal": self.terminal,
                    "pid": packet.pid,
                    "idx": flit.index,
                    "tail": flit.is_tail,
                }
                if flit.is_tail:
                    fields["latency"] = cycle - packet.time_created
                    fields["blocked"] = packet.blocked_cycles
                tr.emit("flit_ejected", cycle, **fields)
        self.flits_consumed += consumed
