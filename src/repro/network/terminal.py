"""Terminal source and sink models.

A source owns an unbounded packet queue (so offered load past
saturation simply backs up), a one-flit-per-cycle injection channel
into its router's terminal input port, and the credit state for that
port's VCs. A sink consumes flits immediately and returns credits after
the configured credit delay, and reports completed packets to the
statistics collector.

Both drive their channels' timestamped deques directly (one tuple per
flit instead of a method call plus a list), and for plain XY DOR the
source memoises the first-hop routing decision per (source,
destination) until fault injection attaches (``prepare``/``next_hop``
are pure there; see :class:`repro.network.router.Router`).
"""

from collections import deque

from repro.obs.trace import NULL_TRACE
from repro.routing.dor import DORMesh


class Source:
    """Injects queued packets into the attached router, one flit/cycle."""

    def __init__(self, terminal, config, routing, flit_channel, credit_channel,
                 stats=None, trace=None):
        self.terminal = terminal
        self.config = config
        self.routing = routing
        self.flit_channel = flit_channel
        self.credit_channel = credit_channel  # read side: credits coming back
        self.stats = stats
        self.trace = trace if trace is not None else NULL_TRACE
        self.credits = [config.vc_buf_depth] * config.num_vcs
        self.queue = deque()  # packets waiting to start injection
        self._flits = None  # remaining flits of the in-flight packet
        self._vc = None  # VC the in-flight packet uses at the router
        #: Lifetime flits put on the injection channel (flit-conservation
        #: accounting; never reset, unlike the windowed collector).
        self.flits_sent = 0
        #: Cleared when the attached router dies (fault injection).
        self.alive = True
        # Channel deques keep their identity across load_state (the
        # channels load in place), so they are resolved once.
        self._fq = flit_channel._queue
        self._fdelay = flit_channel.delay
        self._cq = credit_channel._queue
        self._class_vcs = [
            tuple(config.vc_class_range(c)) for c in range(config.num_classes)
        ]
        #: First-hop memo for plain XY DOR; Network.attach_faults drops it.
        self._route_cache = {} if type(routing) is DORMesh else None

    def enqueue(self, packet):
        self.queue.append(packet)

    def state_dict(self, ctx):
        """Serialize source state plus its write-side injection channel."""
        return {
            "credits": list(self.credits),
            "queue": [ctx.packet_ref(p) for p in self.queue],
            "inflight": (
                [ctx.flit(f) for f in self._flits]
                if self._flits else None
            ),
            "vc": self._vc,
            "flits_sent": self.flits_sent,
            "alive": self.alive,
            "flit_channel": self.flit_channel.state_dict(ctx),
        }

    def load_state(self, state, ctx):
        self.credits = list(state["credits"])
        self.queue = deque(ctx.packet(pid) for pid in state["queue"])
        self._flits = (
            deque(ctx.flit(f) for f in state["inflight"])
            if state["inflight"] is not None
            else None
        )
        self._vc = state["vc"]
        self.flits_sent = state["flits_sent"]
        self.alive = state["alive"]
        self.flit_channel.load_state(state["flit_channel"], ctx)

    @property
    def backlog(self):
        """Packets not yet fully injected."""
        return len(self.queue) + (1 if self._flits else 0)

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
            # Fault injection killed the packet mid-injection: its
            # remaining flits never enter the network (nothing was
            # charged for them, so nothing needs returning).
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
        # The routing decision (UGAL's adaptive choice) is made when the
        # head flit is about to enter the network, using then-current
        # local congestion.
        routing = self.routing
        cache = self._route_cache
        if cache is not None:
            packet.route_state = None  # DORMesh.prepare(), inlined
            key = (packet.src, packet.dest)
            hop = cache.get(key)
            if hop is None:
                first_router, _ = routing.topology.terminal_attachment(
                    packet.src
                )
                hop = cache[key] = routing.next_hop(first_router, packet)
        else:
            # Unmemoised routing calls next_hop only after the VC-credit
            # gate passes: an adaptive function may consult state or
            # mark the packet.
            routing.prepare(packet)
            hop = None
        # Lowest-numbered VC of the class with a credit (Section 4.6).
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
        # Look-ahead routing for the first hop: the output port at the
        # first router, and the VC class for the hop leaving it. The VC
        # *index* at the first router (head.vc) is the one picked above
        # from the packet's initial class.
        head.out_port, head.vc_class = hop
        packet.time_injected = cycle
        if self.stats is not None:
            self.stats.record_injected(packet, cycle)
        self._flits = deque(flits)
        self._vc = vc


class Sink:
    """Consumes ejected flits and returns credits upstream."""

    def __init__(self, terminal, flit_channel, credit_channel, stats,
                 trace=None):
        self.terminal = terminal
        self.flit_channel = flit_channel  # read side: flits arriving
        self.credit_channel = credit_channel  # write side: credits back
        self.stats = stats
        self.trace = trace if trace is not None else NULL_TRACE
        #: Lifetime flits taken off the ejection channel (including
        #: discarded corrupted/killed ones — they left the network).
        self.flits_consumed = 0
        self._fq = flit_channel._queue
        self._cq = credit_channel._queue
        self._cdelay = credit_channel.delay

    def state_dict(self, ctx):
        """Serialize sink state plus its write-side credit channel."""
        return {
            "flits_consumed": self.flits_consumed,
            "credit_channel": self.credit_channel.state_dict(ctx),
        }

    def load_state(self, state, ctx):
        self.flits_consumed = state["flits_consumed"]
        self.credit_channel.load_state(state["credit_channel"], ctx)

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
                # End-to-end check failed (fault injection): the flit
                # still consumed buffer space and returns its credit,
                # but the packet is not delivered to the terminal, so
                # it never reaches the statistics collector.
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
