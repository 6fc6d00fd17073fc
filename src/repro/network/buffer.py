"""Input virtual-channel buffer state."""

from collections import deque


class VirtualChannel:
    """One input VC: a FIFO of flits plus in-service packet state.

    The VC services one packet at a time (the one whose flit is at the
    front). ``active_*`` fields describe that packet once its head flit
    has departed: the output port it is using, the output VC it was
    assigned, and whether it is mid-transmission. They are cleared when
    the tail departs. This mirrors the "control state logic of input
    VCs" the paper relies on for chaining partially transmitted packets.
    """

    __slots__ = (
        "capacity",
        "queue",
        "active_packet",
        "active_out_port",
        "active_out_vc",
        "wait_cycles",
        "fill",
        "occupancy",
    )

    def __init__(self, capacity, fill=None, occupancy=None):
        if capacity < 1:
            raise ValueError(f"VC capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.queue = deque()
        self.active_packet = None
        self.active_out_port = None
        self.active_out_vc = None
        # Consecutive cycles the current front head flit has waited
        # without departing (blocking-latency accounting, Section 4.3).
        self.wait_cycles = 0
        # Shared occupancy cell (a one-element list) owned by the
        # router: every push/pop updates it, so the router knows its
        # total buffered-flit count in O(1) for the idle fast path.
        self.fill = fill
        # The owning router's (per-port occupancy bitmasks, port, bit):
        # this VC's bit is set exactly while its queue is non-empty.
        self.occupancy = occupancy

    def __len__(self):
        return len(self.queue)

    def state_dict(self, ctx):
        return {
            "queue": [ctx.flit(flit) for flit in self.queue],
            "active_packet": (
                ctx.packet_ref(self.active_packet)
                if self.active_packet is not None
                else None
            ),
            "active_out_port": self.active_out_port,
            "active_out_vc": self.active_out_vc,
            "wait_cycles": self.wait_cycles,
        }

    def load_state(self, state, ctx):
        old_len = len(self.queue)
        self.queue = deque(ctx.flit(f) for f in state["queue"])
        if self.fill is not None:
            self.fill[0] += len(self.queue) - old_len
        self._sync_occupancy()
        self.active_packet = (
            ctx.packet(state["active_packet"])
            if state["active_packet"] is not None
            else None
        )
        self.active_out_port = state["active_out_port"]
        self.active_out_vc = state["active_out_vc"]
        self.wait_cycles = state["wait_cycles"]

    @property
    def free_slots(self):
        return self.capacity - len(self.queue)

    def front(self):
        """The flit at the head of the buffer, or None."""
        return self.queue[0] if self.queue else None

    def push(self, flit):
        if len(self.queue) >= self.capacity:
            raise OverflowError("VC buffer overflow (credit protocol violated)")
        self.queue.append(flit)
        if self.fill is not None:
            self.fill[0] += 1
        if self.occupancy is not None:
            masks, port, bit = self.occupancy
            masks[port] |= bit

    def pop(self):
        """Dequeue the front flit.

        The router sets ``active_*`` (via :meth:`start_packet`) when a
        head flit is granted; popping the tail clears it.
        """
        flit = self.queue.popleft()
        if flit.is_tail:
            self.active_packet = None
            self.active_out_port = None
            self.active_out_vc = None
        self.wait_cycles = 0
        if self.fill is not None:
            self.fill[0] -= 1
        if not self.queue:
            self._sync_occupancy()
        return flit

    def _sync_occupancy(self):
        if self.occupancy is not None:
            masks, port, bit = self.occupancy
            if self.queue:
                masks[port] |= bit
            else:
                masks[port] &= ~bit

    def start_packet(self, packet, out_port, out_vc):
        """Record the front packet's switch/VC allocation state."""
        self.active_packet = packet
        self.active_out_port = out_port
        self.active_out_vc = out_vc

    def in_service(self):
        """True if a packet is partially transmitted from this VC."""
        return self.active_packet is not None

    def front_out_port(self):
        """Output port requested by the front flit's packet.

        For a head flit this is the look-ahead route it carries; for a
        body/tail flit it is the in-service packet's stored route.
        """
        flit = self.front()
        if flit is None:
            return None
        if flit.is_head:
            return flit.out_port
        return self.active_out_port

    def front_is_parked_body(self):
        """True if the front flit is a body/tail without a connection.

        Happens when a connection was released mid-packet (credit
        starvation or starvation control): the packet must re-win switch
        allocation using its already-assigned output VC.
        """
        flit = self.front()
        return flit is not None and not flit.is_head and self.in_service()
