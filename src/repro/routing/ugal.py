"""UGAL routing for the flattened butterfly (Singh, 2005).

Universal Globally-Adaptive Load-balancing chooses per packet, at the
source router, between the minimal path and a Valiant-style nonminimal
path through a random intermediate router, based on locally observable
congestion: route minimally iff

    q_min * H_min  <=  q_nonmin * H_nonmin + threshold

where q is the occupancy of the candidate first-hop output queue and H
the path hop count. "UGAL routes packets minimally using DOR with one
hop per dimension to their intermediate and final destinations"
(Section 4.6): inside each phase we resolve X then Y, and every
dimension hop is a single direct FBFly link.

Two traffic classes keep the two phases deadlock-free; the network's
VCs "are divided among the two traffic classes required by UGAL"
(Section 3). Phase 0 (toward the intermediate) uses class 0, phase 1
(toward the destination) uses class 1. Minimal packets start in
phase 1.
"""

from repro.routing.base import RoutingFunction


class UGALState:
    """Per-packet UGAL state: which phase we're in and via where."""

    __slots__ = ("phase", "intermediate", "minimal")

    def __init__(self, minimal, intermediate):
        self.minimal = minimal
        self.intermediate = intermediate
        self.phase = 1 if minimal else 0


class UGALFbfly(RoutingFunction):
    def __init__(self, topology, rng, threshold=1):
        super().__init__(topology)
        self.rng = rng
        self.threshold = threshold
        # (router, target) -> geometry, filled on first use: prepare()
        # and next_hop() ask for the same few hundred pairs every packet.
        self._hops_memo = {}
        self._first_port_memo = {}

    # --- path geometry -------------------------------------------------

    def _hops(self, src_router, dst_router):
        """Router-to-router hop count (one hop per differing dimension)."""
        key = (src_router, dst_router)
        try:
            return self._hops_memo[key]
        except KeyError:
            sx, sy = self.topology.coords(src_router)
            dx, dy = self.topology.coords(dst_router)
            hops = self._hops_memo[key] = int(sx != dx) + int(sy != dy)
            return hops

    def _first_port(self, router, target_router):
        """First-hop output port from router toward target (X then Y)."""
        key = (router, target_router)
        try:
            return self._first_port_memo[key]
        except KeyError:
            x, y = self.topology.coords(router)
            tx, ty = self.topology.coords(target_router)
            if x != tx:
                port = self.topology.row_port(router, tx)
            elif y != ty:
                port = self.topology.col_port(router, ty)
            else:
                port = None
            self._first_port_memo[key] = port
            return port

    # --- RoutingFunction API -------------------------------------------

    def prepare(self, packet):
        src_router, _ = self.topology.terminal_attachment(packet.src)
        dest_router, _ = self.topology.terminal_attachment(packet.dest)
        intermediate = self.rng.randrange(self.topology.num_routers)

        if src_router == dest_router or intermediate in (src_router, dest_router):
            packet.route_state = UGALState(True, intermediate)
        else:
            h_min = self._hops(src_router, dest_router)
            h_nonmin = self._hops(src_router, intermediate) + self._hops(
                intermediate, dest_router
            )
            q_min = self._port_congestion(src_router, dest_router)
            q_nonmin = self._port_congestion(src_router, intermediate)
            minimal = q_min * h_min <= q_nonmin * h_nonmin + self.threshold
            packet.route_state = UGALState(minimal, intermediate)
        packet.vc_class = packet.route_state.phase

    def _port_congestion(self, router, target_router):
        port = self._first_port(router, target_router)
        if port is None:
            return 0
        return self.congestion(router, port)

    def next_hop(self, router, packet):
        state = packet.route_state
        dest_router, dest_port = self.topology.terminal_attachment(packet.dest)
        if state.phase == 0 and router == state.intermediate:
            state.phase = 1
        if state.phase == 0:
            port = self._first_port(router, state.intermediate)
            if port is None:  # already at intermediate (handled above)
                raise AssertionError("phase-0 packet at intermediate")
            return port, 0
        if router == dest_router:
            return dest_port, 1
        return self._first_port(router, dest_router), 1
