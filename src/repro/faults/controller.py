"""Fault injection against a live network.

A :class:`FaultController` interprets a
:class:`~repro.faults.plan.FaultPlan` cycle by cycle: it flips links
and routers dead (and transient links back alive) at their scheduled
cycles, decides per-flit drops/corruptions with the plan's seeded RNG,
and keeps the counters (``failed_links``, ``dropped_flits``, ...) the
metrics registry and ``repro run --faults`` report.

Fault model (see DESIGN.md):

- The **data path** of a dead link drops every flit; the **credit /
  control plane is reliable**, so every dropped flit still returns its
  buffer credit upstream. This is the standard simplification that
  lets the network degrade without leaking flow-control state.
- A dropped flit kills its whole packet (partial packets cannot be
  reassembled); the remains are purged wherever they are buffered,
  with credits returned, and held/chained switch connections carrying
  the packet are torn down (``Router._fault_prepass``).
- A corrupted flit travels on and is discarded at the sink with its
  packet, like a failed end-to-end CRC; end-to-end recovery is the
  :class:`~repro.faults.reliability.ReliableTransport`'s business.
- A dead router loses its buffered flits (credits returned), all its
  links go down, and its terminal stops injecting. Channels into a
  dead router are drained every cycle so in-flight flits are accounted
  as dropped, not leaked.
"""

import random


class RouterFaultView:
    """Per-router window onto the controller's fault state.

    Routers hold one of these (``router.faults``) whenever a controller
    is bound; it answers the two hot-path questions — "is this output
    dead?" and "does this arriving flit survive?" — with set lookups.
    """

    __slots__ = ("controller", "router_id", "dead_in", "dead_out")

    def __init__(self, controller, router_id):
        self.controller = controller
        self.router_id = router_id
        self.dead_in = set()  # input ports whose feeding link is down
        self.dead_out = set()  # output ports whose outgoing link is down

    def kill(self, packet, cycle, reason):
        self.controller.kill_packet(packet, cycle, reason)

    def flit_purged(self, router, port, flit, cycle, reason="killed"):
        """Account a flit the router popped and discarded (credit sent
        by the router itself)."""
        self.controller.count_drop(router.router_id, port, flit, cycle, reason)

    def intercept(self, router, p, flit, cycle):
        """Receive-side fault filter; True if the flit was consumed.

        Dropped flits return their credit upstream here (reliable
        control plane), so credit conservation holds through any drop.
        """
        ctrl = self.controller
        packet = flit.packet
        if packet.killed:
            self._drop(router, p, flit, cycle, "killed")
            return True
        if p in self.dead_in:
            ctrl.kill_packet(packet, cycle, "link_down")
            self._drop(router, p, flit, cycle, "link_down")
            return True
        if ctrl.dead_routers:
            dest_router, _ = ctrl.network.topology.terminal_attachment(
                packet.dest
            )
            if dest_router in ctrl.dead_routers:
                # The destination can never eject; without this the
                # packet would detour around the dead router forever.
                ctrl.kill_packet(packet, cycle, "dest_dead")
                self._drop(router, p, flit, cycle, "dest_dead")
                return True
        fe = ctrl.flit_errors
        if fe is not None and fe.active(cycle):
            roll = ctrl.rng.random()
            if roll < fe.drop:
                ctrl.kill_packet(packet, cycle, "flit_drop")
                self._drop(router, p, flit, cycle, "flit_drop")
                return True
            if roll < fe.drop + fe.corrupt and not packet.corrupted:
                ctrl.corrupt_packet(router.router_id, p, flit, cycle)
        return False

    def _drop(self, router, p, flit, cycle, reason):
        up = router.credit_up_channels[p]
        if up is not None:
            up.send(flit.vc, cycle)
        self.controller.count_drop(router.router_id, p, flit, cycle, reason)


class FaultController:
    """Schedules and applies a fault plan; owns the fault counters."""

    def __init__(self, plan):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.flit_errors = (
            plan.flit_errors
            if plan.flit_errors is not None and plan.flit_errors.enabled
            else None
        )
        self.network = None
        self.views = []
        #: Live set of dead (router, port) sides, shared with routing
        #: so DOR can detour around dead links.
        self.dead_ports = set()
        self.dead_routers = set()
        self._down_count = {}  # canonical link key -> active fault count
        self._events = []  # (cycle, seq, kind, fault), sorted
        self._next_event = 0
        # Counters (the ISSUE's metric set).
        self.failed_links = 0
        self.repaired_links = 0
        self.failed_routers = 0
        self.dropped_flits = 0
        self.corrupted_flits = 0
        self.killed_packets = 0
        self.detours = 0

    # --- binding ----------------------------------------------------------

    def bind(self, network):
        """Validate the plan against ``network`` and arm the schedule."""
        self.network = network
        self.plan.validate(network.topology)
        events = []
        for lf in self.plan.links:
            events.append((lf.cycle, len(events), "link_down", lf))
            if not lf.permanent:
                events.append(
                    (lf.cycle + lf.duration, len(events), "link_up", lf)
                )
        for rf in self.plan.routers:
            events.append((rf.cycle, len(events), "router_down", rf))
        self._events = sorted(events)
        self._next_event = 0
        self.views = [
            RouterFaultView(self, r.router_id) for r in network.routers
        ]
        for router, view in zip(network.routers, self.views):
            router.faults = view
        network.routing.attach_faults(self.dead_ports, on_detour=self._detour)
        return self

    def _detour(self, router, preferred, taken, packet):
        self.detours += 1
        tr = self.network.trace
        if tr.active:
            tr.emit(
                "detour", self.network.cycle, router=router,
                port=taken, dead_port=preferred, pid=packet.pid,
            )

    # --- per-cycle hook (Network.step, before arrivals) -------------------

    def begin_cycle(self, cycle):
        events = self._events
        while self._next_event < len(events) and events[self._next_event][0] <= cycle:
            _, _, kind, fault = events[self._next_event]
            self._next_event += 1
            if kind == "link_down":
                self._link_down(fault.router, fault.port, cycle,
                                permanent=fault.permanent, explicit=True)
            elif kind == "link_up":
                self._link_up(fault.router, fault.port, cycle)
            else:
                self._router_down(fault.router, cycle)
        if self.dead_routers:
            self._drain_dead_routers(cycle)

    # --- link lifecycle ---------------------------------------------------

    def _link_sides(self, router, port):
        """Both (router, port) sides of a link, canonically ordered."""
        link = self.network.topology.link(router, port)
        if link is None:  # terminal port: single-sided
            return ((router, port),)
        return tuple(sorted(((router, port), (link.dest_router, link.dest_port))))

    def _link_down(self, router, port, cycle, permanent, explicit):
        sides = self._link_sides(router, port)
        count = self._down_count.get(sides, 0)
        self._down_count[sides] = count + 1
        if explicit:
            self.failed_links += 1
        if count == 0:
            for r, p in sides:
                self.views[r].dead_in.add(p)
                self.views[r].dead_out.add(p)
                self.dead_ports.add((r, p))
            tr = self.network.trace
            if tr.active:
                tr.emit(
                    "link_failed", cycle, router=router, port=port,
                    permanent=permanent,
                )

    def _link_up(self, router, port, cycle):
        sides = self._link_sides(router, port)
        count = self._down_count.get(sides, 0) - 1
        self._down_count[sides] = count
        self.repaired_links += 1
        if count == 0:
            for r, p in sides:
                if r in self.dead_routers:
                    continue  # dead routers never come back
                self.views[r].dead_in.discard(p)
                self.views[r].dead_out.discard(p)
                self.dead_ports.discard((r, p))
            tr = self.network.trace
            if tr.active:
                tr.emit("link_repaired", cycle, router=router, port=port)

    # --- router death -----------------------------------------------------

    def _router_down(self, router_id, cycle):
        if router_id in self.dead_routers:
            return
        self.dead_routers.add(router_id)
        self.failed_routers += 1
        net = self.network
        router = net.routers[router_id]
        view = self.views[router_id]
        # Every wired port goes down, both sides, forever.
        for port in range(router.radix):
            if net.topology.link(router_id, port) is not None:
                self._link_down(router_id, port, cycle,
                                permanent=True, explicit=False)
            view.dead_in.add(port)
            view.dead_out.add(port)
            self.dead_ports.add((router_id, port))
        # Buffered flits are lost; their credits go back upstream so the
        # senders' flow-control state stays conserved.
        for p in range(router.radix):
            up = router.credit_up_channels[p]
            for v, vcobj in enumerate(router.in_vcs[p]):
                for flit in vcobj.queue:
                    self.kill_packet(flit.packet, cycle, "router_down")
                    if up is not None:
                        up.send(v, cycle)
                    self.count_drop(router_id, p, flit, cycle, "router_down")
                # Keep the router's shared fill cell exact: its flit
                # accounting reads the cell, not the queues.
                router._fill[0] -= len(vcobj.queue)
                vcobj.queue.clear()
                vcobj.active_packet = None
                vcobj.active_out_port = None
                vcobj.active_out_vc = None
            router._occ_mask[p] = 0
        router.conn_in = [None] * router.radix
        router.conn_out = [None] * router.radix
        # Stop simulating the router and silence its terminals.
        net.retire_router(router_id)
        tr = net.trace
        if tr.active:
            tr.emit("router_failed", cycle, router=router_id)

    def _drain_dead_routers(self, cycle):
        """Swallow flits still flowing into dead routers, with credits."""
        net = self.network
        for router_id in self.dead_routers:
            router = net.routers[router_id]
            for p in range(router.radix):
                chan = router.in_flit_channels[p]
                if chan is None:
                    continue
                for flit in chan.receive(cycle):
                    self.kill_packet(flit.packet, cycle, "router_down")
                    up = router.credit_up_channels[p]
                    if up is not None:
                        up.send(flit.vc, cycle)
                    self.count_drop(router_id, p, flit, cycle, "router_down")

    # --- accounting -------------------------------------------------------

    def kill_packet(self, packet, cycle, reason):
        if packet.killed:
            return
        packet.killed = True
        self.killed_packets += 1
        tr = self.network.trace
        if tr.active:
            tr.emit("packet_killed", cycle, pid=packet.pid, reason=reason)

    def corrupt_packet(self, router_id, port, flit, cycle):
        flit.packet.corrupted = True
        self.corrupted_flits += 1
        tr = self.network.trace
        if tr.active:
            tr.emit(
                "flit_corrupted", cycle, router=router_id, port=port,
                pid=flit.packet.pid, idx=flit.index,
            )

    def count_drop(self, router_id, port, flit, cycle, reason):
        self.dropped_flits += 1
        tr = self.network.trace
        if tr.active:
            tr.emit(
                "flit_dropped", cycle, router=router_id, port=port,
                pid=flit.packet.pid, idx=flit.index, reason=reason,
            )

    # --- reporting --------------------------------------------------------

    def summary(self):
        return {
            "failed_links": self.failed_links,
            "repaired_links": self.repaired_links,
            "failed_routers": self.failed_routers,
            "dropped_flits": self.dropped_flits,
            "corrupted_flits": self.corrupted_flits,
            "killed_packets": self.killed_packets,
            "detours": self.detours,
            "dead_links_now": len(self._active_links()),
            "dead_routers_now": len(self.dead_routers),
        }

    def _active_links(self):
        return [key for key, count in self._down_count.items() if count > 0]

    def publish_metrics(self, registry):
        registry.counter(
            "failed_links", help="Link faults activated"
        ).inc(self.failed_links)
        registry.counter(
            "repaired_links", help="Transient link faults repaired"
        ).inc(self.repaired_links)
        registry.counter(
            "failed_routers", help="Router faults activated"
        ).inc(self.failed_routers)
        registry.counter(
            "dropped_flits", help="Flits lost to faults (credits returned)"
        ).inc(self.dropped_flits)
        registry.counter(
            "corrupted_flits", help="Flits corrupted in flight"
        ).inc(self.corrupted_flits)
        registry.counter(
            "killed_packets", help="Packets killed by fault injection"
        ).inc(self.killed_packets)
        registry.counter(
            "detours", help="Routing decisions diverted around dead links"
        ).inc(self.detours)
        return registry
