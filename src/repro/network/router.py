"""The two-stage VC router with incremental allocation and packet chaining.

Pipeline model (Section 2.4). A flit that wins switch allocation (SA)
in cycle *t* traverses the switch (ST) in cycle *t+1*; in simulation it
is dequeued at the end of cycle *t* and its output channel is modeled
with an extra cycle of delay for ST. Incremental allocation (Mukherjee
et al.; Kumar et al.) holds the input->output switch connection for the
rest of the packet: body/tail flits stream through held connections
without re-arbitrating. Output VCs are allocated only to packets that
win switch allocation (the combined switch/VC allocator of Kumar et
al.), lowest-numbered free VC first (Section 4.6).

Packet chaining adds a PC allocator in parallel with the switch
allocator. Each cycle (:meth:`Router.step`, one method per phase):

1.  Force-release connections that hit the starvation threshold
    (Section 2.5) and, in age mode, connections preempted by
    higher-priority requests.
2.  Stream one flit on every usable held connection; connections whose
    input VC is empty or whose output VC is out of credits are released
    (Kumar et al.), and connections whose tail departs become chaining
    opportunities.
3.  Collect SA requests. Eligibility uses the connection state at the
    *beginning* of the cycle: packets participate in SA only if their
    input and output are not currently connected.
4.  Collect PC candidates (definite and speculative classes, Section
    2.4) — the chaining scheme of Section 2.3 only filters which VCs
    may chain onto which connection — OR-reduce, and run the PC
    allocator in parallel with the switch allocator.
5.  Commit SA grants (assign output VCs, form connections, launch
    flits with look-ahead routing).
6.  Validate PC grants against SA outcomes (conflict detection): a PC
    grant is dropped if the switch allocator granted the same input —
    unless the chained packet sits directly behind a departing tail in
    the VC that won SA — or if the speculated event (a connectionless
    tail winning SA for the output; the candidate's own input
    connection releasing) did not occur. Valid chains take over the
    connection registers; the chained packet streams starting next
    cycle and never enters switch allocation.

How the phases find their work (DESIGN.md §8 has the reasons):

- ``_occ_mask[p]`` is a per-input-port bitmask of occupied VCs, kept
  exact by every queue mutation. Loops walk its set bits in ascending
  VC order (the ``mask & -mask`` idiom), which is the order request
  dicts, PC candidates and trace events depend on.
- the SA scan visits every occupied VC front once; its one fronts list
  feeds the PC collector (one walk for every chaining scheme) and the
  end-of-cycle wait counters.
- PC candidates are ``(vc, flit, priority, flags)`` tuples in one table
  keyed by (input, output); ``flags`` names the same-cycle events a
  speculative candidate needs, and the commit reads only the granted
  pair's bucket.
- channel queues are resolved once (``_rx``/``_tx``) and driven
  directly; for plain XY DOR the look-ahead route is memoised per
  (downstream router, destination) until fault injection attaches.
"""

from time import perf_counter

from repro.allocators import make_allocator
from repro.arbiters import RoundRobinArbiter
from repro.core.chaining import (
    PC_CLASS_STRIDE,
    PC_PRIORITY_DEFINITE,
    PC_PRIORITY_SPECULATIVE,
    ChainingScheme,
    ChainStats,
    scheme_admits,
)
from repro.core.starvation import StarvationControl, StarvationMode
from repro.obs.trace import NULL_TRACE
from repro.routing.dor import DORMesh

#: Priority boost that makes non-speculative switch requests always beat
#: speculative ones in "speculative" VC-allocation mode. Larger than any
#: age-escalated packet priority that occurs in practice.
_NONSPECULATIVE_BOOST = 1_000_000

#: Shared read-only stand-in for the per-cycle released/inhibited sets
#: when nothing can be released or inhibited (nothing ever writes it).
_NO_INHIBITS = frozenset()


#: PC candidate flags: the same-cycle events a speculative candidate
#: (Section 2.4) depends on. A candidate with no flag is definite.
_OWN_RELEASE = 1  # the input's connection to another output releases
_FRONT_DEPARTS = 2  # the tail in front of it wins SA
_SA_TAIL = 4  # a connectionless tail wins SA for the candidate's output

#: ``alloc_counters`` keys per allocator role.
_COUNTER_KEYS = {
    role: (role + "_requests", role + "_grants") for role in ("sa", "pc", "vc")
}


def _pc_candidate_order(c):
    """Definite class first, then higher packet priority (stable sort)."""
    return (c[3] != 0, -c[2])


def _lap(prof, phase, t0):
    """Charge the time since ``t0`` to ``phase``; returns the new mark."""
    t1 = perf_counter()
    prof.add(phase, t1 - t0)
    return t1


class Router:
    """One NoC router. Wired to channels by :class:`~repro.network.network.Network`."""

    def __init__(self, router_id, radix, config, routing):
        from repro.network.buffer import VirtualChannel  # avoid cycle at import

        self.router_id = router_id
        self.radix = radix
        self.config = config
        self.routing = routing

        P, V = radix, config.num_vcs
        depth = config.vc_buf_depth
        #: Shared buffered-flit counter (see VirtualChannel.fill): kept
        #: exact by every queue mutation, including direct pushes in
        #: tests, so the idle fast path in step() can trust it.
        self._fill = [0]
        #: Bitmask of occupied VCs per input port (bit v set <=> the VC
        #: buffer at [p][v] is non-empty), kept exact the same way.
        self._occ_mask = [0] * P
        self.in_vcs = [
            [
                VirtualChannel(depth, fill=self._fill,
                               occupancy=(self._occ_mask, p, 1 << v))
                for v in range(V)
            ]
            for p in range(P)
        ]

        # Connection registers (incremental allocation state).
        self.conn_in = [None] * P  # input p -> connected output port
        self.conn_out = [None] * P  # output o -> (input p, vc v)
        self.conn_age = [0] * P  # cycles the connection on output o has been held

        # Downstream credit and output-VC state per output port.
        self.credits = [[depth] * V for _ in range(P)]
        self.out_vc_busy = [[False] * V for _ in range(P)]

        # Allocators. Both operate on OR-reduced P x P request matrices.
        # Seeds are derived from (config seed, router id, role) so
        # randomized allocators are reproducible across processes and
        # runs regardless of how many networks this process built before.
        self.switch_alloc = make_allocator(
            config.allocator, P, P, seed=self._alloc_seed(0)
        )
        self.pc_alloc = make_allocator(
            config.pc_allocator, P, P, seed=self._alloc_seed(1)
        )
        # Split VC allocation (Mullins et al.): a separate VC allocator
        # runs a pipeline stage ahead of SA over the (P*V) x (P*V)
        # input-VC x output-VC request space. In "speculative" mode,
        # unallocated heads additionally bid for the switch in the same
        # cycle at lower priority; the grant is only usable if an output
        # VC can be claimed at commit time (Peh & Dally speculation).
        self.split_va = config.vc_allocation in ("split", "speculative")
        self.speculative_va = config.vc_allocation == "speculative"
        self.vc_alloc = (
            make_allocator(config.allocator, P * V, P * V,
                           seed=self._alloc_seed(2))
            if self.split_va
            else None
        )
        #: SA grants wasted on failed speculation (no output VC free).
        self.wasted_speculations = 0
        #: Per-allocator request/grant totals (grant efficiency =
        #: grants / requests), published via Network.publish_metrics.
        self.alloc_counters = {
            "sa_requests": 0, "sa_grants": 0,
            "pc_requests": 0, "pc_grants": 0,
            "vc_requests": 0, "vc_grants": 0,
        }
        self.scheme = config.chaining
        self.starvation = StarvationControl.from_config(
            config.starvation_threshold, config.age_period
        )

        # Per-input arbiters mapping a port-level grant back to a VC.
        self._sa_vc_arbiters = [RoundRobinArbiter(V) for _ in range(P)]
        self._pc_vc_arbiters = [RoundRobinArbiter(V) for _ in range(P)]

        self.chain_stats = ChainStats()
        #: Flits sent per output port (utilization accounting).
        self.port_flits = [0] * P

        #: Observability: event bus (Network installs the real one) and
        #: optional phase profiler. Both default to inert so the hot
        #: path pays one attribute load + branch per emission site.
        self.trace = NULL_TRACE
        self.profiler = None
        # Component labels for the profiler's hot-spot attribution
        # (per-allocator wall time inside the sa/pc/vc_alloc phases).
        self._prof_sa = "alloc:" + config.allocator
        self._prof_pc = "alloc:" + config.pc_allocator
        #: Fault injection: a RouterFaultView installed by the
        #: FaultController, or None (the common, zero-overhead case).
        self.faults = None

        # Wiring, installed by Network.
        self.in_flit_channels = [None] * P  # read side
        self.out_flit_channels = [None] * P  # write side (includes ST cycle)
        self.credit_return_channels = [None] * P  # read: credits for output o
        self.credit_up_channels = [None] * P  # write: credits for input p
        self.downstream_router = [None] * P  # Router id beyond output o, or None
        self.is_terminal_port = [False] * P

        # Per-step constants hoisted out of the per-VC loops.
        #: VC index tuples per traffic class (``vc_class_range``).
        self._class_vcs = [
            tuple(config.vc_class_range(c)) for c in range(config.num_classes)
        ]
        self._age_mode = self.starvation.mode is StarvationMode.AGE
        self._threshold_mode = self.starvation.mode is StarvationMode.THRESHOLD
        self._starv_disabled = self.starvation.mode is StarvationMode.DISABLED
        self._chain_enabled = self.scheme.enabled
        self._num_vcs = V
        self._pc_priorities = config.pc_priorities
        #: Immutable all-None connection row: the start-of-cycle
        #: snapshot whenever no connection is held (the common case).
        self._none_row = (None,) * P
        #: (input flit queue, credit-return queue, VC list) per wired
        #: port, resolved on the first receive(): the channels are wired
        #: by Network after construction and never replaced afterwards
        #: (checkpoint restore loads into them).
        self._rx = None
        #: (queue, delay) pairs of the output flit and upstream credit
        #: channels, resolved on the first send.
        self._tx = None
        #: Look-ahead route memo for plain XY DOR: with no faults and no
        #: detour state, next_hop is a pure function of (downstream
        #: router, destination terminal). Other routing functions call
        #: through uncached, and so does DOR once Network.attach_faults
        #: has set this to None.
        self._route_cache = {} if type(routing) is DORMesh else None

    def _alloc_seed(self, role):
        # Distinct per (config seed, router, allocator role); the exact
        # mixing only has to be stable, not cryptographic.
        return (self.config.seed * 1_000_003 + self.router_id) * 4 + role

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self, ctx):
        """Serialize all mutable router state.

        Channels are owned by their writer, so the write-side channels
        here (``out_flit_channels``, ``credit_up_channels``) cover every
        inter-router channel exactly once; terminal injection/ejection
        channels are owned by sources and sinks. The occupancy masks
        and channel caches are derived state and are not serialized.
        """
        return {
            "in_vcs": [
                [vc.state_dict(ctx) for vc in vcs] for vcs in self.in_vcs
            ],
            "conn_in": list(self.conn_in),
            "conn_out": [
                list(held) if held is not None else None
                for held in self.conn_out
            ],
            "conn_age": list(self.conn_age),
            "credits": [list(c) for c in self.credits],
            "out_vc_busy": [list(b) for b in self.out_vc_busy],
            "switch_alloc": self.switch_alloc.state_dict(),
            "pc_alloc": self.pc_alloc.state_dict(),
            "vc_alloc": (
                self.vc_alloc.state_dict() if self.vc_alloc is not None else None
            ),
            "wasted_speculations": self.wasted_speculations,
            "alloc_counters": dict(self.alloc_counters),
            "sa_vc_arbiters": [a.state_dict() for a in self._sa_vc_arbiters],
            "pc_vc_arbiters": [a.state_dict() for a in self._pc_vc_arbiters],
            # ChainStats is a flat dataclass of ints; vars() gives the
            # same mapping as dataclasses.asdict() without its recursive
            # deep-copy machinery (this runs per router per digest).
            "chain_stats": dict(vars(self.chain_stats)),
            "port_flits": list(self.port_flits),
            "out_flit_channels": [
                chan.state_dict(ctx) if chan is not None else None
                for chan in self.out_flit_channels
            ],
            "credit_up_channels": [
                chan.state_dict(ctx) if chan is not None else None
                for chan in self.credit_up_channels
            ],
        }

    def load_state(self, state, ctx):
        for vcs, vc_states in zip(self.in_vcs, state["in_vcs"]):
            for vc, vc_state in zip(vcs, vc_states):
                vc.load_state(vc_state, ctx)
        self.conn_in = list(state["conn_in"])
        # JSON turns the (input, vc) holder tuples into lists; convert
        # back because the router compares them with tuple equality.
        self.conn_out = [
            tuple(held) if held is not None else None
            for held in state["conn_out"]
        ]
        self.conn_age = list(state["conn_age"])
        self.credits = [list(c) for c in state["credits"]]
        self.out_vc_busy = [list(b) for b in state["out_vc_busy"]]
        self.switch_alloc.load_state(state["switch_alloc"])
        self.pc_alloc.load_state(state["pc_alloc"])
        if self.vc_alloc is not None:
            self.vc_alloc.load_state(state["vc_alloc"])
        self.wasted_speculations = state["wasted_speculations"]
        self.alloc_counters = dict(state["alloc_counters"])
        for arb, s in zip(self._sa_vc_arbiters, state["sa_vc_arbiters"]):
            arb.load_state(s)
        for arb, s in zip(self._pc_vc_arbiters, state["pc_vc_arbiters"]):
            arb.load_state(s)
        self.chain_stats = ChainStats(**state["chain_stats"])
        self.port_flits = list(state["port_flits"])
        for chan, s in zip(self.out_flit_channels, state["out_flit_channels"]):
            if chan is not None:
                chan.load_state(s, ctx)
        for chan, s in zip(self.credit_up_channels, state["credit_up_channels"]):
            if chan is not None:
                chan.load_state(s, ctx)
        # The restore replaced the per-port credit lists the receive
        # cache captured; re-resolve both channel caches lazily.
        self._rx = None
        self._tx = None

    # ------------------------------------------------------------------
    # Phase A: arrivals (called by Network before any router allocates)
    # ------------------------------------------------------------------

    def receive(self, cycle):
        rx = self._rx
        if rx is None:
            # Wired ports only (unwired ports never deliver anything);
            # flit and credit sides split so each loop touches exactly
            # the state it needs.
            rx = self._rx = (
                [
                    (p, ch._queue, self.in_vcs[p])
                    for p, ch in enumerate(self.in_flit_channels)
                    if ch is not None
                ],
                [
                    (ch._queue, self.credits[p])
                    for p, ch in enumerate(self.credit_return_channels)
                    if ch is not None
                ],
            )
        tr = self.trace
        tr_active = tr.active
        occ = self._occ_mask
        fill = self._fill
        fv = self.faults
        for p, fq, vcs in rx[0]:
            while fq and fq[0][0] <= cycle:
                due, flit = fq.popleft()
                if due < cycle:
                    raise AssertionError(
                        "channel item missed its delivery cycle"
                    )
                if fv is not None and fv.intercept(self, p, flit, cycle):
                    continue
                # VirtualChannel.push(), inlined.
                vcobj = vcs[flit.vc]
                if len(vcobj.queue) >= vcobj.capacity:
                    raise OverflowError(
                        "VC buffer overflow (credit protocol violated)"
                    )
                vcobj.queue.append(flit)
                fill[0] += 1
                occ[p] |= 1 << flit.vc
                if tr_active and flit.is_head:
                    # Head arrival anchors the per-hop span: the wait
                    # until sa_grant/pc_chain is allocation latency
                    # (obs.spans).
                    tr.emit(
                        "head_arrived", cycle, router=self.router_id,
                        in_port=p, vc=flit.vc, pid=flit.packet.pid,
                    )
        for cq, port_credits in rx[1]:
            while cq and cq[0][0] <= cycle:
                due, vc = cq.popleft()
                if due < cycle:
                    raise AssertionError(
                        "channel item missed its delivery cycle"
                    )
                port_credits[vc] += 1

    # ------------------------------------------------------------------
    # Phase B: allocation and traversal
    # ------------------------------------------------------------------

    def step(self, cycle):
        """One cycle: the module docstring's phases in order, each timed
        under its :data:`repro.obs.profiler.PHASES` name when profiled."""
        fv = self.faults
        if fv is not None:
            self._fault_prepass(cycle, fv)
        held_any = self.conn_out.count(None) != self.radix
        if not held_any and self._fill[0] == 0:
            # Fully idle: no phase can do anything; only the chaining
            # cycle counter evolves.
            if self._chain_enabled:
                self.chain_stats.cycles += 1
            return
        prof = self.profiler
        t0 = perf_counter() if prof is not None else None
        releasing = {}  # output -> (input, vc): tail departed, chainable
        if held_any:
            conn_in_start = self.conn_in.copy()
            conn_out_start = self.conn_out.copy()
            released_inputs = set()  # inputs freed this cycle (any reason)
            inhibited = _NO_INHIBITS  # inputs/outputs barred from chaining
            if not self._starv_disabled:
                inhibited = set()
                self._forced_releases(cycle, released_inputs, inhibited)
            if prof is not None:
                t0 = _lap(prof, "release", t0)
            departed_vcs = self._stream_connections(
                cycle, releasing, released_inputs, inhibited
            )
            if prof is not None:
                t0 = _lap(prof, "stream", t0)
        else:
            # Nothing held: the start-of-cycle snapshot is the shared
            # all-None row, and nothing releases or streams.
            conn_in_start = conn_out_start = self._none_row
            released_inputs = inhibited = _NO_INHIBITS
            departed_vcs = set()
        sa_requests, sa_contrib, forming_tails, fronts = \
            self._scan_fronts(conn_in_start, conn_out_start)
        if prof is not None:
            t0 = _lap(prof, "sa_collect", t0)
        pc_grants = {}
        if self._chain_enabled and (releasing or forming_tails):
            table, matrix = self._collect_pc(
                fronts, conn_in_start, releasing, forming_tails,
                released_inputs, inhibited, sa_requests,
            )
            if matrix:
                pc_grants = self._allocate(self.pc_alloc, matrix, "pc")
        if prof is not None:
            t0 = _lap(prof, "pc", t0)
        sa_grants = self._allocate(
            self.switch_alloc, sa_requests, "sa"
        ) if sa_requests else {}
        sa_winner_vc, sa_tail_outputs = self._commit_sa(
            cycle, sa_grants, sa_contrib, departed_vcs
        )
        if prof is not None:
            t0 = _lap(prof, "sa", t0)
        if pc_grants:
            self._commit_pc(
                cycle, pc_grants, table, sa_grants, sa_winner_vc,
                sa_tail_outputs, releasing,
            )
        if prof is not None:
            t0 = _lap(prof, "pc", t0)
        if self.split_va:
            self._split_vc_allocation(cycle)
        if prof is not None:
            t0 = _lap(prof, "vc_alloc", t0)
        self._end_of_cycle(fronts, departed_vcs)
        if prof is not None:
            _lap(prof, "end", t0)

    def _allocate(self, alloc, requests, role):
        """Run one allocator on a request matrix and count the call.

        ``role`` ("sa", "pc" or "vc") names the ``alloc_counters`` pair;
        with a profiler the call's wall time is attributed to the
        allocator kind within the role's phase.
        """
        prof = self.profiler
        if prof is None:
            grants = alloc.allocate(requests)
        else:
            t0 = perf_counter()
            grants = alloc.allocate(requests)
            prof.add_component(
                "vc_alloc" if role == "vc" else role,
                self._prof_pc if role == "pc" else self._prof_sa,
                perf_counter() - t0,
            )
        counters = self.alloc_counters
        requests_key, grants_key = _COUNTER_KEYS[role]
        counters[requests_key] += len(requests)
        counters[grants_key] += len(grants)
        return grants

    # --- 0. fault pre-pass (only when fault injection is attached) -------

    def _fault_prepass(self, cycle, fv):
        """Graceful degradation: dispose of fault-damaged state.

        Runs before allocation each cycle so the rest of the pipeline
        never sees a dead output or a killed packet at a VC front:

        1. Held connections to dead outputs are torn down.
        2. In-service packets routed to a dead output are killed (their
           earlier flits are already lost downstream).
        3. Killed packets' in-service state is aborted (output VC and
           connection freed) and their buffered flits purged, returning
           one upstream credit per purged flit.
        4. Head flits whose look-ahead route points at a dead output
           are re-routed (the fault-aware routing function detours);
           unroutable packets are killed.
        """
        tr = self.trace
        dead_out = fv.dead_out
        if dead_out:
            for o in range(self.radix):
                held = self.conn_out[o]
                if held is not None and o in dead_out:
                    p, _v = held
                    self.conn_out[o] = None
                    self.conn_in[p] = None
                    if tr.active:
                        tr.emit(
                            "conn_torn_down", cycle, router=self.router_id,
                            port=o, in_port=p, vc=_v, reason="link_down",
                        )
        for p in range(self.radix):
            for v, vcobj in enumerate(self.in_vcs[p]):
                packet = vcobj.active_packet
                queue = vcobj.queue
                if packet is not None:
                    if not packet.killed and vcobj.active_out_port in dead_out:
                        fv.kill(packet, cycle, "link_down")
                    if packet.killed:
                        self._abort_in_service(cycle, p, v, vcobj)
                elif not queue:
                    continue
                if queue and queue[0].packet.killed:
                    self._purge_killed(cycle, p, v, vcobj, fv)
                if not queue or not dead_out:
                    continue
                flit = queue[0]
                if (
                    flit.is_head
                    and vcobj.active_packet is None
                    and flit.out_port in dead_out
                ):
                    new_port, new_class = self.routing.next_hop(
                        self.router_id, flit.packet
                    )
                    if new_port in dead_out:
                        fv.kill(flit.packet, cycle, "unroutable")
                        self._purge_killed(cycle, p, v, vcobj, fv)
                    else:
                        flit.out_port = new_port
                        flit.vc_class = new_class

    def _abort_in_service(self, cycle, p, v, vcobj):
        """Free the output VC / connection held by a killed packet."""
        o, w = vcobj.active_out_port, vcobj.active_out_vc
        if self.conn_in[p] == o and self.conn_out[o] == (p, v):
            self.conn_out[o] = None
            self.conn_in[p] = None
            tr = self.trace
            if tr.active:
                tr.emit(
                    "conn_torn_down", cycle, router=self.router_id,
                    port=o, in_port=p, vc=v, reason="packet_killed",
                )
        self.out_vc_busy[o][w] = False
        vcobj.active_packet = None
        vcobj.active_out_port = None
        vcobj.active_out_vc = None

    def _purge_killed(self, cycle, p, v, vcobj, fv):
        """Drop killed packets' flits off the VC front, crediting upstream."""
        up = self.credit_up_channels[p]
        while vcobj.queue and vcobj.queue[0].packet.killed:
            flit = vcobj.queue.popleft()
            self._fill[0] -= 1
            vcobj.wait_cycles = 0
            if up is not None:
                up.send(v, cycle)
            fv.flit_purged(self, p, flit, cycle)
        if not vcobj.queue:
            self._occ_mask[p] &= ~(1 << v)

    # --- 1. starvation-control releases --------------------------------

    def _forced_releases(self, cycle, released_inputs, inhibited):
        starv = self.starvation
        if starv.mode is StarvationMode.DISABLED:
            return
        for o in range(self.radix):
            held = self.conn_out[o]
            if held is None:
                continue
            p, v = held
            if starv.mode is StarvationMode.THRESHOLD:
                if starv.must_release(self.conn_age[o]):
                    self._starvation_tick(cycle, o, p, v)
                    self._release(cycle, o, released_inputs, "starvation")
                    inhibited.add(("in", p))
                    inhibited.add(("out", o))
            else:  # AGE mode: preempt on higher-priority waiting request
                holder = self.in_vcs[p][v].active_packet
                holder_prio = holder.priority if holder else 0
                if self._higher_priority_waiter(o, holder_prio):
                    self._starvation_tick(cycle, o, p, v)
                    self._release(cycle, o, released_inputs, "preempt")
                    inhibited.add(("in", p))
                    inhibited.add(("out", o))

    def _starvation_tick(self, cycle, o, p, v):
        tr = self.trace
        if tr.active:
            tr.emit(
                "starvation_tick", cycle, router=self.router_id, port=o,
                in_port=p, vc=v, age=self.conn_age[o],
                mode=self.starvation.mode.value,
            )

    def _competing_waiter(self, output):
        """Any head flit in a *different* VC wanting this output?

        The pseudo-circuit release condition (Ahn & Kim): a connection
        is only reused when nobody else wants the output.
        """
        holder = self.conn_out[output]
        for p, mask in enumerate(self._occ_mask):
            vcs = self.in_vcs[p]
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if (p, v) != holder and vcs[v].front_out_port() == output:
                    return True
        return False

    def _higher_priority_waiter(self, output, holder_prio):
        """Any waiting head flit routed to ``output`` beating the holder?"""
        starv = self.starvation
        holder = self.conn_out[output]
        for p, mask in enumerate(self._occ_mask):
            vcs = self.in_vcs[p]
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                vcobj = vcs[v]
                if vcobj.front_out_port() != output or (p, v) == holder:
                    continue  # another output, or the holder itself
                prio = starv.packet_priority(
                    vcobj.queue[0].packet.priority, vcobj.wait_cycles
                )
                if prio > holder_prio:
                    return True
        return False

    def _release(self, cycle, output, released_inputs, reason):
        held = self.conn_out[output]
        if held is None:
            return
        p, _ = held
        self.conn_out[output] = None
        self.conn_in[p] = None
        # conn_age is deliberately NOT reset here: a chain established in
        # this cycle's PC commit inherits the connection (and its age, so
        # starvation control keeps accumulating across chained packets).
        # New connections reset the age when they form.
        released_inputs.add(p)
        tr = self.trace
        if tr.active:
            tr.emit(
                "conn_released", cycle, router=self.router_id, port=output,
                in_port=p, reason=reason,
            )

    # --- 2. stream held connections ------------------------------------

    def _stream_connections(self, cycle, releasing, released_inputs, inhibited):
        """Send one flit on every usable held connection.

        Returns the set of input VC objects that sent a flit (the set
        :meth:`_commit_sa` adds to and :meth:`_end_of_cycle` reads).
        """
        departed_vcs = set()
        conn_out = self.conn_out
        in_vcs = self.in_vcs
        credits = self.credits
        for o in range(self.radix):
            held = conn_out[o]
            if held is None:
                continue
            p, v = held
            vcobj = in_vcs[p][v]
            q = vcobj.queue
            packet = vcobj.active_packet
            if not q or packet is None or q[0].packet is not packet:
                # Input VC empty (or desynchronized): unusable, release.
                self._release(cycle, o, released_inputs, "empty")
                continue
            w = vcobj.active_out_vc
            if credits[o][w] == 0:
                # Output VC out of credits: unusable, release (Kumar et al.).
                self._release(cycle, o, released_inputs, "no_credit")
                continue
            flit = self._send_flit(cycle, vcobj, p, v, o, w)
            departed_vcs.add(vcobj)
            if flit.is_tail:
                if (
                    self._chain_enabled
                    and (not self._threshold_mode
                         or self.starvation.chainable(self.conn_age[o]))
                    and ("out", o) not in inhibited
                ):
                    # Pseudo-circuit semantics (Ahn & Kim): reuse the
                    # connection only if no other VC wants the output;
                    # packet chaining holds it regardless (Section 5).
                    if not (
                        self.config.pseudo_circuit_release
                        and self._competing_waiter(o)
                    ):
                        releasing[o] = (p, v)
                self._release(cycle, o, released_inputs, "tail")
        return departed_vcs

    def _send_flit(self, cycle, vcobj, p, v, o, w):
        """Dequeue and launch the front flit of input VC (p, v) on output
        VC (o, w): credits, VC bookkeeping, look-ahead route, channel
        sends. Returns the flit."""
        tx = self._tx
        if tx is None:
            tx = self._tx = (
                [
                    (c._queue, c.delay) if c is not None else None
                    for c in self.out_flit_channels
                ],
                [
                    (c._queue, c.delay) if c is not None else None
                    for c in self.credit_up_channels
                ],
            )
        # VirtualChannel.pop(), inlined (fill cell and occupancy bit).
        q = vcobj.queue
        flit = q.popleft()
        vcobj.wait_cycles = 0
        self._fill[0] -= 1
        if not q:
            self._occ_mask[p] &= ~(1 << v)
        self.credits[o][w] -= 1
        flit.vc = w
        is_tail = flit.is_tail
        if is_tail:
            # The output VC frees as soon as the tail has been sent on
            # it; the next packet's flits follow in order behind it.
            vcobj.active_packet = None
            vcobj.active_out_port = None
            vcobj.active_out_vc = None
            self.out_vc_busy[o][w] = False
        if flit.is_head:
            downstream = self.downstream_router[o]
            if downstream is not None:
                cache = self._route_cache
                if cache is not None:
                    key = (downstream, flit.packet.dest)
                    hop = cache.get(key)
                    if hop is None:
                        hop = cache[key] = self.routing.next_hop(
                            downstream, flit.packet
                        )
                    flit.out_port, flit.vc_class = hop
                else:
                    flit.out_port, flit.vc_class = self.routing.next_hop(
                        downstream, flit.packet
                    )
        # PipelinedChannel.send(), inlined, for the flit and its credit.
        oq, odelay = tx[0][o]
        oq.append((cycle + odelay, flit))
        self.port_flits[o] += 1
        up = tx[1][p]
        if up is not None:
            uq, udelay = up
            uq.append((cycle + udelay, v))
        tr = self.trace
        if tr.active:
            tr.emit(
                "flit_routed", cycle, router=self.router_id, port=o,
                pid=flit.packet.pid, idx=flit.index, in_port=p, in_vc=v,
                out_vc=w,
            )
            if is_tail:
                tr.emit(
                    "vc_free", cycle, router=self.router_id, port=o, vc=w,
                    pid=flit.packet.pid,
                )
        return flit

    # --- 3. switch-allocator requests (and the VC-front scan) ------------

    def _scan_fronts(self, conn_in_start, conn_out_start):
        """Visit every occupied VC front once, in (port, VC) order.

        Returns ``(sa_requests, sa_contrib, forming_tails, fronts)``:
        the OR-reduced SA request matrix, the per-(input, output)
        contributing ``(vc, priority)`` lists, the SA-bidding tails per
        output, and the ``(p, v, vcobj, flit, active, o, connected)``
        fronts that the PC collector walks (VCs of connected inputs
        included, since the PC pass considers them once released) and
        whose wait counters the end of the cycle bumps unless they
        departed.
        """
        sa_requests = {}
        sa_contrib = {}
        forming_tails = {}
        fronts = []
        append_front = fronts.append
        starv = self.starvation
        age_mode = self._age_mode
        in_vcs = self.in_vcs
        credits = self.credits
        occ = self._occ_mask
        out_vc_busy = self.out_vc_busy
        class_vcs = self._class_vcs
        split_plain = self.split_va and not self.speculative_va
        speculative = self.speculative_va
        fv = self.faults
        for p in range(self.radix):
            mask = occ[p]
            if not mask:
                continue
            connected = conn_in_start[p] is not None
            vcs = in_vcs[p]
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                vcobj = vcs[v]
                flit = vcobj.queue[0]
                active = vcobj.active_packet
                if active is not None:
                    # Parked mid-packet (its connection was released
                    # earlier): re-bids with the assigned output VC.
                    o = vcobj.active_out_port
                elif flit.is_head:
                    o = flit.out_port
                elif connected:
                    # Body flit behind a connected stream: neither SA
                    # nor PC nor the wait counters consider it.
                    continue
                else:  # pragma: no cover - body flit without state
                    raise AssertionError(
                        "body flit at VC front without state"
                    )
                # Every front reaching here is a head or has an active
                # packet (the end-of-cycle wait condition), and commits
                # only mutate VCs they record in departed_vcs.
                append_front((p, v, vcobj, flit, active, o, connected))
                if connected:
                    continue  # inputs connected at cycle start sit out of SA
                if active is not None:
                    if conn_out_start[o] is not None:
                        continue
                    if credits[o][vcobj.active_out_vc] == 0:
                        continue
                else:
                    if split_plain:
                        # Heads need a VC-allocator grant (a previous
                        # cycle) before they may bid for the switch.
                        continue
                    if conn_out_start[o] is not None:
                        continue
                    # A free output VC of the class (_free_out_vc).
                    busy = out_vc_busy[o]
                    creds = credits[o]
                    for w in class_vcs[flit.vc_class]:
                        if not busy[w] and creds[w] > 0:
                            break
                    else:
                        continue
                if fv is not None and (
                    flit.packet.killed or o in fv.dead_out
                ):
                    # Belt-and-braces: the fault pre-pass already purged
                    # or re-routed these, but a fault applied mid-cycle
                    # must never win allocation toward a dead port.
                    continue
                if age_mode:
                    prio = starv.packet_priority(
                        flit.packet.priority, vcobj.wait_cycles
                    )
                else:
                    prio = flit.packet.priority
                if speculative and active is not None:
                    # Non-speculative requests (packets that already
                    # hold an output VC) beat speculative head requests.
                    prio += _NONSPECULATIVE_BOOST
                pair = (p, o)
                contrib = sa_contrib.get(pair)
                if contrib is None:
                    sa_requests[pair] = prio
                    sa_contrib[pair] = [(v, prio)]
                else:
                    if prio > sa_requests[pair]:
                        sa_requests[pair] = prio
                    contrib.append((v, prio))
                if flit.is_tail:
                    tails = forming_tails.get(o)
                    if tails is None:
                        forming_tails[o] = [(p, v)]
                    else:
                        tails.append((p, v))
        return sa_requests, sa_contrib, forming_tails, fronts

    def _free_out_vc(self, output, vc_class):
        """Lowest-numbered free output VC of the class with a credit."""
        credits = self.credits[output]
        busy = self.out_vc_busy[output]
        for w in self._class_vcs[vc_class]:
            if not busy[w] and credits[w] > 0:
                return w
        return None

    # --- 4. packet-chaining candidates ----------------------------------

    def _collect_pc(
        self, fronts, conn_in_start, releasing, forming_tails,
        released_inputs, inhibited, sa_requests,
    ):
        """PC candidate table and its OR-reduced request matrix.

        One walk over the SA scan's fronts serves every chaining scheme
        and builds both in the same pass. The table maps an (input,
        output) pair to its ``(vc, flit, priority, flags)`` candidates in
        walk order — the scan's (input, VC) order, a front flit's target
        before the behind-the-tail target — which decides priority ties
        in :meth:`_commit_pc`, as it decides the matrix's insertion
        order. ``flags`` names the events a speculative candidate needs
        (``_SA_TAIL``: a tail forming the candidate's own output). The
        scheme (Section 2.3) is a filter: a candidate onto a releasing
        connection must be admitted by its holder (``scheme_admits``),
        and one onto a forming connection by some SA-bidding tail
        forming it — for a front flit, a tail other than its own. Under
        ANY_INPUT every holder admits every candidate, so only the
        own-tail test is left.
        """
        table = {}
        matrix = {}
        scheme = self.scheme
        filtered = scheme is not ChainingScheme.ANY_INPUT
        if filtered:
            # Same-VC / same-input chaining only takes packets from an
            # input holding or forming a chainable connection; the
            # filter would reject every other input anyway.
            inputs = {holder[0] for holder in releasing.values()}
            inputs.update(
                hp for tails in forming_tails.values() for hp, _ in tails
            )
            fronts = [entry for entry in fronts if entry[0] in inputs]
        definite_base = PC_PRIORITY_DEFINITE * PC_CLASS_STRIDE
        speculative_base = PC_PRIORITY_SPECULATIVE * PC_CLASS_STRIDE
        prio_cap = PC_CLASS_STRIDE - 1
        starv = self.starvation
        threshold_mode = self._threshold_mode
        conn_age = self.conn_age
        credits = self.credits
        out_vc_busy = self.out_vc_busy
        class_vcs = self._class_vcs
        for entry in fronts:
            o_front = entry[5]
            if o_front is None:
                continue
            if o_front in releasing or o_front in forming_tails:
                p, v, vcobj, flit, active, _, connected = entry
                if connected and not (
                    p in released_inputs and ("in", p) not in inhibited
                ):
                    # Holding a connection beyond this cycle: no VC of
                    # this input can chain.
                    continue
                q = vcobj.queue
                front_bids_sa = (p, o_front) in sa_requests
                # Flits behind an SA-bidding front flit (Section 2.4):
                # only the next packet's head directly behind a
                # departing tail can chain.
                behind = None
                if front_bids_sa and flit.is_tail and len(q) > 1:
                    nxt = q[1]
                    if nxt.is_head:
                        behind = nxt
                # --- front-flit candidate (o_front) -----------------------
                while True:  # single-pass block, break = skip
                    o = o_front
                    if front_bids_sa and o not in forming_tails:
                        # The front bids SA for this output; its only PC
                        # use is chaining onto a connection formed by a
                        # *different* tail this cycle.
                        break
                    # Chaining that depends on the release of the input's
                    # old connection is in the speculative class.
                    flags = (
                        _OWN_RELEASE if connected and conn_in_start[p] != o
                        else 0
                    )
                    holder = releasing.get(o)
                    if holder is not None:
                        if filtered and not scheme_admits(
                            scheme, p, v, holder[0], holder[1]
                        ):
                            break
                        age = conn_age[o]
                    elif o in forming_tails:
                        tails = forming_tails[o]
                        if filtered:
                            if not any(
                                (hp != p or hv != v)
                                and scheme_admits(scheme, p, v, hp, hv)
                                for hp, hv in tails
                            ):
                                break
                        elif len(tails) == 1 and tails[0][0] == p \
                                and tails[0][1] == v:
                            break  # its own tail is the only former
                        flags |= _SA_TAIL
                        age = 0  # the connection forms this cycle
                    else:
                        break
                    # Length-aware threshold check: don't chain a packet
                    # starvation control would cut (Section 4.7).
                    if threshold_mode and not starv.chainable(
                        age, flit.packet.size - flit.index
                    ):
                        break
                    # Output-VC availability (Section 2.2 (b)+(c)).
                    if active is not None:
                        if credits[o][vcobj.active_out_vc] == 0:
                            break
                    else:
                        busy = out_vc_busy[o]
                        creds = credits[o]
                        for w in class_vcs[flit.vc_class]:
                            if not busy[w] and creds[w] > 0:
                                break
                        else:
                            break
                    prio = flit.packet.priority
                    cand = (v, flit, prio, flags)
                    if prio > prio_cap:
                        prio = prio_cap
                    elif prio < 0:
                        prio = 0
                    prio += speculative_base if flags else definite_base
                    pair = (p, o)
                    bucket = table.get(pair)
                    if bucket is None:
                        table[pair] = [cand]
                        matrix[pair] = prio
                    else:
                        bucket.append(cand)
                        if prio > matrix[pair]:
                            matrix[pair] = prio
                    break
            else:
                flit = entry[3]
                if not flit.is_tail:
                    continue
                q = entry[2].queue
                if len(q) < 2:
                    continue
                behind = q[1]
                if not behind.is_head:
                    continue
                o = behind.out_port
                if o not in releasing and o not in forming_tails:
                    continue
                p = entry[0]
                if (p, o_front) not in sa_requests:
                    continue
                v = entry[1]
            # --- behind-the-tail candidate --------------------------------
            # Its front bids SA, so its input was unconnected at cycle
            # start (connected inputs sit out of SA): no own release.
            if behind is None:
                continue
            o = behind.out_port
            flags = _FRONT_DEPARTS
            holder = releasing.get(o)
            if holder is not None:
                if filtered and not scheme_admits(
                    scheme, p, v, holder[0], holder[1]
                ):
                    continue
                age = conn_age[o]
            elif o in forming_tails:
                if filtered and not any(
                    scheme_admits(scheme, p, v, hp, hv)
                    for hp, hv in forming_tails[o]
                ):
                    continue
                flags |= _SA_TAIL
                age = 0
            else:
                continue
            if threshold_mode and not starv.chainable(
                age, behind.packet.size - behind.index
            ):
                continue
            busy = out_vc_busy[o]
            creds = credits[o]
            for w in class_vcs[behind.vc_class]:
                if not busy[w] and creds[w] > 0:
                    break
            else:
                continue
            prio = behind.packet.priority
            cand = (v, behind, prio, flags)
            if prio > prio_cap:
                prio = prio_cap
            elif prio < 0:
                prio = 0
            prio += speculative_base
            pair = (p, o)
            bucket = table.get(pair)
            if bucket is None:
                table[pair] = [cand]
                matrix[pair] = prio
            else:
                bucket.append(cand)
                if prio > matrix[pair]:
                    matrix[pair] = prio
        if matrix and not self._pc_priorities:
            # Section 4.7 ablation: collapse the two PC classes
            # (packet-level priorities remain).
            matrix = {
                pair: prio % PC_CLASS_STRIDE for pair, prio in matrix.items()
            }
        return table, matrix

    # --- 5. switch-allocation commit ------------------------------------

    def _commit_sa(self, cycle, sa_grants, sa_contrib, departed_vcs):
        sa_winner_vc = {}
        sa_tail_outputs = {}
        if not sa_grants:
            return sa_winner_vc, sa_tail_outputs
        tr = self.trace
        tr_active = tr.active
        router_id = self.router_id
        in_vcs = self.in_vcs
        arbiters = self._sa_vc_arbiters
        num_vcs = self._num_vcs
        conn_in = self.conn_in
        conn_out = self.conn_out
        conn_age = self.conn_age
        credits = self.credits
        out_vc_busy = self.out_vc_busy
        class_vcs = self._class_vcs
        for p, o in sa_grants.items():
            # Map the port-level grant back to a VC: highest priority,
            # ties to the round-robin arbiter (closest at/after pointer).
            entries = sa_contrib[(p, o)]
            if len(entries) == 1:
                v = entries[0][0]
            else:
                best = entries[0][1]
                for _, prio in entries:
                    if prio > best:
                        best = prio
                pointer = arbiters[p].pointer
                best_dist = num_vcs
                for vv, prio in entries:
                    if prio == best:
                        dist = (vv - pointer) % num_vcs
                        if dist < best_dist:
                            best_dist = dist
                            v = vv
            arbiters[p].pointer = (v + 1) % num_vcs
            vcobj = in_vcs[p][v]
            flit = vcobj.queue[0]

            if vcobj.active_packet is None:
                # Lowest free output VC of the class (_free_out_vc).
                ocredits = credits[o]
                busy = out_vc_busy[o]
                for w in class_vcs[flit.vc_class]:
                    if not busy[w] and ocredits[w] > 0:
                        break
                else:
                    # Only reachable for speculative-VA head grants: the
                    # output VC pool changed since eligibility; the SA
                    # grant is wasted (the output idles this cycle).
                    self.wasted_speculations += 1
                    continue
                vcobj.start_packet(flit.packet, o, w)
                busy[w] = True
                if tr_active:
                    tr.emit(
                        "vc_alloc", cycle, router=router_id, port=o,
                        vc=w, pid=flit.packet.pid,
                    )
            else:
                w = vcobj.active_out_vc

            if tr_active:
                tr.emit(
                    "sa_grant", cycle, router=router_id, port=o,
                    pid=flit.packet.pid, in_port=p, vc=v, out_vc=w,
                )
            self._send_flit(cycle, vcobj, p, v, o, w)
            departed_vcs.add(vcobj)
            sa_winner_vc[p] = v
            if flit.is_tail:
                # Connection forms and releases in the same cycle; a
                # chained packet may take it over (validated in PC commit).
                sa_tail_outputs[o] = (p, v)
            else:
                conn_in[p] = o
                conn_out[o] = (p, v)
                conn_age[o] = 0
                if tr_active:
                    tr.emit(
                        "conn_held", cycle, router=router_id, port=o,
                        in_port=p, vc=v, pid=flit.packet.pid,
                    )
        return sa_winner_vc, sa_tail_outputs

    # --- 6. packet-chaining commit / conflict detection ------------------

    def _commit_pc(
        self, cycle, pc_grants, table, sa_grants, sa_winner_vc,
        sa_tail_outputs, releasing,
    ):
        in_vcs = self.in_vcs
        credits = self.credits
        out_vc_busy = self.out_vc_busy
        class_vcs = self._class_vcs
        conn_in = self.conn_in
        conn_out = self.conn_out
        conn_age = self.conn_age
        chain_stats = self.chain_stats
        scheme = self.scheme
        tr = self.trace
        tr_active = tr.active
        router_id = self.router_id
        tail_holders = set(sa_tail_outputs.values())
        for p, o in pc_grants.items():
            # The candidates behind the port-level grant, definite class
            # first (stable sort: insertion order breaks ties).
            bucket = table[(p, o)]
            if len(bucket) > 1:
                bucket.sort(key=_pc_candidate_order)
            chosen = None
            w = None
            for cand in bucket:
                v, flit, _, flags = cand
                vcobj = in_vcs[p][v]
                q = vcobj.queue
                if not q or q[0] is not flit:
                    continue  # buffer moved unexpectedly
                # Conflict detection: SA granted the same input. The
                # only compatible case is the candidate directly behind
                # the departing tail that won SA in the same VC (Section
                # 2.4's lower-priority behind-the-head requests exist
                # exactly to enable it).
                if p in sa_grants and not (
                    sa_winner_vc.get(p) == v and (p, v) in tail_holders
                ):
                    continue
                # _OWN_RELEASE needs no check: the collector only admits
                # inputs whose connection released while streaming.
                if flags & _FRONT_DEPARTS and sa_winner_vc.get(p) != v:
                    continue
                if flags & _SA_TAIL:
                    # Scheme filter against the actual connection former.
                    winner = sa_tail_outputs.get(o)
                    if winner is None or not scheme_admits(
                        scheme, p, v, winner[0], winner[1]
                    ):
                        continue
                # Re-check an output VC is available *now* (tails freed
                # VCs and SA winners claimed VCs during this cycle).
                if vcobj.active_packet is not None:
                    if credits[vcobj.active_out_port][
                        vcobj.active_out_vc
                    ] == 0:
                        continue
                    w = None  # keeps its already-assigned VC
                else:
                    busy = out_vc_busy[o]
                    creds = credits[o]
                    for w in class_vcs[flit.vc_class]:
                        if not busy[w] and creds[w] > 0:
                            break
                    else:
                        continue
                chosen = cand
                break
            if chosen is None:
                if p in sa_grants:
                    chain_stats.conflicts += 1
                else:
                    chain_stats.speculation_failures += 1
                continue
            # Establish the chain.
            v, flit, _, flags = chosen
            vcobj = in_vcs[p][v]
            if vcobj.active_packet is None:
                vcobj.start_packet(flit.packet, o, w)
                out_vc_busy[o][w] = True
                if tr_active:
                    tr.emit(
                        "vc_alloc", cycle, router=router_id, port=o,
                        vc=w, pid=flit.packet.pid,
                    )
            conn_in[p] = o
            conn_out[o] = (p, v)
            holder = releasing.get(o)
            if holder is None:
                # Chained onto a connection formed (and released) by an
                # SA tail grant this cycle: a fresh connection.
                holder = sa_tail_outputs[o]
                conn_age[o] = 0
            # else: the connection persists across the chain; its age
            # keeps accumulating so starvation control still triggers
            # (Section 2.5).
            same_input = holder[0] == p
            same_vc = holder == (p, v)
            chain_stats.record_chain(same_input=same_input, same_vc=same_vc)
            if tr_active:
                tr.emit(
                    "pc_chain", cycle, router=router_id, port=o,
                    pid=flit.packet.pid, in_port=p, vc=v,
                    same_input=same_input, same_vc=same_vc,
                    speculative=flags != 0,
                )

    def _split_vc_allocation(self, cycle):
        """Assign output VCs to waiting head flits (split-VA mode).

        Runs at the end of the cycle: newly allocated packets bid for
        the switch from the next cycle on (the extra pipeline stage of a
        split VA router).

        Each unallocated head flit requests its lowest-numbered free
        output VC; the VC allocator resolves conflicts. Winners hold
        the VC (out_vc_busy) immediately, which is exactly what reduces
        the free-VC pool available to packet chaining compared to the
        combined allocator (Section 2.2).
        """
        V = self.config.num_vcs
        requests = {}
        requesters = {}
        for p, mask in enumerate(self._occ_mask):
            vcs = self.in_vcs[p]
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                vcobj = vcs[v]
                flit = vcobj.queue[0]
                if not flit.is_head or vcobj.active_packet is not None:
                    continue  # mid-packet, or already allocated
                w = self._free_out_vc(flit.out_port, flit.vc_class)
                if w is None:
                    continue
                pair = (p * V + v, flit.out_port * V + w)
                requests[pair] = flit.packet.priority
                requesters[pair] = (p, v, flit, w)
        if not requests:
            return
        tr = self.trace
        grants = self._allocate(self.vc_alloc, requests, "vc")
        for in_idx, out_idx in grants.items():
            p, v, flit, w = requesters[(in_idx, out_idx)]
            self.in_vcs[p][v].start_packet(flit.packet, flit.out_port, w)
            self.out_vc_busy[flit.out_port][w] = True
            if tr.active:
                tr.emit(
                    "vc_alloc", cycle, router=self.router_id,
                    port=flit.out_port, vc=w, pid=flit.packet.pid,
                )

    # --- 7. end of cycle --------------------------------------------------

    def _end_of_cycle(self, fronts, departed_vcs):
        """Age held connections; bump the wait and blocked counters of
        every front the SA scan saw that did not send a flit."""
        conn_out = self.conn_out
        conn_age = self.conn_age
        for o in range(self.radix):
            if conn_out[o] is not None:
                conn_age[o] += 1
        for entry in fronts:
            vcobj = entry[2]
            if vcobj not in departed_vcs:
                vcobj.wait_cycles += 1
                entry[3].packet.blocked_cycles += 1
        if self._chain_enabled:
            self.chain_stats.cycles += 1

    # --- introspection ----------------------------------------------------

    def occupancy(self, port):
        """Downstream queue occupancy estimate for UGAL (credit deficit)."""
        depth = self.config.vc_buf_depth
        return sum(depth - c for c in self.credits[port])

    def total_buffered_flits(self):
        # The shared fill cell is exact: every queue mutation (fault
        # purges and router faults included) maintains it.
        return self._fill[0]
