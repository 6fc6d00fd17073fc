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
allocator. Each cycle:

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
    2.4), OR-reduce, and run the PC allocator in parallel with the
    switch allocator.
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
"""

from time import perf_counter

from repro.allocators import make_allocator
from repro.arbiters import RoundRobinArbiter
from repro.core.chaining import (
    ChainStats,
    PCCandidate,
    PCRequestBuilder,
    scheme_admits,
)
from repro.core.starvation import StarvationControl, StarvationMode
from repro.obs.trace import NULL_TRACE

#: Priority boost that makes non-speculative switch requests always beat
#: speculative ones in "speculative" VC-allocation mode. Larger than any
#: age-escalated packet priority that occurs in practice.
_NONSPECULATIVE_BOOST = 1_000_000


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
        self.in_vcs = [
            [VirtualChannel(depth, fill=self._fill) for _ in range(V)]
            for _ in range(P)
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
        #: grants / requests); incremented identically by the reference
        #: and fast step paths, published via Network.publish_metrics.
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
        channels are owned by sources and sinks.
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

    # ------------------------------------------------------------------
    # Phase A: arrivals (called by Network before any router allocates)
    # ------------------------------------------------------------------

    def receive(self, cycle):
        tr = self.trace
        fv = self.faults
        for p in range(self.radix):
            chan = self.in_flit_channels[p]
            if chan is not None:
                for flit in chan.receive(cycle):
                    if fv is not None and fv.intercept(self, p, flit, cycle):
                        continue
                    self.in_vcs[p][flit.vc].push(flit)
                    if tr.active and flit.is_head:
                        # Head arrival anchors the per-hop span: the
                        # wait until sa_grant/pc_chain is allocation
                        # latency (obs.spans).
                        tr.emit(
                            "head_arrived", cycle, router=self.router_id,
                            in_port=p, vc=flit.vc, pid=flit.packet.pid,
                        )
            chan = self.credit_return_channels[p]
            if chan is not None:
                for vc in chan.receive(cycle):
                    self.credits[p][vc] += 1

    # ------------------------------------------------------------------
    # Phase B: allocation and traversal
    # ------------------------------------------------------------------

    def step(self, cycle):
        fv = self.faults
        if fv is not None:
            self._fault_prepass(cycle, fv)
        if self._fill[0] == 0 and self._no_held_connections():
            # Fully idle: no buffered flits, no held connections. None
            # of the pipeline phases can do anything (no releases, no
            # streaming, no SA/PC requests, no VC waits, no ages), so
            # skip the connection-table copies and set/dict churn
            # entirely. The only per-cycle state an idle router evolves
            # is the chaining cycle counter.
            if self.scheme.enabled:
                self.chain_stats.cycles += 1
            return
        if self.profiler is not None:
            self._step_profiled(cycle)
        else:
            self._step_unprofiled(cycle)

    def _no_held_connections(self):
        for held in self.conn_out:
            if held is not None:
                return False
        return True

    def _step_unprofiled(self, cycle):
        """The pipeline phases with zero profiling overhead.

        Kept free of ``perf_counter`` lookups and ``prof is not None``
        branches; :meth:`_step_profiled` is the timed twin. Both must
        execute the same phase sequence.
        """
        conn_in_start = list(self.conn_in)
        conn_out_start = list(self.conn_out)

        released_inputs = set()  # inputs freed this cycle (any reason)
        inhibited = set()  # inputs/outputs barred from chaining this cycle
        releasing = {}  # output -> (input, vc): tail departed, chainable

        self._forced_releases(cycle, released_inputs, inhibited)
        departed_vcs = self._stream_connections(
            cycle, releasing, released_inputs, inhibited
        )
        sa_requests, sa_contrib, forming_tails = self._collect_sa_requests(
            conn_in_start, conn_out_start
        )
        builder = None
        pc_grants = {}
        if self.scheme.enabled and (releasing or forming_tails):
            builder = self._collect_pc_candidates(
                conn_in_start, releasing, forming_tails, released_inputs,
                inhibited, sa_requests,
            )
            matrix = self._pc_request_matrix(builder)
            if matrix:
                pc_grants = self.pc_alloc.allocate(matrix)
                counters = self.alloc_counters
                counters["pc_requests"] += len(matrix)
                counters["pc_grants"] += len(pc_grants)
        if sa_requests:
            sa_grants = self.switch_alloc.allocate(sa_requests)
            counters = self.alloc_counters
            counters["sa_requests"] += len(sa_requests)
            counters["sa_grants"] += len(sa_grants)
        else:
            sa_grants = {}
        sa_winner_vc, sa_tail_outputs = self._commit_sa(
            cycle, sa_grants, sa_contrib, departed_vcs
        )
        if pc_grants:
            self._commit_pc(
                cycle, pc_grants, builder, sa_grants, sa_winner_vc,
                sa_tail_outputs, releasing, conn_out_start,
            )
        if self.split_va:
            # VC allocation commits at the end of the cycle: newly
            # allocated packets bid for the switch starting next cycle
            # (the extra pipeline stage of a split VA router).
            self._split_vc_allocation(cycle)
        self._end_of_cycle(departed_vcs)
        if self.scheme.enabled:
            self.chain_stats.cycles += 1

    def _pc_request_matrix(self, builder):
        matrix = builder.request_matrix()
        if matrix and not self.config.pc_priorities:
            # Section 4.7 ablation: collapse the two PC classes
            # (packet-level priorities remain).
            matrix = {
                pair: prio % PCRequestBuilder.CLASS_STRIDE
                for pair, prio in matrix.items()
            }
        return matrix

    def _step_profiled(self, cycle):
        """Same phases as :meth:`_step_unprofiled`, with the profiler's
        per-phase and per-allocator timers pre-bound once per cycle."""
        prof = self.profiler
        now = perf_counter  # pre-bound: one global lookup per cycle
        add = prof.add
        t0 = now()
        conn_in_start = list(self.conn_in)
        conn_out_start = list(self.conn_out)

        released_inputs = set()
        inhibited = set()
        releasing = {}

        self._forced_releases(cycle, released_inputs, inhibited)
        t1 = now(); add("release", t1 - t0); t0 = t1
        departed_vcs = self._stream_connections(
            cycle, releasing, released_inputs, inhibited
        )
        t1 = now(); add("stream", t1 - t0); t0 = t1

        sa_requests, sa_contrib, forming_tails = self._collect_sa_requests(
            conn_in_start, conn_out_start
        )
        t1 = now(); add("sa_collect", t1 - t0); t0 = t1

        builder = None
        pc_grants = {}
        if self.scheme.enabled and (releasing or forming_tails):
            builder = self._collect_pc_candidates(
                conn_in_start, releasing, forming_tails, released_inputs,
                inhibited, sa_requests,
            )
            matrix = self._pc_request_matrix(builder)
            if matrix:
                ta = now()
                pc_grants = self.pc_alloc.allocate(matrix)
                prof.add_component("pc", self._prof_pc, now() - ta)
                counters = self.alloc_counters
                counters["pc_requests"] += len(matrix)
                counters["pc_grants"] += len(pc_grants)
        t1 = now(); add("pc", t1 - t0); t0 = t1

        if sa_requests:
            ta = now()
            sa_grants = self.switch_alloc.allocate(sa_requests)
            prof.add_component("sa", self._prof_sa, now() - ta)
            counters = self.alloc_counters
            counters["sa_requests"] += len(sa_requests)
            counters["sa_grants"] += len(sa_grants)
        else:
            sa_grants = {}
        sa_winner_vc, sa_tail_outputs = self._commit_sa(
            cycle, sa_grants, sa_contrib, departed_vcs
        )
        t1 = now(); add("sa", t1 - t0); t0 = t1

        if pc_grants:
            self._commit_pc(
                cycle, pc_grants, builder, sa_grants, sa_winner_vc,
                sa_tail_outputs, releasing, conn_out_start,
            )
        t1 = now(); add("pc", t1 - t0); t0 = t1

        if self.split_va:
            self._split_vc_allocation(cycle)
        t1 = now(); add("vc_alloc", t1 - t0); t0 = t1

        self._end_of_cycle(departed_vcs)
        if self.scheme.enabled:
            self.chain_stats.cycles += 1
        add("end", now() - t0)

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
        for p in range(self.radix):
            for v, vcobj in enumerate(self.in_vcs[p]):
                if (p, v) == holder:
                    continue
                if vcobj.front() is not None and vcobj.front_out_port() == output:
                    return True
        return False

    def _higher_priority_waiter(self, output, holder_prio):
        """Any waiting head flit routed to ``output`` beating the holder?"""
        starv = self.starvation
        for p in range(self.radix):
            for v, vcobj in enumerate(self.in_vcs[p]):
                flit = vcobj.front()
                if flit is None:
                    continue
                port = vcobj.front_out_port()
                if port != output:
                    continue
                if self.conn_out[output] == (p, v):
                    continue  # the holder itself
                prio = starv.packet_priority(flit.packet.priority, vcobj.wait_cycles)
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
        departed_vcs = set()
        for o in range(self.radix):
            held = self.conn_out[o]
            if held is None:
                continue
            p, v = held
            vcobj = self.in_vcs[p][v]
            flit = vcobj.front()
            packet = vcobj.active_packet
            if flit is None or packet is None or flit.packet is not packet:
                # Input VC empty (or desynchronized): unusable, release.
                self._release(cycle, o, released_inputs, "empty")
                continue
            w = vcobj.active_out_vc
            if self.credits[o][w] == 0:
                # Output VC out of credits: unusable, release (Kumar et al.).
                self._release(cycle, o, released_inputs, "no_credit")
                continue
            self._send_flit(cycle, flit, p, v, o, w)
            departed_vcs.add((p, v))
            if flit.is_tail:
                if self.scheme.enabled and self.starvation.chainable(self.conn_age[o]) \
                        and ("out", o) not in inhibited:
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

    def _send_flit(self, cycle, flit, p, v, o, w):
        """Dequeue and launch a flit: credits, VC bookkeeping, look-ahead."""
        vcobj = self.in_vcs[p][v]
        vcobj.pop()
        self.credits[o][w] -= 1
        flit.vc = w
        if flit.is_tail:
            # The output VC frees as soon as the tail has been sent on
            # it; the next packet's flits follow in order behind it.
            self.out_vc_busy[o][w] = False
        if flit.is_head:
            downstream = self.downstream_router[o]
            if downstream is not None:
                flit.out_port, flit.vc_class = self.routing.next_hop(
                    downstream, flit.packet
                )
        self.out_flit_channels[o].send(flit, cycle)
        self.port_flits[o] += 1
        up = self.credit_up_channels[p]
        if up is not None:
            up.send(v, cycle)
        tr = self.trace
        if tr.active:
            tr.emit(
                "flit_routed", cycle, router=self.router_id, port=o,
                pid=flit.packet.pid, idx=flit.index, in_port=p, in_vc=v,
                out_vc=w,
            )
            if flit.is_tail:
                tr.emit(
                    "vc_free", cycle, router=self.router_id, port=o, vc=w,
                    pid=flit.packet.pid,
                )

    # --- 3. switch-allocator requests -----------------------------------

    def _collect_sa_requests(self, conn_in_start, conn_out_start):
        sa_requests = {}
        sa_contrib = {}
        forming_tails = {}
        starv = self.starvation
        fv = self.faults
        for p in range(self.radix):
            if conn_in_start[p] is not None:
                continue  # inputs connected at cycle start sit out of SA
            for v, vcobj in enumerate(self.in_vcs[p]):
                flit = vcobj.front()
                if flit is None:
                    continue
                if vcobj.active_packet is not None:
                    # Parked mid-packet: connection was released earlier;
                    # re-bid using the already-assigned output VC.
                    o = vcobj.active_out_port
                    if conn_out_start[o] is not None:
                        continue
                    if self.credits[o][vcobj.active_out_vc] == 0:
                        continue
                elif flit.is_head:
                    if self.split_va and not self.speculative_va:
                        # Heads need a VC-allocator grant (a previous
                        # cycle) before they may bid for the switch.
                        continue
                    o = flit.out_port
                    if conn_out_start[o] is not None:
                        continue
                    if self._free_out_vc(o, flit.vc_class) is None:
                        continue
                else:  # pragma: no cover - body flit without state
                    raise AssertionError("body flit at VC front without state")
                if fv is not None and (flit.packet.killed or fv.is_dead_out(o)):
                    # Belt-and-braces: the fault pre-pass already purged
                    # or re-routed these, but a fault applied mid-cycle
                    # must never win allocation toward a dead port.
                    continue
                prio = starv.packet_priority(flit.packet.priority, vcobj.wait_cycles)
                if self.speculative_va:
                    # Non-speculative requests (packets that already hold
                    # an output VC) beat speculative head requests.
                    if vcobj.active_packet is not None:
                        prio += _NONSPECULATIVE_BOOST
                pair = (p, o)
                if pair not in sa_requests or prio > sa_requests[pair]:
                    sa_requests[pair] = prio
                sa_contrib.setdefault(pair, []).append((v, prio))
                if flit.is_tail:
                    forming_tails.setdefault(o, []).append((p, v))
        return sa_requests, sa_contrib, forming_tails

    def _free_out_vc(self, output, vc_class):
        """Lowest-numbered free output VC of the class with a credit."""
        credits = self.credits[output]
        busy = self.out_vc_busy[output]
        for w in self.config.vc_class_range(vc_class):
            if not busy[w] and credits[w] > 0:
                return w
        return None

    # --- 4. packet-chaining candidates ----------------------------------

    def _collect_pc_candidates(
        self, conn_in_start, releasing, forming_tails, released_inputs,
        inhibited, sa_requests,
    ):
        from repro.core.chaining import ChainingScheme

        builder = PCRequestBuilder(self.scheme)
        chainable_outputs = set(releasing) | set(forming_tails)
        if not chainable_outputs:
            return builder
        if self.scheme is ChainingScheme.ANY_INPUT:
            inputs = range(self.radix)
        else:
            # Same-input schemes only ever chain packets from the input
            # that holds (or is forming) the connection.
            inputs = {holder[0] for holder in releasing.values()}
            inputs.update(
                hp for holders in forming_tails.values() for hp, _ in holders
            )
        for p in inputs:
            input_connected = conn_in_start[p] is not None
            input_released = p in released_inputs and ("in", p) not in inhibited
            if input_connected and not input_released:
                # Holding a connection beyond this cycle: no VC of this
                # input can chain.
                continue
            for v, vcobj in enumerate(self.in_vcs[p]):
                self._candidates_from_vc(
                    builder, p, v, vcobj, input_connected,
                    conn_in_start[p], releasing, forming_tails, sa_requests,
                    chainable_outputs,
                )
        return builder

    def _candidates_from_vc(
        self, builder, p, v, vcobj, input_connected, input_start_output,
        releasing, forming_tails, sa_requests, chainable_outputs,
    ):
        flit = vcobj.front()
        if flit is None:
            return

        front_bids_sa = False
        if vcobj.active_packet is not None:
            targets = [(flit, vcobj.active_out_port, ())]
            front_bids_sa = (p, vcobj.active_out_port) in sa_requests
        elif flit.is_head:
            targets = [(flit, flit.out_port, ())]
            front_bids_sa = (p, flit.out_port) in sa_requests
        else:  # pragma: no cover - body flit at front without VC state
            return

        # Flits behind an SA-bidding front flit (Section 2.4): only the
        # next packet's head directly behind a departing tail can chain.
        if front_bids_sa and flit.is_tail and len(vcobj.queue) > 1:
            behind = vcobj.queue[1]
            if behind.is_head:
                targets.append((behind, behind.out_port, (("front_departs",),)))

        if all(o not in chainable_outputs for _, o, _ in targets):
            return

        for cand_flit, o, extra_requires in targets:
            requires = extra_requires
            if input_connected and input_start_output != o:
                # The candidate's input was part of another connection
                # to a different output; the chain depends on that
                # release, so it bids in the speculative class
                # (Section 2.4). Same-output candidates are chaining
                # onto their own input's releasing connection — the
                # canonical (definite) case.
                requires = (("own_release",),) + requires

            if cand_flit is flit and front_bids_sa and not extra_requires:
                # The front flit itself bids SA for this output; its
                # only PC use is chaining onto a connection formed by a
                # *different* tail for the same output this cycle.
                if o not in forming_tails:
                    continue

            holder = None
            if o in releasing:
                holder = releasing[o]
                conn_age = self.conn_age[o]
            elif o in forming_tails:
                requires = requires + (("sa_tail", o),)
                conn_age = 0  # the connection forms this cycle
            else:
                continue

            # Length-aware threshold check: don't chain a packet the
            # starvation control would cut mid-transfer (Section 4.7).
            remaining_flits = cand_flit.packet.size - cand_flit.index
            if not self.starvation.chainable(conn_age, remaining_flits):
                continue

            if not self._pc_output_vc_ok(cand_flit, vcobj):
                continue

            if holder is not None:
                admitted = scheme_admits(self.scheme, p, v, holder[0], holder[1])
            else:
                admitted = any(
                    scheme_admits(self.scheme, p, v, hp, hv)
                    for hp, hv in forming_tails[o]
                    if not (cand_flit is flit and (hp, hv) == (p, v))
                )
            if not admitted:
                continue
            builder.add(
                PCCandidate(
                    input_port=p,
                    vc=v,
                    output_port=o,
                    priority=cand_flit.packet.priority,
                    flit=cand_flit,
                    speculative=bool(requires),
                    requires=requires,
                )
            )

    def _pc_output_vc_ok(self, flit, vcobj):
        """Check (b)+(c) of Section 2.2: a usable output VC with credit."""
        if vcobj.active_packet is not None and flit is vcobj.front():
            # Partially transmitted packet: only its assigned VC is eligible.
            return self.credits[vcobj.active_out_port][vcobj.active_out_vc] > 0
        return self._free_out_vc(flit.out_port, flit.vc_class) is not None

    # --- 5. switch-allocation commit ------------------------------------

    def _commit_sa(self, cycle, sa_grants, sa_contrib, departed_vcs):
        sa_winner_vc = {}
        sa_tail_outputs = {}
        for p, o in sa_grants.items():
            entries = sa_contrib[(p, o)]
            best = max(prio for _, prio in entries)
            vcs = [v for v, prio in entries if prio == best]
            v = self._sa_vc_arbiters[p].select(vcs)
            self._sa_vc_arbiters[p].update(v)
            vcobj = self.in_vcs[p][v]
            flit = vcobj.front()

            tr = self.trace
            if vcobj.active_packet is None:
                w = self._free_out_vc(o, flit.vc_class)
                if w is None:
                    # Only reachable for speculative-VA head grants: the
                    # output VC pool changed since eligibility; the SA
                    # grant is wasted (the output idles this cycle).
                    self.wasted_speculations += 1
                    continue
                vcobj.start_packet(flit.packet, o, w)
                self.out_vc_busy[o][w] = True
                if tr.active:
                    tr.emit(
                        "vc_alloc", cycle, router=self.router_id, port=o,
                        vc=w, pid=flit.packet.pid,
                    )
            else:
                w = vcobj.active_out_vc

            if tr.active:
                tr.emit(
                    "sa_grant", cycle, router=self.router_id, port=o,
                    pid=flit.packet.pid, in_port=p, vc=v, out_vc=w,
                )
            self._send_flit(cycle, flit, p, v, o, w)
            departed_vcs.add((p, v))
            sa_winner_vc[p] = v
            if flit.is_tail:
                # Connection forms and releases in the same cycle; a
                # chained packet may take it over (validated in PC commit).
                sa_tail_outputs[o] = (p, v)
            else:
                self.conn_in[p] = o
                self.conn_out[o] = (p, v)
                self.conn_age[o] = 0
                if tr.active:
                    tr.emit(
                        "conn_held", cycle, router=self.router_id, port=o,
                        in_port=p, vc=v, pid=flit.packet.pid,
                    )
        return sa_winner_vc, sa_tail_outputs

    # --- 6. packet-chaining commit / conflict detection ------------------

    def _commit_pc(
        self, cycle, pc_grants, builder, sa_grants, sa_winner_vc,
        sa_tail_outputs, releasing, conn_out_start,
    ):
        for p, o in pc_grants.items():
            candidates = builder.candidates_for(p, o)
            chosen = None
            for cand in candidates:
                if self._pc_candidate_valid(
                    cand, p, o, sa_grants, sa_winner_vc, sa_tail_outputs
                ):
                    chosen = cand
                    break
            if chosen is None:
                if p in sa_grants:
                    self.chain_stats.conflicts += 1
                else:
                    self.chain_stats.speculation_failures += 1
                continue
            self._establish_chain(cycle, chosen, o, releasing, sa_tail_outputs)

    def _behind_winning_tail(self, cand, p, sa_winner_vc, sa_tail_outputs):
        """True if cand sits directly behind this input's SA-granted tail."""
        return (
            sa_winner_vc.get(p) == cand.vc
            and any(pv == (p, cand.vc) for pv in sa_tail_outputs.values())
        )

    def _pc_candidate_valid(
        self, cand, p, o, sa_grants, sa_winner_vc, sa_tail_outputs
    ):
        vcobj = self.in_vcs[p][cand.vc]
        if vcobj.front() is not cand.flit:
            return False  # buffer moved unexpectedly
        # Conflict detection: SA granted the same input. The only
        # compatible case is the candidate directly behind the departing
        # tail that won SA in the same VC (Section 2.4's lower-priority
        # behind-the-head requests exist exactly to enable it).
        if p in sa_grants and not self._behind_winning_tail(
            cand, p, sa_winner_vc, sa_tail_outputs
        ):
            return False
        for req in cand.requires:
            kind = req[0]
            if kind == "own_release":
                # The release already happened during streaming (we only
                # admitted released inputs), so nothing further to check.
                continue
            if kind == "front_departs":
                if sa_winner_vc.get(p) != cand.vc:
                    return False
                continue
            if kind == "sa_tail":
                target = req[1]
                winner = sa_tail_outputs.get(target)
                if winner is None:
                    return False
                # Scheme filter against the actual connection former.
                if not scheme_admits(self.scheme, p, cand.vc, winner[0], winner[1]):
                    return False
                continue
            raise AssertionError(f"unknown PC requirement {req!r}")
        # Re-check an output VC is available *now* (tails freed VCs and
        # SA winners claimed VCs during this cycle).
        if vcobj.active_packet is not None:
            return self.credits[vcobj.active_out_port][vcobj.active_out_vc] > 0
        return self._free_out_vc(o, cand.flit.vc_class) is not None

    def _establish_chain(self, cycle, cand, o, releasing, sa_tail_outputs):
        p, v = cand.input_port, cand.vc
        vcobj = self.in_vcs[p][v]
        tr = self.trace
        if vcobj.active_packet is None:
            w = self._free_out_vc(o, cand.flit.vc_class)
            vcobj.start_packet(cand.flit.packet, o, w)
            self.out_vc_busy[o][w] = True
            if tr.active:
                tr.emit(
                    "vc_alloc", cycle, router=self.router_id, port=o, vc=w,
                    pid=cand.flit.packet.pid,
                )
        self.conn_in[p] = o
        self.conn_out[o] = (p, v)
        holder = releasing.get(o)
        if holder is None:
            # Chained onto a connection formed (and released) by an SA
            # tail grant this cycle: a fresh connection.
            holder = sa_tail_outputs[o]
            self.conn_age[o] = 0
        # else: the connection persists across the chain; its age keeps
        # accumulating so starvation control still triggers (Section 2.5).
        self.chain_stats.record_chain(
            same_input=holder[0] == p, same_vc=holder == (p, v)
        )
        if tr.active:
            tr.emit(
                "pc_chain", cycle, router=self.router_id, port=o,
                pid=cand.flit.packet.pid, in_port=p, vc=v,
                same_input=holder[0] == p, same_vc=holder == (p, v),
                speculative=cand.speculative,
            )

    def _split_vc_allocation(self, cycle):
        """Assign output VCs to waiting head flits (split-VA mode).

        Each unallocated head flit requests its lowest-numbered free
        output VC; the VC allocator resolves conflicts. Winners hold
        the VC (out_vc_busy) immediately, which is exactly what reduces
        the free-VC pool available to packet chaining compared to the
        combined allocator (Section 2.2).
        """
        V = self.config.num_vcs
        requests = {}
        requesters = {}
        for p in range(self.radix):
            for v, vcobj in enumerate(self.in_vcs[p]):
                flit = vcobj.front()
                if flit is None or not flit.is_head:
                    continue
                if vcobj.active_packet is not None:
                    continue  # already allocated (or mid-packet)
                w = self._free_out_vc(flit.out_port, flit.vc_class)
                if w is None:
                    continue
                pair = (p * V + v, flit.out_port * V + w)
                requests[pair] = flit.packet.priority
                requesters[pair] = (p, v, flit, w)
        if not requests:
            return
        tr = self.trace
        prof = self.profiler
        if prof is not None:
            ta = perf_counter()
            grants = self.vc_alloc.allocate(requests)
            prof.add_component("vc_alloc", self._prof_sa,
                               perf_counter() - ta)
        else:
            grants = self.vc_alloc.allocate(requests)
        counters = self.alloc_counters
        counters["vc_requests"] += len(requests)
        counters["vc_grants"] += len(grants)
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

    def _end_of_cycle(self, departed_vcs):
        for o in range(self.radix):
            if self.conn_out[o] is not None:
                self.conn_age[o] += 1
        for p in range(self.radix):
            for v, vcobj in enumerate(self.in_vcs[p]):
                if (p, v) in departed_vcs:
                    continue
                flit = vcobj.front()
                if flit is None:
                    continue
                if flit.is_head or vcobj.active_packet is not None:
                    vcobj.wait_cycles += 1
                    flit.packet.blocked_cycles += 1

    # --- introspection ----------------------------------------------------

    def occupancy(self, port):
        """Downstream queue occupancy estimate for UGAL (credit deficit)."""
        depth = self.config.vc_buf_depth
        return sum(depth - c for c in self.credits[port])

    def total_buffered_flits(self):
        return sum(
            len(vc) for vcs in self.in_vcs for vc in vcs
        )
