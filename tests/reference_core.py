"""The reference core: the test oracle of the production router.

Before the simulator had one core it had two: a per-object reference
router and a packed-occupancy fast core that had to stay bit-identical
to it. The fast core became :class:`repro.network.router.Router`; the
reference core's hot paths live on here, moved verbatim, so the
equivalence suite (``test_fastcore_equivalence.py``, the generated
differentials in it and in ``test_shard.py``, and the digest tests)
keeps comparing two independent implementations of the router phases —
as ``DenseSweepWavefront`` in ``test_allocators.py`` keeps the dense
wavefront sweep as the oracle of the request-driven one.

What the oracle reimplements: arrivals, the step and every allocation
phase (streaming, flit send, SA collection, PC collection with its
request builder, SA and PC commit, end of cycle), the terminals'
injection/ejection loops and the network cycle loop. What it inherits
from the production classes, and therefore cannot check: construction,
checkpoint layout, the fault pre-pass, starvation releases, the
pseudo-circuit release test, split VC allocation and all network
wiring — ``test_core_goldens.py`` pins those against checked-in outputs
instead.

The oracle keeps its own PC candidate type, :class:`PCCandidate`, whose
``requires`` tuples name the events a speculative chain needs; the
production router keeps ``(vc, flit, priority, flags)`` tuples per
(input, output) instead, and the collector property in
``test_fastcore_equivalence.py`` compares the two formats.

Use :func:`reference_core` to build and step networks on the oracle::

    with reference_core():
        result = run_simulation(config, ...)
"""

import contextlib
from collections import deque

from repro.core.chaining import (
    PC_CLASS_STRIDE,
    PC_PRIORITY_DEFINITE,
    PC_PRIORITY_SPECULATIVE,
    ChainingScheme,
    scheme_admits,
)
from repro.network.network import Network
from repro.network.router import _NONSPECULATIVE_BOOST, Router
from repro.network.terminal import Sink, Source


class PCCandidate:
    """A waiting packet that may chain onto a releasing connection.

    ``speculative`` marks the lower priority class (Section 2.4): the
    chain is only valid if this cycle's switch allocation produces the
    event named in ``requires``:

    - ``("sa_tail", output)`` — a connectionless tail flit must win SA
      for ``output`` this cycle, forming the connection to chain onto;
    - ``("own_release",)`` — the candidate's own input port is part of
      another connection that must release this cycle;
    - ``("front_departs",)`` — the tail in front of the candidate must
      win SA this cycle.

    ``flit`` is the candidate's head (or parked body) flit; validation
    checks the flit itself rather than a buffer position because the
    departing tail ahead of it shifts positions within the cycle.
    """

    __slots__ = ("input_port", "vc", "output_port", "priority", "flit",
                 "speculative", "requires")

    def __init__(self, input_port, vc, output_port, priority, flit,
                 speculative=False, requires=()):
        self.input_port = input_port
        self.vc = vc
        self.output_port = output_port
        self.priority = priority
        self.flit = flit
        self.speculative = speculative
        self.requires = requires


class PCRequestBuilder:
    """The oracle's PC candidate list and its OR-reduction.

    The oracle's collector feeds it candidates; it OR-reduces them to
    (input, output) -> priority for the PC allocator and maps a
    port-level grant back to its candidates. The production collector
    builds the same matrix inline, in its walk.
    """

    def __init__(self):
        self.candidates = []

    def add(self, candidate):
        self.candidates.append(candidate)

    def request_matrix(self):
        """OR-reduce candidates to {(input, output): priority}.

        Priority = PC class (definite vs speculative) with the packet's
        own priority (e.g. age-escalated) as a tie-breaker inside the
        class.
        """
        matrix = {}
        for cand in self.candidates:
            pair = (cand.input_port, cand.output_port)
            pc_class = (
                PC_PRIORITY_SPECULATIVE if cand.speculative else PC_PRIORITY_DEFINITE
            )
            prio = pc_class * PC_CLASS_STRIDE + min(
                max(cand.priority, 0), PC_CLASS_STRIDE - 1
            )
            existing = matrix.get(pair)
            if existing is None or prio > existing:
                matrix[pair] = prio
        return matrix

    def candidates_for(self, input_port, output_port):
        """Candidates behind a port-level grant, definite class first."""
        matches = [
            c
            for c in self.candidates
            if c.input_port == input_port and c.output_port == output_port
        ]
        matches.sort(key=lambda c: (c.speculative, -c.priority))
        return matches


class ReferenceRouter(Router):
    """The per-object reference router (hot paths only, see above)."""

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
        self._step_unprofiled(cycle)  # the oracle is never profiled

    def _no_held_connections(self):
        for held in self.conn_out:
            if held is not None:
                return False
        return True

    def _step_unprofiled(self, cycle):
        """The pipeline phases with zero profiling overhead.

        The reference's untimed step (its timed twin is not carried
        over: the oracle is never profiled).
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
                pair: prio % PC_CLASS_STRIDE
                for pair, prio in matrix.items()
            }
        return matrix

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

    def _collect_pc_candidates(
        self, conn_in_start, releasing, forming_tails, released_inputs,
        inhibited, sa_requests,
    ):
        builder = PCRequestBuilder()
        chainable_outputs = set(releasing) | set(forming_tails)
        if not chainable_outputs:
            return builder
        if self.scheme is ChainingScheme.ANY_INPUT:
            inputs = range(self.radix)
        else:
            # Same-input schemes only ever chain packets from the input
            # that holds (or is forming) the connection. Visited in port
            # order, as any-input visits them: a set of small ints
            # iterates in an order that is a CPython hashing artefact
            # (list({9, 1}) == [9, 1]), not a router policy, and the
            # candidate order sets the request matrix's order, which the
            # order of PC grants and events (and PIM's grants) follow.
            inputs = {holder[0] for holder in releasing.values()}
            inputs.update(
                hp for holders in forming_tails.values() for hp, _ in holders
            )
            inputs = sorted(inputs)
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

    def total_buffered_flits(self):
        return sum(
            len(vc) for vcs in self.in_vcs for vc in vcs
        )


class ReferenceSource(Source):
    """The reference source: channel method calls, no first-hop memo."""

    def receive_credits(self, cycle):
        for vc in self.credit_channel.receive(cycle):
            self.credits[vc] += 1

    def step(self, cycle):
        """Send at most one flit into the injection channel."""
        if not self._flits:
            self._start_next_packet(cycle)
        if not self._flits:
            return
        if self._flits[0].packet.killed:
            # Fault injection killed the packet mid-injection: its
            # remaining flits never enter the network (nothing was
            # charged for them, so nothing needs returning).
            self._flits = None
            self._vc = None
            return
        if self.credits[self._vc] == 0:
            return
        flit = self._flits.popleft()
        flit.vc = self._vc
        self.credits[self._vc] -= 1
        self.flit_channel.send(flit, cycle)
        self.flits_sent += 1
        tr = self.trace
        if tr.active:
            tr.emit(
                "flit_injected", cycle, terminal=self.terminal,
                pid=flit.packet.pid, idx=flit.index, vc=self._vc,
            )

    def _start_next_packet(self, cycle):
        if not self.queue:
            return
        packet = self.queue[0]
        # The routing decision (UGAL's adaptive choice) is made when the
        # head flit is about to enter the network, using then-current
        # local congestion.
        self.routing.prepare(packet)
        vc = self._pick_vc(packet.vc_class)
        if vc is None:
            return  # no credit on any VC of the class; retry next cycle
        self.queue.popleft()
        flits = packet.flits()
        first_router, _ = self.routing.topology.terminal_attachment(packet.src)
        head = flits[0]
        # Look-ahead routing for the first hop: the output port at the
        # first router, and the VC class for the hop leaving it. The VC
        # *index* at the first router (head.vc) is chosen below from the
        # packet's initial class.
        head.out_port, head.vc_class = self.routing.next_hop(first_router, packet)
        packet.time_injected = cycle
        if self.stats is not None:
            self.stats.record_injected(packet, cycle)
        self._flits = deque(flits)
        self._vc = vc

    def _pick_vc(self, vc_class):
        """Lowest-numbered VC of the class with a credit (Section 4.6)."""
        for vc in self.config.vc_class_range(vc_class):
            if self.credits[vc] > 0:
                return vc
        return None


class ReferenceSink(Sink):
    """The reference sink: channel method calls."""

    def step(self, cycle):
        tr = self.trace
        for flit in self.flit_channel.receive(cycle):
            self.credit_channel.send(flit.vc, cycle)
            self.flits_consumed += 1
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
                self.stats.record_ejected(packet, cycle)
            self.stats.record_flit_ejected(flit, cycle)
            if tr.active:
                packet = flit.packet
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


def reference_step(self):
    """Advance the network by one cycle."""
    now = self.cycle
    if self.faults is not None:
        self.faults.begin_cycle(now)
    for router in self.step_routers:
        router.receive(now)
    for sink in self.step_sinks:
        sink.step(now)
    for source in self.step_sources:
        source.receive_credits(now)
        source.step(now)
    for router in self.step_routers:
        router.step(now)
    if self.transport is not None:
        self.transport.step(now)
    if self.sampler is not None:
        self.sampler.maybe_sample(now)
    if self.invariants is not None:
        self.invariants.maybe_check(now)
    if self.watchdog is not None:
        self.watchdog.maybe_check(now)
    self.cycle += 1
    if self.profiler is not None:
        self.profiler.end_cycle()


#: Network attributes the oracle swaps in, and their oracle values.
_ORACLE = {
    "ROUTER_CLS": ReferenceRouter,
    "SOURCE_CLS": ReferenceSource,
    "SINK_CLS": ReferenceSink,
    "step": reference_step,
}


@contextlib.contextmanager
def reference_core():
    """Build and step every :class:`Network` on the oracle in the block.

    Swaps ``Network.ROUTER_CLS`` / ``SOURCE_CLS`` / ``SINK_CLS`` and
    ``Network.step`` for the reference ones (restored on exit), so every
    entry point — ``run_simulation``, ``single_process_run``, forked
    shard workers — runs the oracle unchanged.
    """
    saved = {name: Network.__dict__[name] for name in _ORACLE}
    for name, value in _ORACLE.items():
        setattr(Network, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(Network, name, value)


def on_core(name):
    """The context for a test parametrised over the two cores:
    ``"reference"`` (the oracle) or ``"fast"`` (production, unchanged)."""
    return reference_core() if name == "reference" else contextlib.nullcontext()
