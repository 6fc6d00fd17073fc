"""Runtime invariant checking for the simulation core.

An :class:`InvariantChecker` attaches to a live
:class:`~repro.network.network.Network` and, every ``period`` cycles,
sweeps the whole network for violations of the properties the credit
protocol and allocator are supposed to guarantee:

- **credit conservation** — for every directed link (router→router,
  source→router, router→sink) and every VC: sender credits + flits on
  the forward channel + flits buffered at the receiver + credits on
  the return channel == buffer depth, at every cycle boundary, even
  while faults drop flits mid-link;
- **flit conservation** — flits injected == flits delivered + flits
  in flight + flits dropped by fault injection, network-wide;
- **buffer bounds** — no VC holds more flits than its capacity, no
  credit counter leaves [0, depth];
- **connection-table consistency** — at most one connection per output
  port, and ``conn_in``/``conn_out`` always agree (one connection per
  input, too).

``strict`` mode raises :class:`InvariantViolation` on the first bad
sweep (CI, tests); ``report`` mode records violations, emits
``invariant_violation`` trace events, and keeps simulating (forensics
on faulted runs). Detached networks pay nothing; an attached checker
costs one sweep every ``period`` cycles and nothing in between.
"""


class InvariantViolation(AssertionError):
    """One or more runtime invariants failed; ``violations`` lists them."""

    def __init__(self, cycle, violations):
        self.cycle = cycle
        self.violations = list(violations)
        lines = "\n  ".join(self.violations)
        super().__init__(
            f"{len(self.violations)} invariant violation(s) at cycle "
            f"{cycle}:\n  {lines}"
        )


class InvariantChecker:
    """Periodic network-wide invariant sweeps (strict or report mode)."""

    MODES = ("strict", "report")

    def __init__(self, period=64, mode="strict", max_reports=100):
        if period < 1:
            raise ValueError("invariant check period must be >= 1")
        if mode not in self.MODES:
            raise ValueError(f"unknown invariant mode {mode!r} "
                             f"(expected one of {self.MODES})")
        self.period = period
        self.mode = mode
        self.max_reports = max_reports
        self.network = None
        self.checks_run = 0
        self.violations = []  # (cycle, message) accumulated in report mode
        self._next_cycle = 0
        self._loops = []

    def bind(self, network):
        """Precompute the credit loops of the wired network."""
        self.network = network
        self._next_cycle = network.cycle
        self._loops = []
        topo = network.topology
        for r, router in enumerate(network.routers):
            for o in range(router.radix):
                fwd = router.out_flit_channels[o]
                if fwd is None:
                    continue
                link = topo.link(r, o)
                buffers = None
                if link is not None:
                    buffers = network.routers[link.dest_router].in_vcs[
                        link.dest_port
                    ]
                self._loops.append((
                    f"router {r} port {o}",
                    router.credits[o], fwd, buffers,
                    router.credit_return_channels[o],
                ))
        for t, source in enumerate(network.sources):
            r, port = topo.terminal_attachment(t)
            self._loops.append((
                f"source {t}",
                source.credits, source.flit_channel,
                network.routers[r].in_vcs[port], source.credit_channel,
            ))
        return self

    # --- per-cycle hook (Network.step, after all routers stepped) --------

    def maybe_check(self, cycle):
        if cycle >= self._next_cycle:
            self.check(cycle)
            self._next_cycle = cycle + self.period

    def check(self, cycle):
        """One full sweep; returns the violations found (possibly [])."""
        found = []
        self._check_buffers(found)
        self._check_connections(found)
        self._check_credit_conservation(found)
        self._check_flit_conservation(found)
        self.checks_run += 1
        if found:
            self._handle(cycle, found)
        return found

    def _handle(self, cycle, found):
        if self.mode == "strict":
            raise InvariantViolation(cycle, found)
        tr = self.network.trace
        for message in found:
            if len(self.violations) < self.max_reports:
                self.violations.append((cycle, message))
            if tr.active:
                tr.emit("invariant_violation", cycle, message=message)

    # --- individual invariants -------------------------------------------

    def _check_buffers(self, found):
        depth = self.network.config.vc_buf_depth
        for r, router in enumerate(self.network.routers):
            for p in range(router.radix):
                for v, vcobj in enumerate(router.in_vcs[p]):
                    if len(vcobj.queue) > vcobj.capacity:
                        found.append(
                            f"buffer overflow: router {r} in_vc[{p}][{v}] "
                            f"holds {len(vcobj.queue)} > {vcobj.capacity}"
                        )
                for v, credit in enumerate(router.credits[p]):
                    if not 0 <= credit <= depth:
                        found.append(
                            f"credit out of range: router {r} "
                            f"credits[{p}][{v}] = {credit} (depth {depth})"
                        )
        for t, source in enumerate(self.network.sources):
            for v, credit in enumerate(source.credits):
                if not 0 <= credit <= depth:
                    found.append(
                        f"credit out of range: source {t} credits[{v}] "
                        f"= {credit} (depth {depth})"
                    )

    def _check_connections(self, found):
        for r, router in enumerate(self.network.routers):
            seen_inputs = {}
            for o, held in enumerate(router.conn_out):
                if held is None:
                    continue
                p, v = held
                if p in seen_inputs:
                    found.append(
                        f"input connected twice: router {r} input {p} holds "
                        f"outputs {seen_inputs[p]} and {o}"
                    )
                seen_inputs[p] = o
                if router.conn_in[p] != o:
                    found.append(
                        f"connection tables disagree: router {r} "
                        f"conn_out[{o}]=({p},{v}) but conn_in[{p}]="
                        f"{router.conn_in[p]}"
                    )
            for p, o in enumerate(router.conn_in):
                if o is None:
                    continue
                held = router.conn_out[o]
                if held is None or held[0] != p:
                    found.append(
                        f"connection tables disagree: router {r} "
                        f"conn_in[{p}]={o} but conn_out[{o}]={held}"
                    )

    def _check_credit_conservation(self, found):
        depth = self.network.config.vc_buf_depth
        num_vcs = self.network.config.num_vcs
        for label, credits, fwd, buffers, credit_chan in self._loops:
            in_flight = [0] * num_vcs
            for flit in fwd.items():
                in_flight[flit.vc] += 1
            returning = [0] * num_vcs
            for vc in credit_chan.items():
                returning[vc] += 1
            for v in range(num_vcs):
                total = credits[v] + in_flight[v] + returning[v]
                if buffers is not None:
                    total += len(buffers[v])
                if total != depth:
                    found.append(
                        f"credit leak: {label} vc {v} accounts for {total} "
                        f"slots, expected {depth} (credits {credits[v]}, "
                        f"in-flight {in_flight[v]}, buffered "
                        f"{len(buffers[v]) if buffers is not None else 0}, "
                        f"returning {returning[v]})"
                    )

    def _check_flit_conservation(self, found):
        net = self.network
        sent = sum(s.flits_sent for s in net.sources)
        consumed = sum(k.flits_consumed for k in net.sinks)
        dropped = net.faults.dropped_flits if net.faults is not None else 0
        in_flight = net.in_flight_flits() + sum(
            s.flit_channel.in_flight for s in net.sources
        )
        if sent != consumed + dropped + in_flight:
            found.append(
                f"flit conservation broken: injected {sent} != delivered "
                f"{consumed} + in-flight {in_flight} + dropped {dropped}"
            )

    # --- reporting --------------------------------------------------------

    def summary(self):
        return {
            "mode": self.mode,
            "period": self.period,
            "checks_run": self.checks_run,
            "violations": len(self.violations),
        }

    def publish_metrics(self, registry):
        registry.counter("invariant_checks").inc(self.checks_run)
        registry.counter("invariant_violations").inc(len(self.violations))
        return registry
