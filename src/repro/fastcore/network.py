"""The fast core's network: FastRouters plus a lean cycle loop.

FastNetwork inherits all wiring, checkpointing, and introspection from
the reference :class:`~repro.network.network.Network`; it overrides the
per-cycle loop to skip terminal objects that provably have nothing to
do this cycle:

- a sink only acts when its ejection channel has a flit due *now*;
- a source only pulls credits when its credit channel has one due now,
  and only steps when it has a packet queued or in flight.

Both gates reproduce the reference behavior exactly — the skipped calls
would have returned without touching any state or emitting any event.
Fault injection and the reliable transport hook in at the reference's
positions (``begin_cycle`` before arrivals, ``transport.step`` after the
router loop); attaching faults drops the DOR route memos, because
fault-aware DOR reads live link and detour state.
"""

from repro.fastcore.router import FastRouter
from repro.fastcore.terminal import FastSink, FastSource
from repro.network.network import Network


class FastNetwork(Network):
    """Structure-of-arrays backend behind the reference interface."""

    ROUTER_CLS = FastRouter
    SOURCE_CLS = FastSource
    SINK_CLS = FastSink

    def attach_faults(self, controller):
        # Fault-aware DOR consults live link state and leaves detour
        # tokens on packets, so next_hop stops being a pure function of
        # (router, dest): every hop calls through from here on.
        for node in self.routers + self.sources:
            node._route_cache = None
        return super().attach_faults(controller)

    def step(self):
        """Advance one cycle (reference order, idle terminals skipped)."""
        now = self.cycle
        faults = self.faults
        if faults is not None:
            faults.begin_cycle(now)
        for router in self.step_routers:
            router.receive(now)
        for sink in self.step_sinks:
            q = sink.flit_channel._queue
            if q and q[0][0] <= now:
                sink.step(now)
        for source in self.step_sources:
            q = source.credit_channel._queue
            if q and q[0][0] <= now:
                source.receive_credits(now)
            if source._flits or source.queue:
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

    def in_flight_flits(self):
        """Reference semantics via the routers' O(1) fill counters."""
        total = 0
        for router in self.routers:
            total += router._fill[0]
            for chan in router.out_flit_channels:
                if chan is not None:
                    total += len(chan._queue)
        return total

    def state_arrays(self):
        """Structure-of-arrays snapshot of the hot router state.

        See :func:`repro.fastcore.soa.state_arrays`; NumPy arrays when
        NumPy is installed, plain nested lists otherwise.
        """
        from repro.fastcore.soa import state_arrays

        return state_arrays(self)
