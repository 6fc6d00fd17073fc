"""Network assembly: routers, channels, terminals, and the cycle loop.

Wiring: for every inter-router link, one flit channel (delay = link
delay + 1 cycle of switch traversal) and one credit channel back
(delay = ``credit_delay``, the paper's "two cycles to generate and
transmit credits upstream"). Terminals get an injection channel into
their router's terminal port and an ejection channel to a sink that
consumes flits immediately.
"""

import random
import weakref

from repro.network.channel import PipelinedChannel
from repro.network.router import Router
from repro.network.terminal import Sink, Source
from repro.obs.trace import NULL_TRACE
from repro.routing import build_routing
from repro.stats import StatsCollector
from repro.topology import build_topology

#: Extra channel latency for the switch-traversal (ST) pipeline stage.
ST_LATENCY = 1


def build_network(config, stats=None, trace=None):
    """Build the :class:`Network` for ``config``."""
    return Network(config, stats=stats, trace=trace)


class Network:
    """A complete simulated network for one NetworkConfig."""

    #: Router/terminal classes this network builds.
    ROUTER_CLS = Router
    SOURCE_CLS = Source
    SINK_CLS = Sink

    def __init__(self, config, stats=None, trace=None):
        self.config = config
        self.topology = build_topology(config)
        self.rng = random.Random(config.seed)
        self.routing = build_routing(config, self.topology, self.rng)
        # UGAL's congestion probe reads this network's routers. Routers
        # hold the routing function, so a strong reference back would
        # make every network a reference cycle that outlives its run
        # until the cyclic garbage collector gets to it.
        net = weakref.ref(self)
        self.routing.attach_congestion(
            lambda router, port: net().routers[router].occupancy(port)
        )
        self.stats = stats or StatsCollector(self.topology.num_terminals)
        #: Event trace bus shared by routers, sources, and sinks. The
        #: default NULL_TRACE never activates, so untraced runs pay one
        #: branch per emission site.
        self.trace = trace if trace is not None else NULL_TRACE
        self.profiler = None
        self.cycle = 0

        router_cls = type(self).ROUTER_CLS
        self.routers = [
            router_cls(r, self.topology.radix(r), config, self.routing)
            for r in range(self.topology.num_routers)
        ]
        for router in self.routers:
            router.trace = self.trace
        self.sources = []
        self.sinks = []
        self._wire()

        #: Robustness hooks (repro.faults); all None in the common case
        #: so the cycle loop pays one branch each when they are off.
        self.faults = None
        self.transport = None
        self.invariants = None
        #: The routers/sources/sinks actually stepped each cycle.
        #: Aliases of the full lists until a router dies (retire_router)
        #: or a shard mask is applied, so the common path has no
        #: filtering cost.
        self.step_routers = self.routers
        self.step_sources = self.sources
        self.step_sinks = self.sinks
        #: Conservative-lookahead shard mask (repro.parallel), or None.
        #: Unlike fault retirement, a masked network is still fully
        #: snapshotable: the un-stepped components simply hold their
        #: initial (or restored) state, and the shard protocol is what
        #: keeps the stepped subset equivalent to a global run.
        self.shard_mask = None

    # ------------------------------------------------------------------

    def _wire(self):
        topo, cfg = self.topology, self.config
        for r, router in enumerate(self.routers):
            for port in range(topo.radix(r)):
                link = topo.link(r, port)
                if link is None:
                    continue
                if router.out_flit_channels[port] is not None:
                    continue  # already wired from the other side
                other = self.routers[link.dest_router]
                fwd = PipelinedChannel(link.delay + ST_LATENCY)
                bwd = PipelinedChannel(link.delay + ST_LATENCY)
                cr_fwd = PipelinedChannel(cfg.credit_delay)
                cr_bwd = PipelinedChannel(cfg.credit_delay)
                # r:port --fwd--> other:dest_port, credits come back on cr_bwd
                router.out_flit_channels[port] = fwd
                other.in_flit_channels[link.dest_port] = fwd
                other.credit_up_channels[link.dest_port] = cr_bwd
                router.credit_return_channels[port] = cr_bwd
                # other:dest_port --bwd--> r:port
                other.out_flit_channels[link.dest_port] = bwd
                router.in_flit_channels[port] = bwd
                router.credit_up_channels[port] = cr_fwd
                other.credit_return_channels[link.dest_port] = cr_fwd
                router.downstream_router[port] = link.dest_router
                other.downstream_router[link.dest_port] = r

        for t in range(topo.num_terminals):
            r, port = topo.terminal_attachment(t)
            router = self.routers[r]
            router.is_terminal_port[port] = True
            inj = PipelinedChannel(cfg.injection_channel_delay)
            ej = PipelinedChannel(cfg.injection_channel_delay + ST_LATENCY)
            inj_credit = PipelinedChannel(cfg.credit_delay)
            ej_credit = PipelinedChannel(cfg.credit_delay)
            source = type(self).SOURCE_CLS(
                t, cfg, self.routing, inj, inj_credit, self.stats,
                trace=self.trace,
            )
            sink = type(self).SINK_CLS(t, ej, ej_credit, self.stats,
                                       trace=self.trace)
            router.in_flit_channels[port] = inj
            router.credit_up_channels[port] = inj_credit
            router.out_flit_channels[port] = ej
            router.credit_return_channels[port] = ej_credit
            router.downstream_router[port] = None
            self.sources.append(source)
            self.sinks.append(sink)

    # ------------------------------------------------------------------

    @property
    def num_terminals(self):
        return self.topology.num_terminals

    def inject(self, packet):
        """Queue a packet at its source terminal."""
        self.stats.record_created(packet, self.cycle)
        if self.transport is not None:
            self.transport.on_inject(packet, self.cycle)
        self.sources[packet.src].enqueue(packet)

    def attach_profiler(self, profiler):
        """Enable per-phase pipeline profiling on every router."""
        self.profiler = profiler
        for router in self.routers:
            router.profiler = profiler
        return profiler

    def attach_faults(self, controller):
        """Arm a FaultController against this network.

        Fault-aware DOR consults live link state and leaves detour
        tokens on packets, so next_hop stops being a pure function of
        (router, destination): the route memos are dropped and every
        hop calls through from here on.
        """
        for node in self.routers + self.sources:
            node._route_cache = None
        self.faults = controller
        return controller.bind(self)

    def attach_transport(self, transport):
        """Enable end-to-end reliable delivery (repro.faults.reliability)."""
        self.transport = transport
        return transport.bind(self)

    def attach_invariants(self, checker):
        """Enable the periodic runtime invariant checker."""
        self.invariants = checker
        return checker.bind(self)

    def retire_router(self, router_id):
        """Stop simulating a dead router and silence its sources.

        Called by the FaultController on a router fault. Sinks keep
        stepping (they only drain their ejection channels), and the
        Router object stays in ``self.routers`` for introspection.
        """
        router = self.routers[router_id]
        self.step_routers = [r for r in self.step_routers if r is not router]
        keep = []
        for source in self.step_sources:
            attached, _ = self.topology.terminal_attachment(source.terminal)
            if attached == router_id:
                source.alive = False
            else:
                keep.append(source)
        self.step_sources = keep

    def apply_shard_mask(self, router_ids, terminal_ids):
        """Step only the given routers/terminals (repro.parallel).

        The masked-out components stay constructed (their channel
        objects are the landing zones for boundary imports and their
        state is part of snapshots), they just never execute. Refused
        on a network that already has faults attached: shard workers
        run without fault injection or a transport.
        """
        if self.faults is not None or self.transport is not None:
            raise ValueError(
                "cannot shard a network with fault injection or a "
                "reliable transport attached"
            )
        router_set = frozenset(router_ids)
        terminal_set = frozenset(terminal_ids)
        self.shard_mask = {
            "routers": sorted(router_set),
            "terminals": sorted(terminal_set),
        }
        self.step_routers = [
            r for i, r in enumerate(self.routers) if i in router_set
        ]
        self.step_sources = [
            s for s in self.sources if s.terminal in terminal_set
        ]
        self.step_sinks = [
            s for s in self.sinks if s.terminal in terminal_set
        ]

    def step(self):
        """Advance the network by one cycle.

        Terminals with provably nothing to do are skipped: a sink acts
        only when its ejection channel has a flit due now, a source
        pulls credits only when one is due and steps only with a packet
        queued or in flight (the skipped calls would change no state
        and emit no event).
        """
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
        if self.invariants is not None:
            self.invariants.maybe_check(now)
        self.cycle += 1
        if self.profiler is not None:
            self.profiler.end_cycle()

    def run(self, cycles):
        for _ in range(cycles):
            self.step()

    # --- checkpointing ----------------------------------------------------

    def snapshot(self, ctx):
        """Serialize the complete network state for a checkpoint.

        ``ctx`` is a :class:`repro.checkpoint.SnapshotContext`; shared
        Packet objects are interned in it by pid so flits of one packet
        (and terminal queues holding it) reference a single record.

        Fault injection and the reliable transport are refused: their
        state (pending faults, retransmission queues, per-flow sequence
        windows) is not snapshotable yet, and silently dropping it would
        resume a different experiment. Observers (trace, profiler,
        invariants, the run's probes) are deliberately excluded — they
        attach to a restored run exactly as to a fresh one.
        """
        from repro.checkpoint import CheckpointError
        from repro.core.serialization import rng_state_to_json

        if self.faults is not None or self.transport is not None:
            raise CheckpointError(
                "cannot checkpoint a network with fault injection or a "
                "reliable transport attached"
            )
        if self.step_routers is not self.routers and self.shard_mask is None:
            raise CheckpointError(
                "cannot checkpoint a degraded network (retired routers)"
            )
        return {
            "cycle": self.cycle,
            "rng": rng_state_to_json(self.rng),
            "routers": [r.state_dict(ctx) for r in self.routers],
            "sources": [s.state_dict(ctx) for s in self.sources],
            "sinks": [s.state_dict(ctx) for s in self.sinks],
            "stats": self.stats.state_dict(),
        }

    def restore(self, state, ctx):
        """Restore a snapshot into this (freshly built) network.

        The network must have been constructed from the same config the
        snapshot was taken with; repro.checkpoint enforces that via the
        config hash before calling this.
        """
        from repro.core.serialization import set_rng_state

        self.cycle = state["cycle"]
        set_rng_state(self.rng, state["rng"])
        for router, s in zip(self.routers, state["routers"]):
            router.load_state(s, ctx)
        for source, s in zip(self.sources, state["sources"]):
            source.load_state(s, ctx)
        for sink, s in zip(self.sinks, state["sinks"]):
            sink.load_state(s, ctx)
        self.stats.load_state(state["stats"])

    # --- introspection ----------------------------------------------------

    def in_flight_flits(self):
        """Flits buffered in routers or on channels (not source queues)."""
        total = 0
        for router in self.routers:
            total += router._fill[0]
            for chan in router.out_flit_channels:
                if chan is not None:
                    total += len(chan._queue)
        return total

    def backlog(self):
        """Packets waiting at live sources (offered but not injected).

        Dead terminals' queues are excluded: those packets can never be
        injected, and counting them would keep drain loops from
        terminating after a router fault.
        """
        return sum(s.backlog for s in self.sources if s.alive)

    def chain_stats(self):
        """Aggregated chaining counters across all routers."""
        from repro.core.chaining import ChainStats

        total = ChainStats()
        for router in self.routers:
            total = total.merged(router.chain_stats)
        return total

    def publish_metrics(self, registry):
        """Publish collector, chaining, and router-level metrics."""
        self.stats.publish_metrics(registry)
        self.chain_stats().publish_metrics(registry)
        registry.counter("cycles").inc(self.cycle)
        registry.counter("router_flits_sent").inc(
            sum(sum(r.port_flits) for r in self.routers))
        registry.counter("wasted_speculations").inc(
            sum(r.wasted_speculations for r in self.routers))
        registry.gauge("in_flight_flits").set(self.in_flight_flits())
        self._publish_alloc_metrics(registry)
        if self.faults is not None:
            self.faults.publish_metrics(registry)
        if self.transport is not None:
            self.transport.publish_metrics(registry)
        if self.invariants is not None:
            self.invariants.publish_metrics(registry)
        return registry

    def _publish_alloc_metrics(self, registry):
        """Per-allocator grant efficiency: grants issued / requests
        presented, summed over routers — the paper's allocation-quality
        quantity, exported alongside the raw request/grant totals."""
        totals = {key: 0 for key in
                  ("sa_requests", "sa_grants", "pc_requests", "pc_grants",
                   "vc_requests", "vc_grants")}
        for router in self.routers:
            for key, value in router.alloc_counters.items():
                totals[key] += value
        for role in ("sa", "pc", "vc"):
            requests = totals[f"{role}_requests"]
            grants = totals[f"{role}_grants"]
            registry.counter(f"{role}_alloc_requests").inc(requests)
            registry.counter(f"{role}_alloc_grants").inc(grants)
            registry.gauge(f"{role}_grant_efficiency").set(
                grants / requests if requests else 0.0)
