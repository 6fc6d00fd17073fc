"""Row-band partitioning of a mesh/torus into shards.

A shard owns a contiguous band of router rows (and the terminals
attached to them — one per router in both supported topologies).
Boundary channels are the directed flit/credit channels whose writer
and reader routers live in different shards; each is identified by a
stable key naming its *writer* side, matching the channel-ownership
convention of the checkpoint layer (a channel is serialized by the
router that writes it).

The conservative-lookahead window is the minimum latency over all
boundary channels: an item sent during window ``k`` is due no earlier
than the first cycle of window ``k+1``, so shards can step a full
window without seeing each other's current-window traffic.
"""

from repro.topology import build_topology


class ShardPlanError(ValueError):
    """The configuration cannot be sharded."""


def channel_key(kind, router, port):
    """Stable id of a directed channel, named by its writer side."""
    return f"{kind}:{router}:{port}"


class ShardPlan:
    """Partition of one ``NetworkConfig`` into ``num_shards`` row bands.

    Deterministic for a given (config, num_shards): every worker and
    the coordinator rebuild the identical plan from those two values,
    so nothing about the partition needs to cross process boundaries.
    """

    #: Topologies with row-band structure and one terminal per router.
    TOPOLOGIES = ("mesh", "torus")

    def __init__(self, config, num_shards):
        from repro.network.network import ST_LATENCY

        if config.topology not in self.TOPOLOGIES:
            raise ShardPlanError(
                f"sharding supports topologies {self.TOPOLOGIES}, "
                f"got {config.topology!r}"
            )
        if config.routing != "dor":
            raise ShardPlanError(
                "sharding requires deterministic routing (routing='dor'): "
                "adaptive routing probes remote congestion state"
            )
        k = config.mesh_k
        if not 1 <= num_shards <= k:
            raise ShardPlanError(
                f"num_shards must be in [1, {k}] for a {k}x{k} "
                f"{config.topology}, got {num_shards}"
            )
        self.config = config
        self.num_shards = int(num_shards)
        self.topology = build_topology(config)
        self.k = k

        # Contiguous row bands, sizes as even as possible (first
        # ``k % num_shards`` bands get the extra row).
        base, extra = divmod(k, num_shards)
        self._row_shard = []
        for shard in range(num_shards):
            rows = base + (1 if shard < extra else 0)
            self._row_shard.extend([shard] * rows)

        self._routers = [[] for _ in range(num_shards)]
        for r in range(self.topology.num_routers):
            self._routers[self.shard_of_router(r)].append(r)
        # One terminal per router, attached to the like-numbered router.
        self._terminals = [list(rs) for rs in self._routers]

        # Boundary channels, keyed by writer (router, port). For a
        # boundary link A:p <-> B:q, A writes (and exports) its forward
        # flit channel and the credit channel for its input p; B reads
        # both — and vice versa for B's write sides.
        self._exports = [[] for _ in range(num_shards)]  # per writer shard
        self._imports = [[] for _ in range(num_shards)]  # per reader shard
        delays = []
        for r in range(self.topology.num_routers):
            owner = self.shard_of_router(r)
            for port in range(self.topology.radix(r)):
                link = self.topology.link(r, port)
                if link is None:
                    continue
                reader = self.shard_of_router(link.dest_router)
                if reader == owner:
                    continue
                flit_delay = link.delay + ST_LATENCY
                credit_delay = config.credit_delay
                for kind, delay in (("flit", flit_delay),
                                    ("credit", credit_delay)):
                    spec = {
                        "key": channel_key(kind, r, port),
                        "kind": kind,
                        "router": r,
                        "port": port,
                        "writer": owner,
                        "reader": reader,
                        "delay": delay,
                    }
                    self._exports[owner].append(spec)
                    self._imports[reader].append(spec)
                    delays.append(delay)

        #: Maximum safe window length (min boundary latency), or None
        #: for a single shard (no boundaries — any window is safe).
        self.lookahead = min(delays) if delays else None

    # ------------------------------------------------------------------

    def shard_of_router(self, router):
        _, y = self.topology.coords(router)
        return self._row_shard[y]

    def shard_of_terminal(self, terminal):
        router, _ = self.topology.terminal_attachment(terminal)
        return self.shard_of_router(router)

    def routers_of(self, shard):
        return self._routers[shard]

    def terminals_of(self, shard):
        return self._terminals[shard]

    def exports_of(self, shard):
        """Boundary channels this shard writes (exported each window)."""
        return self._exports[shard]

    def imports_of(self, shard):
        """Boundary channels this shard reads (imported each window)."""
        return self._imports[shard]

    def import_sources(self, shard):
        """Shards whose exchange files this shard must import from."""
        return sorted({spec["writer"] for spec in self._imports[shard]})

    def window_for(self, requested=None):
        """Validated window length in cycles.

        ``None`` selects the maximum safe window (the lookahead bound);
        an explicit request is validated against it. A single shard has
        no bound — the window then only sets the exchange-file/heartbeat
        granularity.
        """
        if requested is None:
            return self.lookahead if self.lookahead is not None else 64
        requested = int(requested)
        if requested < 1:
            raise ShardPlanError(f"window must be >= 1, got {requested}")
        if self.lookahead is not None and requested > self.lookahead:
            raise ShardPlanError(
                f"window {requested} exceeds the conservative lookahead "
                f"bound {self.lookahead} (min boundary channel latency)"
            )
        return requested

    @staticmethod
    def resolve_channel(network, spec):
        """The live channel object a boundary spec names, in any copy
        of the network (every shard constructs the full wiring)."""
        router = network.routers[spec["router"]]
        if spec["kind"] == "flit":
            return router.out_flit_channels[spec["port"]]
        return router.credit_up_channels[spec["port"]]

    def describe(self):
        """JSON-able summary (run metadata, docs, debugging)."""
        return {
            "topology": self.config.topology,
            "k": self.k,
            "num_shards": self.num_shards,
            "rows_per_shard": [
                sum(1 for s in self._row_shard if s == shard)
                for shard in range(self.num_shards)
            ],
            "boundary_channels": sum(len(e) for e in self._exports),
            "lookahead": self.lookahead,
        }
