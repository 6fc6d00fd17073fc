"""Sharded simulation of large networks across worker processes.

One process per shard steps a row-band of a mesh/torus independently
for a conservative-lookahead window (bounded by the minimum boundary
channel latency), then exchanges boundary flits/credits through
fsynced, window-stamped exchange files. Workers are supervised
(heartbeat leases, PDEATHSIG, confirmed kill) and a restarted one
replays from cycle 0 bit-identically; the merged end state is
provably equivalent to a single-process run (same SimResult, metrics
export, and digest Merkle root).

See DESIGN.md §11 for the full protocol.
"""

from repro.parallel.coordinator import (
    ShardRunError,
    ShardRunResult,
    shard_run,
    single_process_run,
)
from repro.parallel.partition import ShardPlan, ShardPlanError

__all__ = [
    "ShardPlan",
    "ShardPlanError",
    "ShardRunError",
    "ShardRunResult",
    "shard_run",
    "single_process_run",
]
