"""Packet Chaining: Efficient Single-Cycle Allocation for On-Chip Networks.

A from-scratch Python reproduction of Michelogiannakis, Jiang, Dally &
Becker (MICRO 2011): a cycle-accurate NoC simulator with virtual-channel
flow control, incremental allocation, a combined switch/VC allocator,
four switch-allocator families (iSLIP-k, PIM, wavefront, augmenting paths)
and the paper's packet-chaining mechanism, plus a cache-coherent CMP
model for the application study.

Quickstart::

    from repro import mesh_config, run_simulation, ChainingScheme

    cfg = mesh_config(chaining=ChainingScheme.SAME_INPUT)
    result = run_simulation(cfg, pattern="uniform", rate=0.4, packet_length=1)
    print(result.avg_throughput, result.packet_latency.mean)

Samplers, the hang watchdog, heartbeats, state digests, checkpoints and
the kill switch are run probes, passed as one list (``run_simulation(cfg,
probes=[NetworkSampler(), Checkpointer("ck.json.gz")])``; see
:class:`repro.sim.runner.Probe`).
"""

from repro.checkpoint import (
    CheckpointError,
    SimulationKilled,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.chaining import ChainingScheme, ChainStats
from repro.core.starvation import StarvationControl, StarvationMode
from repro.core.cost_model import AllocatorCostModel, CostReport
from repro.network.config import NetworkConfig, fbfly_config, mesh_config
from repro.network.network import Network
from repro.serve import (
    ExperimentService,
    JobSpec,
    job_records,
    load_result,
    spec_for,
    submit_spec,
    wait_for,
)
from repro.sim.runner import run_simulation
from repro.parallel import ShardRunError, ShardRunResult, shard_run
from repro.stats.summary import SimResult

__version__ = "1.0.0"

__all__ = [
    "ChainingScheme",
    "ChainStats",
    "StarvationControl",
    "StarvationMode",
    "AllocatorCostModel",
    "CostReport",
    "NetworkConfig",
    "mesh_config",
    "fbfly_config",
    "Network",
    "run_simulation",
    "SimResult",
    "CheckpointError",
    "SimulationKilled",
    "load_checkpoint",
    "save_checkpoint",
    "shard_run",
    "ShardRunError",
    "ShardRunResult",
    "ExperimentService",
    "JobSpec",
    "job_records",
    "load_result",
    "spec_for",
    "submit_spec",
    "wait_for",
]
