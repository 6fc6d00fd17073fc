"""Simulation harness: runs and sweeps."""

from repro.sim.runner import SimulationRun, run_simulation
from repro.sim.parallel import (
    MatrixResults,
    PointError,
    SweepResults,
    parallel_matrix,
    parallel_sweep,
)

__all__ = [
    "SimulationRun",
    "run_simulation",
    "parallel_sweep",
    "parallel_matrix",
    "SweepResults",
    "MatrixResults",
    "PointError",
]
