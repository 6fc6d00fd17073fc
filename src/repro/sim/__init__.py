"""Simulation harness: runs, sweeps and saturation search."""

from repro.sim.runner import SimulationRun, resume_simulation, run_simulation
from repro.sim.sweep import find_saturation
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
    "resume_simulation",
    "find_saturation",
    "parallel_sweep",
    "parallel_matrix",
    "SweepResults",
    "MatrixResults",
    "PointError",
]
