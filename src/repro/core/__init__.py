"""The paper's primary contribution: packet chaining.

- :mod:`repro.core.chaining` — chaining schemes, the PC request
  classes and the chaining statistics used by the router.
- :mod:`repro.core.starvation` — the two starvation-control mechanisms
  of Section 2.5.
- :mod:`repro.core.cost_model` — the analytic allocator area/power/delay
  model of Section 4.9.
"""

from repro.core.chaining import ChainingScheme, ChainStats
from repro.core.starvation import StarvationControl, StarvationMode
from repro.core.cost_model import AllocatorCostModel, CostReport

__all__ = [
    "ChainingScheme",
    "ChainStats",
    "StarvationControl",
    "StarvationMode",
    "AllocatorCostModel",
    "CostReport",
]
