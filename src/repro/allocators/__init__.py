"""Switch/VC allocators.

All allocators operate on an OR-reduced P_in x P_out request matrix
(Section 4.9 of the paper: "requests for the PC allocator are OR-reduced
to a PxP set of requests", matching the combined switch allocator of
Kumar et al.). A request matrix maps ``(input_port, output_port)`` to a
priority (higher wins); an allocation is a conflict-free assignment
``input_port -> output_port``.

Available allocators:

- :class:`~repro.allocators.separable.SeparableInputFirstAllocator` —
  input-first separable allocation with round-robin (iSLIP) arbiters and
  a configurable iteration count (iSLIP-1, iSLIP-2, ...).
- :class:`~repro.allocators.pim.PIMAllocator` — parallel iterative
  matching: separable allocation with random grants.
- :class:`~repro.allocators.wavefront.WavefrontAllocator` — maximal
  matchings via the Tamir & Chi wavefront scheme with a rotating
  priority diagonal.
- :class:`~repro.allocators.augmenting.AugmentingPathsAllocator` —
  maximum matchings via Ford-Fulkerson augmenting paths.
"""

from repro.allocators.base import Allocator, RequestMatrix, is_conflict_free
from repro.allocators.separable import SeparableInputFirstAllocator, islip
from repro.allocators.pim import PIMAllocator
from repro.allocators.wavefront import WavefrontAllocator
from repro.allocators.augmenting import AugmentingPathsAllocator

__all__ = [
    "Allocator",
    "RequestMatrix",
    "is_conflict_free",
    "SeparableInputFirstAllocator",
    "PIMAllocator",
    "islip",
    "WavefrontAllocator",
    "AugmentingPathsAllocator",
]


def make_allocator(kind: str, num_inputs: int, num_outputs: int,
                   seed: int = None) -> Allocator:
    """Construct an allocator by name.

    Recognized kinds: ``islip1``/``islip2``/... (input-first separable
    round-robin with k iterations), ``pim1``/``pim2``/... (randomized
    PIM),
    ``wavefront``, ``augmenting``. Used by router/network configuration.

    ``seed`` pins the randomized allocators (PIM's grant RNG, the
    wavefront's starting diagonal and permutation RNG) so instances are
    reproducible across processes; without it they fall back to a
    process-global instance counter, which depends on construction
    history. Deterministic allocators ignore it.
    """
    kind = kind.lower()
    if kind.startswith("islip"):
        iterations = int(kind[len("islip"):] or "1")
        return SeparableInputFirstAllocator(num_inputs, num_outputs, iterations=iterations)
    if kind.startswith("pim"):
        iterations = int(kind[len("pim"):] or "1")
        return PIMAllocator(num_inputs, num_outputs, iterations=iterations, seed=seed)
    if kind == "wavefront":
        return WavefrontAllocator(num_inputs, num_outputs, seed=seed)
    if kind == "augmenting":
        return AugmentingPathsAllocator(num_inputs, num_outputs)
    raise ValueError(f"unknown allocator kind: {kind!r}")
