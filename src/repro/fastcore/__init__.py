"""The fast simulation core (``NetworkConfig.backend="fast"``, the default).

A drop-in backend behind the reference ``Network``/runner interface,
bit-identical to the reference core — same ``SimResult``, metrics
export, trace-event stream, and checkpoint layout, with or without
fault injection and the reliable transport
(tests/test_fastcore_equivalence.py is the gate) — but substantially
faster. See DESIGN.md ("The fast core") for the state layout, the fault
hook table and the equivalence contract, and :mod:`repro.fastcore.soa`
for where NumPy is (and deliberately is not) used; the core itself has
no NumPy dependency and importing this package does not import it.

Use :func:`repro.network.network.build_network` to construct the
backend a config asks for.
"""

from repro.fastcore.allocators import FastSeparableInputFirstAllocator
from repro.fastcore.network import FastNetwork
from repro.fastcore.router import FastRouter
from repro.fastcore.soa import state_arrays

__all__ = [
    "FastNetwork",
    "FastRouter",
    "FastSeparableInputFirstAllocator",
    "state_arrays",
]
