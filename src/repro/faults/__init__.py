"""Fault injection, runtime invariants, and graceful degradation.

The resilience layer for the simulation core:

- :mod:`repro.faults.plan` — :class:`FaultPlan`: a deterministic,
  JSON-loadable schedule of link failures (permanent or transient),
  router failures, and per-flit transient errors (``--faults``);
- :mod:`repro.faults.controller` — :class:`FaultController`: applies a
  plan to a live network, kills packets hit by faults, returns their
  credits, and counts drops/corruptions/detours;
- :mod:`repro.faults.invariants` — :class:`InvariantChecker`: periodic
  credit-conservation, flit-conservation, buffer-bound, and
  connection-table sweeps in ``strict`` or ``report`` mode;
- :mod:`repro.faults.watchdog` — :class:`HangWatchdog`:
  deadlock/livelock detection with a diagnostic bundle (held
  connections, stalled fronts, sampler heatmap, recent trace events);
- :mod:`repro.faults.reliability` — :class:`ReliableTransport`:
  end-to-end sequence numbers, acks, and bounded exponential-backoff
  retransmission so applications survive a lossy network.

All of it is opt-in: a network without a controller or checker pays
one ``is None`` branch per cycle each; the watchdog is a run probe.
"""

from repro.faults.controller import FaultController, RouterFaultView
from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.faults.plan import FaultPlan, FlitErrors, LinkFault, RouterFault
from repro.faults.reliability import ReliabilityTag, ReliableTransport
from repro.faults.watchdog import HangWatchdog, WatchdogError

__all__ = [
    "FaultPlan",
    "LinkFault",
    "RouterFault",
    "FlitErrors",
    "FaultController",
    "RouterFaultView",
    "InvariantChecker",
    "InvariantViolation",
    "HangWatchdog",
    "WatchdogError",
    "ReliableTransport",
    "ReliabilityTag",
]
