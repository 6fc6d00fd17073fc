"""Hardware-style arbiters used by the allocators and routers.

An arbiter selects at most one winner among a set of requesters. The
round-robin arbiter implements iSLIP pointer semantics (the pointer is
only advanced by an explicit :meth:`~repro.arbiters.round_robin.RoundRobinArbiter.update`
call so callers can implement "update only on accepted grants").
"""

from repro.arbiters.round_robin import RoundRobinArbiter

__all__ = [
    "RoundRobinArbiter",
]
