"""Packet chaining: schemes, PC request classes, and statistics.

Packet chaining (Section 2.2) reuses the switch connection of a
departing tail flit for a waiting packet destined to the same output,
so the switch allocator never has to rebuild that match. The router
owns the cycle-by-cycle mechanics; this module owns the policy:

- which (input, VC) pairs may chain onto a given connection
  (:class:`ChainingScheme`, Section 2.3);
- the two PC priority classes (definite vs. speculative requests,
  Section 2.4) — the router keeps its candidates as plain tuples, a
  speculative one flagged with the same-cycle events it needs;
- the counters behind Figure 11 (:class:`ChainStats`).
"""

import enum
from dataclasses import dataclass


class ChainingScheme(enum.Enum):
    """The three chaining variations of Section 2.3 (plus disabled)."""

    DISABLED = "disabled"
    #: Only the same input VC as the packet holding the connection.
    SAME_VC = "same_vc"
    #: Any eligible VC of the same input as the packet holding the connection.
    SAME_INPUT = "same_input"
    #: Eligible packets in any input and any VC (full PC allocator).
    ANY_INPUT = "any_input"

    @property
    def enabled(self):
        return self is not ChainingScheme.DISABLED

    @classmethod
    def parse(cls, value):
        """Accept a ChainingScheme, its value string, or None."""
        if value is None:
            return cls.DISABLED
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


#: PC request priority classes (Section 2.4): requests that may have to
#: be invalidated by same-cycle switch-allocator decisions bid in the
#: lower class so they cannot take resources from definite requests.
PC_PRIORITY_DEFINITE = 1
PC_PRIORITY_SPECULATIVE = 0
#: Packet/age priorities are honored *within* each PC class (Section
#: 2.4): a request's priority is ``class * PC_CLASS_STRIDE`` plus its
#: packet priority clamped to ``[0, PC_CLASS_STRIDE)``, so the class
#: separation dominates them.
PC_CLASS_STRIDE = 1 << 20


@dataclass
class ChainStats:
    """Counters for Figure 11 and Section 4.6.

    All counts are PC allocator grants that survived conflict
    detection, broken down by where the chained packet came from
    relative to the packet that held the connection.
    """

    same_input_same_vc: int = 0
    same_input_other_vc: int = 0
    other_input: int = 0
    #: PC grants dropped because the switch allocator granted the same
    #: input (or the speculated SA outcome did not happen).
    conflicts: int = 0
    #: PC grants dropped because the speculated event (tail winning SA,
    #: own-input connection releasing) did not occur.
    speculation_failures: int = 0
    cycles: int = 0

    def record_chain(self, same_input, same_vc):
        if same_input and same_vc:
            self.same_input_same_vc += 1
        elif same_input:
            self.same_input_other_vc += 1
        else:
            self.other_input += 1

    @property
    def total_chains(self):
        return self.same_input_same_vc + self.same_input_other_vc + self.other_input

    def merged(self, other):
        """Return a new ChainStats with summed counters."""
        return ChainStats(
            same_input_same_vc=self.same_input_same_vc + other.same_input_same_vc,
            same_input_other_vc=self.same_input_other_vc + other.same_input_other_vc,
            other_input=self.other_input + other.other_input,
            conflicts=self.conflicts + other.conflicts,
            speculation_failures=self.speculation_failures + other.speculation_failures,
            cycles=max(self.cycles, other.cycles),
        )

    def publish_metrics(self, registry):
        """Register the Figure 11 counters into a MetricsRegistry."""
        counters = (
            ("chains_total", self.total_chains),
            ("chains_same_vc", self.same_input_same_vc),
            ("chains_same_input", self.same_input_other_vc),
            ("chains_other_input", self.other_input),
            ("chain_conflicts", self.conflicts),
            ("chain_speculation_failures", self.speculation_failures),
            ("chain_cycles", self.cycles),
        )
        for name, value in counters:
            registry.counter(name).inc(value)
        return registry


def scheme_admits(scheme, cand_input, cand_vc, holder_input, holder_vc):
    """Does ``scheme`` allow (cand_input, cand_vc) to chain onto a
    connection held (or being formed) by (holder_input, holder_vc)?"""
    if scheme is ChainingScheme.DISABLED:
        return False
    if scheme is ChainingScheme.SAME_VC:
        return cand_input == holder_input and cand_vc == holder_vc
    if scheme is ChainingScheme.SAME_INPUT:
        return cand_input == holder_input
    return True  # ANY_INPUT
