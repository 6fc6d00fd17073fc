"""Wavefront allocator (Tamir & Chi, 1993).

The wavefront allocator sweeps anti-diagonal "waves" across the request
matrix starting from a rotating priority diagonal. All cells on one
anti-diagonal touch distinct rows and columns, so every requesting cell
whose row and column are still free is granted simultaneously. After n
waves every request either got its row/column or lost it to someone, so
the matching is maximal.

Fairness: with a fixed row/column order, the relative diagonal distance
between two conflicting requests is invariant under diagonal rotation,
giving persistent pairwise bias (e.g. 4:1 for adjacent diagonals in a
5-port allocator) that starves multi-hop flows at network level. Tamir
& Chi's *symmetric* crossbar arbiters exist precisely to avoid such
bias, so we follow their intent by additionally permuting the row and
column index mappings pseudo-randomly each allocation (deterministic
per instance), which equalizes pairwise win rates while preserving
maximality.

Priority classes are handled the way a priority-augmented hardware
wavefront does: a first sweep considers only the highest priority class
present, and subsequent sweeps fill remaining rows/columns with lower
classes. This guarantees strict priority while keeping the matching
maximal over the full request set.

Implementation: a router's matrix is sparse (about three requests in a
10-port FBFly router's 100 cells), so ``allocate`` does not walk the
cells. Write ``vi``/``vo`` for the positions of input ``i`` and output
``o`` in the shuffled row/column orders and ``d`` for the priority
diagonal. Wave ``w`` of a sweep covers the cells with
``(vi + vo) % n == (d + w) % n``, in ascending ``vi``, so the sweeps
reach cell ``(i, o)`` of priority ``p`` in the order of the key
``(-p, (vi + vo - d) % n, vi)``. Granting the requests greedily in that
order therefore gives the grants of the cell-by-cell sweep, inserted in
the same order (the router iterates the grant dict, so that order is
simulated behaviour); ``tests/test_allocators.py`` keeps the dense
sweep as the oracle.

The two ``rng.shuffle`` calls are deliberately left to the standard
library. Hand-inlining them was measured and gained nothing (1246 vs
1247 simulated cycles/s on the FBFly ledger workload), and it would pin
every simulated result to a private copy of CPython's ``_randbelow``.
"""

import itertools
import random
from typing import Dict, Optional

from repro.allocators.base import Allocator, RequestMatrix
from repro.core.serialization import rng_state_to_json, set_rng_state

_instance_counter = itertools.count()


class WavefrontAllocator(Allocator):
    """Maximal-matching wavefront allocator with symmetric fairness.

    ``seed`` makes the instance fully deterministic from its arguments
    (the router derives it from the config seed and router id); without
    one, a process-global instance counter staggers diagonals and RNG
    streams, which varies with construction history and is therefore
    not reproducible across processes.
    """

    def __init__(self, num_inputs: int, num_outputs: int,
                 seed: Optional[int] = None) -> None:
        super().__init__(num_inputs, num_outputs)
        self._n = max(num_inputs, num_outputs)
        if seed is None:
            self._priority_diagonal = next(_instance_counter) % self._n
            self._rng = random.Random(0xFA1A + next(_instance_counter))
        else:
            self._priority_diagonal = seed % self._n
            self._rng = random.Random(0xFA1A ^ (seed * 0x9E3779B1))
        self._row_perm = list(range(self._n))
        self._col_perm = list(range(self._n))

    def state_dict(self):
        return {
            "diagonal": self._priority_diagonal,
            "rng": rng_state_to_json(self._rng),
            "row_perm": list(self._row_perm),
            "col_perm": list(self._col_perm),
        }

    def load_state(self, state):
        self._priority_diagonal = state["diagonal"]
        set_rng_state(self._rng, state["rng"])
        self._row_perm = list(state["row_perm"])
        self._col_perm = list(state["col_perm"])

    def allocate(self, requests: RequestMatrix) -> Dict[int, int]:
        self._validate(requests)
        grants: Dict[int, int] = {}
        n = self._n
        if requests:
            row, col = self._row_perm, self._col_perm
            self._rng.shuffle(row)
            self._rng.shuffle(col)
            if len(requests) == 1:
                (i, o), = requests
                grants[i] = o
            else:
                inv_row = [0] * n
                inv_col = [0] * n
                for v in range(n):
                    inv_row[row[v]] = v
                    inv_col[col[v]] = v
                offset = n - self._priority_diagonal
                # (-priority, wave, vi) is distinct per cell, so the
                # trailing i, o never take part in a comparison.
                order = []
                for (i, o), prio in requests.items():
                    vi = inv_row[i]
                    order.append(
                        (-prio, (vi + inv_col[o] + offset) % n, vi, i, o))
                order.sort()
                matched_outputs = set()
                for _, _, _, i, o in order:
                    if i not in grants and o not in matched_outputs:
                        grants[i] = o
                        matched_outputs.add(o)
        # The priority diagonal also rotates every cycle, as in the
        # hardware implementation.
        self._priority_diagonal = (self._priority_diagonal + 1) % n
        return grants
