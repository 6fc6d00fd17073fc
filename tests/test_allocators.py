"""Unit and property tests for repro.allocators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocators import (
    AugmentingPathsAllocator,
    SeparableInputFirstAllocator,
    WavefrontAllocator,
    is_conflict_free,
    islip,
    make_allocator,
)


def request_matrices(max_ports=6):
    """Hypothesis strategy for (num_inputs, num_outputs, requests)."""
    return st.integers(2, max_ports).flatmap(
        lambda n_in: st.integers(2, max_ports).flatmap(
            lambda n_out: st.tuples(
                st.just(n_in),
                st.just(n_out),
                st.dictionaries(
                    st.tuples(st.integers(0, n_in - 1), st.integers(0, n_out - 1)),
                    st.integers(0, 3),
                    max_size=n_in * n_out,
                ),
            )
        )
    )


ALL_KINDS = [
    "islip1", "islip2", "oslip1", "oslip2", "pim1", "pim3",
    "wavefront", "augmenting",
]


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestAllocatorContract:
    def test_empty_requests(self, kind):
        alloc = make_allocator(kind, 5, 5)
        assert alloc.allocate({}) == {}

    def test_single_request_granted(self, kind):
        alloc = make_allocator(kind, 5, 5)
        assert alloc.allocate({(2, 3): 0}) == {2: 3}

    def test_grants_subset_of_requests(self, kind):
        alloc = make_allocator(kind, 4, 4)
        requests = {(0, 1): 0, (1, 1): 0, (2, 3): 0}
        grants = alloc.allocate(requests)
        for i, o in grants.items():
            assert (i, o) in requests

    def test_conflict_free(self, kind):
        alloc = make_allocator(kind, 4, 4)
        requests = {(i, o): 0 for i in range(4) for o in range(4)}
        grants = alloc.allocate(requests)
        assert is_conflict_free(grants)

    def test_full_contention_grants_one(self, kind):
        """All inputs want the same output: exactly one grant."""
        alloc = make_allocator(kind, 4, 4)
        grants = alloc.allocate({(i, 0): 0 for i in range(4)})
        assert len(grants) == 1

    def test_permutation_fully_granted(self, kind):
        """A permutation request pattern admits a perfect matching."""
        alloc = make_allocator(kind, 4, 4)
        requests = {(i, (i + 1) % 4): 0 for i in range(4)}
        assert alloc.allocate(requests) == {i: (i + 1) % 4 for i in range(4)}

    def test_priority_beats_round_robin(self, kind):
        alloc = make_allocator(kind, 4, 4)
        # Two inputs contend for output 0; input 3 has higher priority.
        grants = alloc.allocate({(0, 0): 0, (3, 0): 5})
        assert grants.get(3) == 0
        assert 0 not in grants

    def test_out_of_range_raises(self, kind):
        alloc = make_allocator(kind, 4, 4)
        with pytest.raises(ValueError):
            alloc.allocate({(4, 0): 0})
        with pytest.raises(ValueError):
            alloc.allocate({(0, 4): 0})
        state = alloc.state_dict()
        for requests in ({(0, 1): 0, (4, 0): 0}, {(0, 1): 0, (1, 1): 0,
                                                  (2, -1): 0}):
            with pytest.raises(ValueError):
                alloc.allocate(requests)
        assert alloc.state_dict() == state  # refused before any update

    @settings(max_examples=60, deadline=None)
    @given(case=request_matrices())
    def test_property_conflict_free_and_valid(self, kind, case):
        n_in, n_out, requests = case
        alloc = make_allocator(kind, n_in, n_out)
        for _ in range(3):  # exercise rotating state
            grants = alloc.allocate(requests)
            assert is_conflict_free(grants)
            for i, o in grants.items():
                assert (i, o) in requests


def allocation_call_sequences():
    """(num_inputs, num_outputs, allocator seed, [requests, ...]).

    Sizes are rectangular 1-10 x 1-10; every sequence has at least 20
    calls whose densities run from empty through the single-request
    short-circuit to fully dense, with up to four priority classes. The
    matrices come from a drawn seed rather than from hypothesis itself
    so that 20+ matrices of up to 100 cells stay cheap to generate.
    """
    def build(n_in, n_out, alloc_seed, matrix_seed, classes, densities):
        rng = random.Random(matrix_seed)
        calls = [
            {(i, o): rng.randrange(classes)
             for i in range(n_in) for o in range(n_out)
             if rng.random() < density}
            for density in densities
        ]
        return n_in, n_out, alloc_seed, calls

    return st.builds(
        build,
        st.integers(1, 10), st.integers(1, 10),
        st.integers(0, 2 ** 32), st.integers(0, 2 ** 32), st.integers(1, 4),
        st.lists(st.sampled_from([0.0, 0.02, 0.05, 0.15, 0.4, 1.0]),
                 min_size=20, max_size=28),
    )


class TestSeparable:
    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            SeparableInputFirstAllocator(4, 4, iterations=0)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            SeparableInputFirstAllocator(0, 4)

    def test_islip_factory(self):
        alloc = islip(4, 4, iterations=2)
        assert alloc.iterations == 2

    def test_single_iteration_can_be_suboptimal(self):
        """The paper's Figure 1 effect: iSLIP-1 can leave outputs idle.

        Construct a case where input arbiters collide on one output. With
        pointers at 0, inputs 0 and 1 both pick output 0; output 1 idles
        even though input 1 could have used it.
        """
        alloc = islip(2, 2, iterations=1)
        requests = {(0, 0): 0, (1, 0): 0, (1, 1): 0}
        grants = alloc.allocate(requests)
        assert len(grants) == 1  # suboptimal: matching of size 2 exists

    def test_second_iteration_fills_idle_output(self):
        """iSLIP-2 fixes the Figure 1 case above."""
        alloc = islip(2, 2, iterations=2)
        requests = {(0, 0): 0, (1, 0): 0, (1, 1): 0}
        grants = alloc.allocate(requests)
        assert grants == {0: 0, 1: 1}

    def test_pointer_update_on_grant(self):
        """iSLIP rotates arbiter priority after a winning grant."""
        alloc = islip(2, 2)
        assert alloc.allocate({(0, 0): 0, (1, 0): 0}) == {0: 0}
        # Output 0's pointer has moved past input 0, so input 1 now wins.
        assert alloc.allocate({(0, 0): 0, (1, 0): 0}) == {1: 0}

    def test_desynchronization_reaches_full_throughput(self):
        """Under persistent all-to-all load iSLIP-1 desynchronizes to 100%.

        McKeown's classic result: after a few cycles of saturation, the
        pointers desynchronize and every output is granted every cycle.
        """
        n = 4
        alloc = islip(n, n)
        requests = {(i, o): 0 for i in range(n) for o in range(n)}
        sizes = [len(alloc.allocate(requests)) for _ in range(20)]
        assert all(s == n for s in sizes[-8:])

    def test_iterations_never_reduce_matching(self):
        requests = {(0, 0): 0, (1, 0): 0, (1, 1): 0, (2, 1): 0, (2, 2): 0}
        g1 = islip(3, 3, iterations=1).allocate(requests)
        g3 = islip(3, 3, iterations=3).allocate(requests)
        assert len(g3) >= len(g1)

    @settings(max_examples=80, deadline=None)
    @given(case=allocation_call_sequences())
    def test_property_single_pass_matches_iterative_loop(self, case):
        """iSLIP-1's single-pass ``allocate`` against the generic loop it
        specialises: same grants in the same order, same state, after
        every call."""
        n_in, n_out, _, calls = case
        alloc = SeparableInputFirstAllocator(n_in, n_out)
        oracle = SeparableInputFirstAllocator(n_in, n_out)
        for requests in calls:
            assert (list(alloc.allocate(requests).items())
                    == list(oracle._allocate_iterative(requests).items()))
            assert alloc.state_dict() == oracle.state_dict()


class DenseSweepWavefront(WavefrontAllocator):
    """Test-only oracle: the dense per-class sweep ``allocate`` used to be.

    It walks every cell of the n x n matrix, wave by wave, once per
    priority class. The request-driven ``WavefrontAllocator.allocate``
    must reach the requesting cells in exactly this order: grants, grant
    insertion order (the router iterates the dict), RNG stream and
    ``state_dict()`` all have to match it call for call.
    """

    def allocate(self, requests):
        self._validate(requests)
        grants = {}
        if requests:
            self._rng.shuffle(self._row_perm)
            self._rng.shuffle(self._col_perm)
            matched_outputs = set()
            classes = sorted({p for p in requests.values()}, reverse=True)
            for prio in classes:
                self._sweep(
                    {pair for pair, p in requests.items() if p == prio},
                    grants,
                    matched_outputs,
                )
        self._priority_diagonal = (self._priority_diagonal + 1) % self._n
        return grants

    def _sweep(self, pairs, grants, matched_outputs):
        n = self._n
        row, col = self._row_perm, self._col_perm
        for wave in range(n):
            diag = (self._priority_diagonal + wave) % n
            for vi in range(n):
                i = row[vi]
                if i >= self.num_inputs:
                    continue
                o = col[(diag - vi) % n]
                if o >= self.num_outputs:
                    continue
                if i in grants or o in matched_outputs:
                    continue
                if (i, o) in pairs:
                    grants[i] = o
                    matched_outputs.add(o)


class TestWavefront:
    def test_maximal_matching(self):
        """Wavefront guarantees maximality: no request can be added."""
        alloc = WavefrontAllocator(4, 4, seed=0)
        requests = {(0, 0): 0, (1, 0): 0, (1, 1): 0, (2, 1): 0, (3, 3): 0}
        grants = alloc.allocate(requests)
        matched_in = set(grants)
        matched_out = set(grants.values())
        for (i, o) in requests:
            assert i in matched_in or o in matched_out

    @settings(max_examples=60, deadline=None)
    @given(case=request_matrices(), seed=st.integers(0, 999))
    def test_property_maximal(self, case, seed):
        n_in, n_out, requests = case
        alloc = WavefrontAllocator(n_in, n_out, seed=seed)
        grants = alloc.allocate(requests)
        matched_in = set(grants)
        matched_out = set(grants.values())
        for (i, o) in requests:
            assert i in matched_in or o in matched_out

    @settings(max_examples=60, deadline=None)
    @given(case=request_matrices(max_ports=10), seed=st.integers(0, 999))
    def test_property_strict_priority(self, case, seed):
        """A request only loses to a grant of at least its own priority
        on its row or its column."""
        n_in, n_out, requests = case
        grants = WavefrontAllocator(n_in, n_out, seed=seed).allocate(requests)
        input_of = {o: i for i, o in grants.items()}
        for (i, o), prio in requests.items():
            if grants.get(i) == o:
                continue
            blockers = []
            if i in grants:
                blockers.append(requests[(i, grants[i])])
            if o in input_of:
                blockers.append(requests[(input_of[o], o)])
            assert blockers and max(blockers) >= prio

    @settings(max_examples=80, deadline=None)
    @given(case=allocation_call_sequences())
    def test_property_matches_dense_sweep_oracle(self, case):
        """Same grants in the same order, same state, after every call."""
        n_in, n_out, seed, calls = case
        alloc = WavefrontAllocator(n_in, n_out, seed=seed)
        oracle = DenseSweepWavefront(n_in, n_out, seed=seed)
        for requests in calls:
            assert (list(alloc.allocate(requests).items())
                    == list(oracle.allocate(requests).items()))
            assert alloc.state_dict() == oracle.state_dict()

    def test_fairness_under_persistent_contention(self):
        """Conflicting requests win a comparable share over time.

        The symmetric-fairness permutation (see module docstring) must
        prevent the structural pairwise bias of a naive wavefront.
        """
        alloc = WavefrontAllocator(5, 5, seed=0)
        requests = {(0, 2): 0, (1, 2): 0}
        wins = {0: 0, 1: 0}
        rounds = 400
        for _ in range(rounds):
            grants = alloc.allocate(requests)
            assert len(grants) == 1
            wins[next(iter(grants))] += 1
        assert 0.35 * rounds < wins[0] < 0.65 * rounds

    def test_rectangular(self):
        alloc = WavefrontAllocator(2, 5, seed=0)
        grants = alloc.allocate({(0, 4): 0, (1, 2): 0})
        assert grants == {0: 4, 1: 2}


class TestAugmenting:
    def test_maximum_matching(self):
        """Augmenting paths finds the maximum matching where greedy fails."""
        alloc = AugmentingPathsAllocator(3, 3)
        # Greedy might match (0,1) and strand input 1; max matching is 3.
        requests = {(0, 0): 0, (0, 1): 0, (1, 1): 0, (2, 0): 0, (2, 2): 0}
        grants = alloc.allocate(requests)
        assert len(grants) == 3

    @settings(max_examples=60, deadline=None)
    @given(case=request_matrices(max_ports=5))
    def test_property_maximum(self, case):
        """Grants match the size of a brute-force maximum matching.

        Priorities are flattened to a single class: with multiple classes
        the allocator deliberately trades cardinality for strict priority.
        """
        n_in, n_out, requests = case
        flat = {pair: 0 for pair in requests}
        alloc = AugmentingPathsAllocator(n_in, n_out)
        grants = alloc.allocate(flat)
        assert len(grants) == _max_matching_size(set(flat), n_in)

    def test_priority_preserved_even_if_it_shrinks_matching(self):
        """A high-priority request is always served within its class."""
        alloc = AugmentingPathsAllocator(2, 2)
        # High class: (0,0). Low class: (0,1),(1,0). Serving the high
        # class first still allows a matching of size 2 here.
        grants = alloc.allocate({(0, 0): 9, (0, 1): 0, (1, 0): 0})
        assert grants[0] == 0


def _max_matching_size(pairs, n_in):
    """Reference maximum bipartite matching (simple Hungarian DFS)."""
    adj = {}
    for i, o in pairs:
        adj.setdefault(i, []).append(o)
    match = {}

    def try_kuhn(i, seen):
        for o in adj.get(i, []):
            if o in seen:
                continue
            seen.add(o)
            if o not in match or try_kuhn(match[o], seen):
                match[o] = i
                return True
        return False

    return sum(try_kuhn(i, set()) for i in range(n_in))


class TestOutputFirst:
    def test_output_first_resolves_output_contention_first(self):
        from repro.allocators import SeparableOutputFirstAllocator

        alloc = SeparableOutputFirstAllocator(2, 2)
        # Outputs 0 and 1 both grant input 0 (pointers at 0); input 0
        # accepts only one, idling input 1 — the output-first mirror of
        # the Figure 1 single-iteration suboptimality.
        grants = alloc.allocate({(0, 0): 0, (0, 1): 0, (1, 1): 0})
        assert len(grants) == 1

    def test_two_iterations_fill_in(self):
        from repro.allocators import SeparableOutputFirstAllocator

        alloc = SeparableOutputFirstAllocator(2, 2, iterations=2)
        grants = alloc.allocate({(0, 0): 0, (0, 1): 0, (1, 1): 0})
        assert grants == {0: 0, 1: 1}

    def test_pointer_rotation_is_fair(self):
        from repro.allocators import SeparableOutputFirstAllocator

        alloc = SeparableOutputFirstAllocator(2, 2)
        requests = {(0, 0): 0, (1, 0): 0}
        winners = [next(iter(alloc.allocate(requests))) for _ in range(4)]
        assert set(winners) == {0, 1}

    def test_bad_iterations(self):
        from repro.allocators import SeparableOutputFirstAllocator

        with pytest.raises(ValueError):
            SeparableOutputFirstAllocator(2, 2, iterations=0)


class TestPIM:
    def test_deterministic_with_seed(self):
        from repro.allocators import PIMAllocator

        requests = {(i, o): 0 for i in range(4) for o in range(4)}
        a = PIMAllocator(4, 4, seed=7).allocate(requests)
        b = PIMAllocator(4, 4, seed=7).allocate(requests)
        assert a == b

    def test_multiple_iterations_improve_matching(self):
        from repro.allocators import PIMAllocator
        import random as _random

        rng = _random.Random(0)
        sizes = {1: 0, 4: 0}
        for trial in range(100):
            requests = {
                (i, o): 0
                for i in range(6)
                for o in range(6)
                if rng.random() < 0.4
            }
            for iters in sizes:
                alloc = PIMAllocator(6, 6, iterations=iters, seed=trial)
                sizes[iters] += len(alloc.allocate(requests))
        assert sizes[4] > sizes[1]

    def test_bad_iterations(self):
        from repro.allocators import PIMAllocator

        with pytest.raises(ValueError):
            PIMAllocator(2, 2, iterations=0)


class TestFactory:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_allocator("hopscotch", 4, 4)

    def test_islip_k_parsing(self):
        assert make_allocator("islip3", 4, 4).iterations == 3

    def test_oslip_and_pim_parsing(self):
        assert make_allocator("oslip2", 4, 4).iterations == 2
        assert make_allocator("pim4", 4, 4).iterations == 4
