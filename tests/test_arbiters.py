"""Unit and property tests for repro.arbiters."""

import pytest
from hypothesis import given, strategies as st

from repro.arbiters import RoundRobinArbiter


class TestRoundRobinArbiter:
    def test_empty_requests_returns_none(self):
        arb = RoundRobinArbiter(4)
        assert arb.select([]) is None

    def test_single_request_wins(self):
        arb = RoundRobinArbiter(4)
        assert arb.select([2]) == 2

    def test_pointer_designates_highest_priority(self):
        arb = RoundRobinArbiter(4, start=2)
        assert arb.select([0, 2, 3]) == 2

    def test_wraps_around(self):
        arb = RoundRobinArbiter(4, start=3)
        assert arb.select([0, 1]) == 0

    def test_update_moves_pointer_past_grant(self):
        arb = RoundRobinArbiter(4)
        winner = arb.select([0, 1])
        arb.update(winner)
        assert arb.pointer == 1
        assert arb.select([0, 1]) == 1

    def test_update_wraps(self):
        arb = RoundRobinArbiter(4)
        arb.update(3)
        assert arb.pointer == 0

    def test_select_does_not_mutate_state(self):
        arb = RoundRobinArbiter(4)
        arb.select([1, 2])
        assert arb.pointer == 0

    def test_round_robin_fairness_over_full_load(self):
        """Under persistent full load every index is served equally often."""
        arb = RoundRobinArbiter(3)
        wins = [0, 0, 0]
        for _ in range(9):
            w = arb.select([0, 1, 2])
            wins[w] += 1
            arb.update(w)
        assert wins == [3, 3, 3]

    def test_out_of_range_request_raises(self):
        arb = RoundRobinArbiter(4)
        with pytest.raises(ValueError):
            arb.select([4])

    def test_out_of_range_update_raises(self):
        arb = RoundRobinArbiter(4)
        with pytest.raises(ValueError):
            arb.update(-1)

    def test_bad_size_raises(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_bad_start_raises(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(4, start=4)

    def test_reset(self):
        arb = RoundRobinArbiter(4, start=2)
        arb.reset()
        assert arb.pointer == 0

    @given(
        size=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    def test_winner_is_always_a_requester(self, size, data):
        arb = RoundRobinArbiter(size)
        for _ in range(5):
            reqs = data.draw(st.lists(st.integers(0, size - 1), unique=True))
            winner = arb.select(reqs)
            if reqs:
                assert winner in reqs
                arb.update(winner)
            else:
                assert winner is None

