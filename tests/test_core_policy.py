"""Tests for the core policy modules: chaining, starvation, cost model."""

import pytest

from repro.core.chaining import (
    PC_CLASS_STRIDE,
    PC_PRIORITY_DEFINITE,
    PC_PRIORITY_SPECULATIVE,
    ChainStats,
    ChainingScheme,
    scheme_admits,
)
from repro.core.cost_model import AllocatorCostModel
from repro.core.starvation import StarvationControl, StarvationMode

from tests.reference_core import PCCandidate, PCRequestBuilder


class TestChainingScheme:
    def test_parse_strings(self):
        assert ChainingScheme.parse("same_vc") is ChainingScheme.SAME_VC
        assert ChainingScheme.parse("ANY_INPUT") is ChainingScheme.ANY_INPUT
        assert ChainingScheme.parse(None) is ChainingScheme.DISABLED
        assert ChainingScheme.parse(ChainingScheme.SAME_INPUT) is ChainingScheme.SAME_INPUT

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            ChainingScheme.parse("everything")

    def test_enabled(self):
        assert not ChainingScheme.DISABLED.enabled
        assert ChainingScheme.SAME_VC.enabled

    def test_scheme_admits_matrix(self):
        # (cand_input, cand_vc) vs holder (1, 2)
        cases = {
            ChainingScheme.SAME_VC: {(1, 2): True, (1, 3): False, (0, 2): False},
            ChainingScheme.SAME_INPUT: {(1, 2): True, (1, 3): True, (0, 2): False},
            ChainingScheme.ANY_INPUT: {(1, 2): True, (1, 3): True, (0, 2): True},
        }
        for scheme, table in cases.items():
            for (ci, cv), expect in table.items():
                assert scheme_admits(scheme, ci, cv, 1, 2) is expect

    def test_disabled_admits_nothing(self):
        assert not scheme_admits(ChainingScheme.DISABLED, 1, 2, 1, 2)


class TestPCRequestBuilder:
    """The test oracle's OR-reduction (production builds it inline)."""

    def _cand(self, p, v, o, speculative=False, priority=0):
        return PCCandidate(p, v, o, priority, flit=None, speculative=speculative)

    def test_or_reduction_takes_max_class(self):
        b = PCRequestBuilder()
        b.add(self._cand(0, 0, 2, speculative=True))
        b.add(self._cand(0, 1, 2, speculative=False))
        matrix = b.request_matrix()
        assert set(matrix) == {(0, 2)}
        assert matrix[(0, 2)] // PC_CLASS_STRIDE == PC_PRIORITY_DEFINITE

    def test_packet_priority_breaks_ties_within_class(self):
        b = PCRequestBuilder()
        b.add(self._cand(0, 0, 2, priority=3))
        b.add(self._cand(1, 0, 2, priority=7))
        matrix = b.request_matrix()
        assert matrix[(1, 2)] > matrix[(0, 2)]
        # Class separation dominates any packet priority.
        b2 = PCRequestBuilder()
        b2.add(self._cand(0, 0, 2, priority=999, speculative=True))
        b2.add(self._cand(1, 0, 2, priority=0, speculative=False))
        m2 = b2.request_matrix()
        assert m2[(1, 2)] > m2[(0, 2)]

    def test_speculative_class_is_lower(self):
        assert PC_PRIORITY_SPECULATIVE < PC_PRIORITY_DEFINITE

    def test_candidates_for_orders_definite_first(self):
        b = PCRequestBuilder()
        spec = self._cand(0, 0, 2, speculative=True)
        definite = self._cand(0, 1, 2, speculative=False)
        b.add(spec)
        b.add(definite)
        assert b.candidates_for(0, 2) == [definite, spec]

    def test_candidates_for_orders_by_priority_within_class(self):
        b = PCRequestBuilder()
        low = self._cand(0, 0, 2, priority=0)
        high = self._cand(0, 1, 2, priority=5)
        b.add(low)
        b.add(high)
        assert b.candidates_for(0, 2) == [high, low]

    def test_candidates_for_filters_pair(self):
        b = PCRequestBuilder()
        b.add(self._cand(0, 0, 2))
        assert b.candidates_for(1, 2) == []


class TestChainStats:
    def test_record_and_totals(self):
        s = ChainStats()
        s.record_chain(same_input=True, same_vc=True)
        s.record_chain(same_input=True, same_vc=False)
        s.record_chain(same_input=False, same_vc=False)
        assert s.same_input_same_vc == 1
        assert s.same_input_other_vc == 1
        assert s.other_input == 1
        assert s.total_chains == 3

    def test_merged(self):
        a = ChainStats(same_input_same_vc=1, conflicts=2, cycles=10)
        b = ChainStats(other_input=3, conflicts=1, cycles=20)
        m = a.merged(b)
        assert m.same_input_same_vc == 1
        assert m.other_input == 3
        assert m.conflicts == 3
        assert m.cycles == 20


class TestStarvationControl:
    def test_disabled_never_releases(self):
        s = StarvationControl.disabled()
        assert not s.must_release(10**6)
        assert s.chainable(10**6)

    def test_threshold_release(self):
        s = StarvationControl(StarvationMode.THRESHOLD, threshold=8)
        assert not s.must_release(7)
        assert s.must_release(8)
        assert s.must_release(9)

    def test_threshold_chainable_guard(self):
        """Connections one cycle from the threshold are not chainable."""
        s = StarvationControl(StarvationMode.THRESHOLD, threshold=8)
        assert s.chainable(6)
        assert not s.chainable(7)
        assert not s.chainable(8)

    def test_threshold_requires_value(self):
        with pytest.raises(ValueError):
            StarvationControl(StarvationMode.THRESHOLD)

    def test_age_priority_escalation(self):
        s = StarvationControl(StarvationMode.AGE, age_period=4)
        assert s.packet_priority(0, 0) == 0
        assert s.packet_priority(0, 3) == 0
        assert s.packet_priority(0, 4) == 1
        assert s.packet_priority(2, 9) == 4

    def test_threshold_mode_no_age_escalation(self):
        s = StarvationControl(StarvationMode.THRESHOLD, threshold=8)
        assert s.packet_priority(0, 100) == 0

    def test_from_config(self):
        assert StarvationControl.from_config().mode is StarvationMode.DISABLED
        assert StarvationControl.from_config(threshold=4).mode is StarvationMode.THRESHOLD
        assert StarvationControl.from_config(age_period=4).mode is StarvationMode.AGE

    def test_string_mode(self):
        s = StarvationControl("threshold", threshold=2)
        assert s.mode is StarvationMode.THRESHOLD


class TestCostModel:
    def test_mesh_design_point(self):
        """Becker & Dally mesh numbers: 2.5x area, 3x power, +20% delay."""
        wf = AllocatorCostModel(5).report("wavefront")
        assert wf.area == pytest.approx(2.5)
        assert wf.power == pytest.approx(3.0)
        assert wf.delay == pytest.approx(1.20)

    def test_fbfly_design_point(self):
        wf = AllocatorCostModel(10).report("wavefront")
        assert wf.area == pytest.approx(2.7)
        assert wf.power == pytest.approx(6.0)
        assert wf.delay == pytest.approx(1.36)

    def test_paper_headline_mesh(self):
        """Wavefront vs PC in the mesh: 1.5x power, 1.25x area, +20% delay."""
        rel = AllocatorCostModel(5).wavefront_vs_packet_chaining()
        assert rel.power == pytest.approx(1.5)
        assert rel.area == pytest.approx(1.25)
        assert rel.delay == pytest.approx(1.20)

    def test_paper_headline_fbfly(self):
        """Wavefront vs PC in the FBFly: 3x power, 1.35x area, +36% delay."""
        rel = AllocatorCostModel(10).wavefront_vs_packet_chaining()
        assert rel.power == pytest.approx(3.0)
        assert rel.area == pytest.approx(1.35)
        assert rel.delay == pytest.approx(1.36)

    def test_islip2_twice_the_delay(self):
        r = AllocatorCostModel(5).report("islip2")
        assert r.delay == 2.0
        assert r.area == 1.0

    def test_same_input_chaining_is_cheap(self):
        """SAME_INPUT needs only per-input arbiters (Section 4.9)."""
        m = AllocatorCostModel(5)
        assert m.report("pc_same_input").area < m.report("pc_any_input").area

    def test_table_covers_all_kinds(self):
        table = AllocatorCostModel(5).table()
        assert {r.name for r in table} == set(AllocatorCostModel.KINDS)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AllocatorCostModel(5).report("magic")

    def test_bad_radix(self):
        with pytest.raises(ValueError):
            AllocatorCostModel(1)


class TestNetworkConfig:
    def test_defaults_match_paper(self):
        from repro.network.config import mesh_config

        cfg = mesh_config()
        assert cfg.num_vcs == 4
        assert cfg.vc_buf_depth == 8
        assert cfg.allocator == "islip1"
        assert cfg.credit_delay == 2
        assert not cfg.chaining.enabled
        assert cfg.starvation_threshold is None

    def test_ugal_forces_two_classes(self):
        from repro.network.config import fbfly_config

        cfg = fbfly_config()
        assert cfg.num_classes == 2
        assert list(cfg.vc_class_range(0)) == [0, 1]
        assert list(cfg.vc_class_range(1)) == [2, 3]
        assert cfg.class_of_vc(3) == 1

    def test_invalid_vc_split(self):
        from repro.network.config import NetworkConfig

        with pytest.raises(ValueError):
            NetworkConfig(topology="fbfly", routing="ugal", num_vcs=3)

    def test_invalid_topology(self):
        from repro.network.config import NetworkConfig

        with pytest.raises(ValueError):
            NetworkConfig(topology="ring")

    def test_chaining_parsed_from_string(self):
        from repro.network.config import mesh_config

        cfg = mesh_config(chaining="same_input")
        assert cfg.chaining is ChainingScheme.SAME_INPUT
