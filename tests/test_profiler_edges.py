"""Edge-case tests for PhaseProfiler: zero-cycle runs, partial epochs,
detach/re-attach, serialization stability, and allocator attribution."""

import json

import pytest

from repro.network.config import mesh_config
from repro.obs.profiler import PHASES, PhaseProfiler
from repro.sim.runner import run_simulation

RUN = dict(rate=0.2, warmup=60, measure=120, drain=0, seed=2)


class TestZeroCycles:
    def test_untouched_profiler_is_empty_and_serializable(self):
        prof = PhaseProfiler(epoch_cycles=10)
        assert prof.cycles == 0
        assert prof.epochs == []
        assert prof.cycles_per_sec() == 0.0
        assert prof.phase_totals() == {name: 0.0 for name in PHASES}
        assert prof.component_totals() == {}
        data = prof.to_dict()
        assert data["total_cycles"] == 0
        assert data["epochs"] == []

    def test_finish_without_cycles_is_safe(self):
        prof = PhaseProfiler(epoch_cycles=10)
        prof.finish()
        prof.finish()
        assert prof.epochs == []

    def test_zero_cycle_simulation(self):
        prof = PhaseProfiler(epoch_cycles=10)
        run_simulation(mesh_config(mesh_k=4), rate=0.1, warmup=0,
                       measure=0, drain=0, profiler=prof)
        assert prof.cycles == 0
        assert prof.epochs == []


class TestPartialEpochs:
    def test_partial_final_epoch_closed_by_finish(self):
        prof = PhaseProfiler(epoch_cycles=100)
        run_simulation(mesh_config(mesh_k=4), profiler=prof, **RUN)
        # 180 cycles with 100-cycle epochs: one full + one partial.
        assert prof.cycles == 180
        assert [e["cycles"] for e in prof.epochs] == [100, 80]
        assert prof.epochs[1]["start_cycle"] == 100
        assert all(e["seconds"] > 0 for e in prof.epochs)

    def test_finish_twice_does_not_duplicate_epoch(self):
        prof = PhaseProfiler(epoch_cycles=100)
        run_simulation(mesh_config(mesh_k=4), profiler=prof, **RUN)
        epochs = len(prof.epochs)
        prof.finish()
        assert len(prof.epochs) == epochs

    def test_exact_epoch_boundary_leaves_no_partial(self):
        prof = PhaseProfiler(epoch_cycles=90)
        run_simulation(mesh_config(mesh_k=4), profiler=prof, **RUN)
        assert [e["cycles"] for e in prof.epochs] == [90, 90]


class TestSerializationStability:
    def test_to_dict_is_stable_and_json_safe(self):
        prof = PhaseProfiler(epoch_cycles=50)
        run_simulation(mesh_config(mesh_k=4), profiler=prof, **RUN)
        first = prof.to_dict()
        second = prof.to_dict()
        assert first == second  # reporting must not mutate state
        assert json.loads(json.dumps(first)) == first
        assert set(first["phase_seconds"]) == set(PHASES)

    def test_save_round_trip(self, tmp_path):
        prof = PhaseProfiler(epoch_cycles=50)
        run_simulation(mesh_config(mesh_k=4), profiler=prof, **RUN)
        path = tmp_path / "profile.json"
        prof.save(str(path))
        data = json.loads(path.read_text())
        assert data == prof.to_dict()

    def test_components_survive_save(self, tmp_path):
        prof = PhaseProfiler(epoch_cycles=50)
        run_simulation(mesh_config(mesh_k=4), profiler=prof, **RUN)
        assert "sa;alloc:islip1" in prof.component_totals()
        path = tmp_path / "profile.json"
        prof.save(str(path))
        data = json.loads(path.read_text())
        assert data["components"] == prof.component_totals()


class TestHotspots:
    def test_live_run_attributes_allocator_time(self):
        prof = PhaseProfiler(epoch_cycles=50)
        run_simulation(mesh_config(mesh_k=4), profiler=prof, **RUN)
        components = prof.component_totals()
        assert "sa;alloc:islip1" in components
        assert components["sa;alloc:islip1"] > 0.0
        # Component time is bounded by its phase's total.
        assert components["sa;alloc:islip1"] <= \
            prof.phase_totals()["sa"] + 1e-9


@pytest.mark.parametrize("chaining", ["any_input", "same_input"])
def test_profiled_run_simulates_what_an_unprofiled_one_does(chaining):
    """The profiler times the step that runs unprofiled, not a twin."""
    config = mesh_config(mesh_k=4, chaining=chaining)
    plain = run_simulation(config, **RUN).to_dict()
    profiled = run_simulation(config, profiler=PhaseProfiler(),
                              **RUN).to_dict()
    assert profiled.pop("timing")["phase_seconds"]["pc"] > 0
    plain.pop("timing")
    assert profiled == plain
