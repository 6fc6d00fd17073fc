"""Edge-case tests for PhaseProfiler: zero-cycle runs, partial epochs,
detach/re-attach, serialization stability, and hot-spot attribution."""

import json

import pytest

from repro.network.config import mesh_config
from repro.obs.profiler import (
    PHASES,
    PhaseProfiler,
    collapsed_from_dict,
    compute_hotspots,
    format_profile_report,
    hotspots_from_dict,
    is_profile_dict,
)
from repro.sim.runner import run_simulation

RUN = dict(rate=0.2, warmup=60, measure=120, drain=0, seed=2)


class TestZeroCycles:
    def test_untouched_profiler_is_empty_and_serializable(self):
        prof = PhaseProfiler(epoch_cycles=10)
        assert prof.cycles == 0
        assert prof.epochs == []
        assert prof.cycles_per_sec() == 0.0
        assert prof.total_seconds() == 0.0
        assert prof.phase_totals() == {name: 0.0 for name in PHASES}
        assert prof.hotspots()[0][1] == 0.0
        assert prof.collapsed_stacks() == []
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
        assert is_profile_dict(data)

    def test_components_survive_save(self, tmp_path):
        prof = PhaseProfiler(epoch_cycles=50)
        run_simulation(mesh_config(mesh_k=4), profiler=prof, **RUN)
        assert "sa;alloc:islip1" in prof.component_totals()
        path = tmp_path / "profile.json"
        prof.save(str(path))
        data = json.loads(path.read_text())
        assert data["components"] == prof.component_totals()


class TestHotspots:
    def test_component_self_time_split(self):
        rows = compute_hotspots(
            total_seconds=10.0,
            phase_totals={"sa": 4.0, "stream": 2.0},
            components={"sa;alloc:islip1": 3.0},
        )
        by_stack = {stack: (secs, pct) for stack, secs, pct in rows}
        assert by_stack["router;sa;alloc:islip1"] == (3.0, 30.0)
        assert by_stack["router;sa"] == (1.0, 10.0)  # self = 4 - 3
        assert by_stack["router;stream"] == (2.0, 20.0)
        assert by_stack["other"] == (4.0, 40.0)  # outside the pipeline
        assert [r[1] for r in rows] == sorted(
            (r[1] for r in rows), reverse=True
        )

    def test_component_exceeding_phase_clamps_to_zero(self):
        rows = compute_hotspots(1.0, {"sa": 0.5}, {"sa;alloc:x": 0.6})
        by_stack = {stack: secs for stack, secs, _ in rows}
        assert by_stack["router;sa"] == 0.0

    def test_live_run_attributes_allocator_time(self):
        prof = PhaseProfiler(epoch_cycles=50)
        run_simulation(mesh_config(mesh_k=4), profiler=prof, **RUN)
        stacks = [stack for stack, _, _ in prof.hotspots()]
        assert "router;sa;alloc:islip1" in stacks
        assert "other" in stacks
        # Component time is bounded by its phase's total.
        assert prof.component_totals()["sa;alloc:islip1"] <= \
            prof.phase_totals()["sa"] + 1e-9

    def test_collapsed_stack_format(self):
        data = {
            "total_cycles": 100,
            "cycles_per_sec": 1000.0,
            "epoch_cycles": 50,
            "phase_seconds": {"sa": 4.0, "stream": 2.0},
            "components": {"sa;alloc:islip1": 3.0},
            "epochs": [{"start_cycle": 0, "cycles": 100, "seconds": 10.0,
                        "cycles_per_sec": 10.0, "phase_seconds": {}}],
        }
        lines = collapsed_from_dict(data)
        assert "sim;other 4000000" in lines
        assert "sim;router;sa;alloc:islip1 3000000" in lines
        assert "sim;router;sa 1000000" in lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack.startswith("sim;")
            assert int(count) > 0  # zero-weight stacks are dropped

    def test_hotspots_from_dict_matches_live(self):
        prof = PhaseProfiler(epoch_cycles=50)
        run_simulation(mesh_config(mesh_k=4), profiler=prof, **RUN)
        assert hotspots_from_dict(prof.to_dict()) == prof.hotspots()

    def test_format_profile_report(self):
        prof = PhaseProfiler(epoch_cycles=50)
        run_simulation(mesh_config(mesh_k=4), profiler=prof, **RUN)
        report = format_profile_report(prof.to_dict())
        assert "wall-clock hot spots" in report
        assert "cycles/sec per epoch" in report
        assert "router;sa;alloc:islip1" in report


def test_is_profile_dict_rejects_other_json():
    assert not is_profile_dict({"cases": {}})
    assert not is_profile_dict([1, 2])
    assert is_profile_dict({"epochs": [], "phase_seconds": {}})


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
