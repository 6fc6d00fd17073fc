"""Kill/resume equivalence: the checkpoint correctness bar.

A run killed at an arbitrary cycle and resumed from its last checkpoint
must be indistinguishable from an uninterrupted run: bit-identical
SimResult, bit-identical metrics export, and an identical trace-event
stream over the re-executed cycles. Crash-tolerant sweeps must re-run
only the points a killed sweep never finished.
"""

import json
import os

import pytest

from repro.checkpoint import SimulationKilled, load_checkpoint
from repro.network import flit as flitmod
from repro.network.config import mesh_config
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import MemorySink, TraceBus
from repro.sim import parallel as parallel_mod
from repro.sim.parallel import SweepJournal, parallel_sweep
from repro.sim.runner import run_simulation


RUN = dict(pattern="uniform", rate=0.3, warmup=200, measure=400, drain=300)

#: seed, kill cycle — arbitrary points in warmup, measurement and early
#: drain (the drain usually goes quiescent well before its 300 budget,
#: so the drain-phase kill sits right after injection stops at 600).
CHAOS = [(3, 150), (5, 420), (9, 605)]

CONFIGS = {
    "islip1": dict(allocator="islip1"),
    "wavefront+any_input": dict(allocator="wavefront", chaining="any_input"),
}


def _traced_run(config, **kw):
    """(SimResult, metrics dict, trace events) for one run."""
    flitmod.set_next_packet_id(0)
    bus = TraceBus()
    sink = bus.attach(MemorySink())
    registry = MetricsRegistry()
    result = run_simulation(config, trace=bus, metrics=registry, **kw)
    return result, registry.to_dict(), sink.events


@pytest.mark.parametrize("label", list(CONFIGS))
@pytest.mark.parametrize("seed,kill_at", CHAOS)
def test_killed_and_resumed_run_matches_uninterrupted(
    tmp_path, label, seed, kill_at
):
    config = mesh_config(mesh_k=4, seed=seed, **CONFIGS[label])
    ref_result, ref_metrics, ref_events = _traced_run(config, **RUN)

    ck = str(tmp_path / "ck.json.gz")
    flitmod.set_next_packet_id(0)
    with pytest.raises(SimulationKilled):
        run_simulation(config, checkpoint_path=ck, checkpoint_every=100,
                       kill_at=kill_at, **RUN)
    ck_cycle = load_checkpoint(ck)["cycle"]
    assert 0 < ck_cycle <= kill_at

    flitmod.set_next_packet_id(0)
    bus = TraceBus()
    sink = bus.attach(MemorySink())
    registry = MetricsRegistry()
    res_result = run_simulation(config, trace=bus, metrics=registry,
                                resume_from=ck, **RUN)

    assert json.dumps(res_result.to_dict(), sort_keys=True) == \
        json.dumps(ref_result.to_dict(), sort_keys=True)
    assert json.dumps(registry.to_dict(), sort_keys=True) == \
        json.dumps(ref_metrics, sort_keys=True)
    # The resumed run re-executes exactly the cycles from the checkpoint
    # on; its whole event stream must equal that suffix of the
    # uninterrupted run's.
    suffix = [e for e in ref_events if e["cycle"] >= ck_cycle]
    assert sink.events == suffix
    assert sink.events  # the comparison is not vacuous


def test_mid_warmup_restore_keeps_same_seed_runs_identical(tmp_path):
    """Two same-seed runs stay trace-identical even when one of them is
    checkpointed and restored mid-warmup (RNG state survives the trip)."""
    config = mesh_config(mesh_k=4, seed=11)
    _, _, ref_events = _traced_run(config, **RUN)

    ck = str(tmp_path / "warm.json")
    flitmod.set_next_packet_id(0)
    with pytest.raises(SimulationKilled):
        # Kill inside the warmup (warmup=200), checkpoint right at 100.
        run_simulation(config, checkpoint_path=ck, checkpoint_every=100,
                       kill_at=120, **RUN)
    assert load_checkpoint(ck)["cycle"] == 100

    flitmod.set_next_packet_id(0)
    bus = TraceBus()
    sink = bus.attach(MemorySink())
    run_simulation(config, trace=bus, resume_from=ck, **RUN)
    assert sink.events == [e for e in ref_events if e["cycle"] >= 100]


def test_resumed_checkpoint_of_checkpoint_still_matches(tmp_path):
    """Kill → resume → kill → resume converges on the same answer."""
    config = mesh_config(mesh_k=4, seed=7, chaining="same_input")
    ref_result, _, _ = _traced_run(config, **RUN)

    ck = str(tmp_path / "ck.json")
    flitmod.set_next_packet_id(0)
    with pytest.raises(SimulationKilled):
        run_simulation(config, checkpoint_path=ck, checkpoint_every=100,
                       kill_at=250, **RUN)
    flitmod.set_next_packet_id(0)
    with pytest.raises(SimulationKilled):
        run_simulation(config, checkpoint_path=ck, checkpoint_every=100,
                       kill_at=600, resume_from=ck, **RUN)
    flitmod.set_next_packet_id(0)
    result = run_simulation(config, resume_from=ck, **RUN)
    assert json.dumps(result.to_dict(), sort_keys=True) == \
        json.dumps(ref_result.to_dict(), sort_keys=True)


def test_wavefront_same_seed_instances_are_deterministic():
    """Seeded wavefront allocators no longer depend on process-global
    construction order — two same-seed instances behave identically."""
    from repro.allocators import make_allocator

    a = make_allocator("wavefront", 5, 5, seed=42)
    b = make_allocator("wavefront", 5, 5, seed=42)
    requests = {(i, (i + 2) % 5): 0 for i in range(5)}
    for _ in range(16):
        assert a.allocate(requests) == b.allocate(requests)


# ---------------------------------------------------------------------------
# crash-tolerant sweeps


SWEEP_RUN = dict(warmup=100, measure=200, drain=0, pattern="uniform",
                 packet_length=1)
RATES = [0.1, 0.2, 0.3, 0.4]


def test_sweep_resume_reruns_only_missing_points(tmp_path, monkeypatch):
    sweep_dir = str(tmp_path / "sweep")
    config = mesh_config(mesh_k=4, seed=3)
    full = parallel_sweep(config, RATES, workers=0, journal_dir=sweep_dir,
                          **SWEEP_RUN)
    assert full.complete and len(full) == len(RATES)

    # Simulate a sweep killed after two points: keep only the journal's
    # first two lines.
    journal_path = os.path.join(sweep_dir, SweepJournal.FILENAME)
    with open(journal_path) as fh:
        lines = fh.readlines()
    assert len(lines) == len(RATES)
    with open(journal_path, "w") as fh:
        fh.writelines(lines[:2])

    calls = []
    real_run_point = parallel_mod._run_point

    def counting_run_point(point):
        calls.append(point.rate)
        return real_run_point(point)

    monkeypatch.setattr(parallel_mod, "_run_point", counting_run_point)
    resumed = parallel_sweep(config, RATES, workers=0,
                             journal_dir=sweep_dir, resume=True, **SWEEP_RUN)
    assert calls == RATES[2:]  # only the missing points ran
    assert [rate for rate, _ in resumed] == RATES
    assert json.dumps([(r, res.to_dict()) for r, res in resumed]) == \
        json.dumps([(r, res.to_dict()) for r, res in full])


def test_sweep_without_resume_truncates_stale_journal(tmp_path):
    sweep_dir = str(tmp_path / "sweep")
    config = mesh_config(mesh_k=4, seed=3)
    parallel_sweep(config, RATES[:2], workers=0, journal_dir=sweep_dir,
                   **SWEEP_RUN)
    journal = SweepJournal(sweep_dir)
    assert len(journal.completed()) == 2
    # A fresh sweep with different rates must not inherit those entries.
    parallel_sweep(config, RATES[2:], workers=0, journal_dir=sweep_dir,
                   **SWEEP_RUN)
    done = journal.completed()
    assert len(done) == 2
    assert all(entry["rate"] in RATES[2:] for entry in done.values())


def test_journal_discards_torn_tail(tmp_path):
    journal = SweepJournal(str(tmp_path))
    import repro  # noqa: F401  (SimResult import path sanity)
    from repro.stats.summary import SimResult, LatencySummary

    result = SimResult(0.1, 0.1, 0.1, LatencySummary.of([1]),
                       LatencySummary.of([1]), LatencySummary.of([0]))
    journal.record("a|0|0.1", "a", 0.1, result)
    journal.record("a|1|0.2", "a", 0.2, result)
    with open(journal.path, "a") as fh:
        fh.write('{"key": "a|2|0.3", "label"')  # crash mid-append
    done = journal.completed()
    assert set(done) == {"a|0|0.1", "a|1|0.2"}


def test_resume_without_journal_dir_is_an_error():
    with pytest.raises(ValueError, match="journal_dir"):
        parallel_sweep(mesh_config(mesh_k=4), [0.1], workers=0, resume=True,
                       **SWEEP_RUN)
