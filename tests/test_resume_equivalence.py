"""Kill/resume equivalence: the checkpoint correctness bar.

A run killed at an arbitrary cycle and resumed from its last checkpoint
must be indistinguishable from an uninterrupted run: bit-identical
SimResult, bit-identical metrics export, and an identical trace-event
stream over the re-executed cycles. A sweep rerun on the root of a
killed sweep must simulate only the points it never finished.
"""

import json
import multiprocessing
import os
import signal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.checkpoint import Checkpointer, SimulationKilled, load_checkpoint
from repro.faults import InvariantChecker
from repro.network import flit as flitmod
from repro.network.config import mesh_config
from repro.obs import NetworkSampler
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry
from repro.obs.trace import MemorySink, TraceBus
from repro.serve import JobStore, fold_events, job_records
from repro.serve.cache import ResultCache
from repro.sim import runner
from repro.sim.parallel import parallel_sweep
from repro.sim.runner import KillAt, Probe, run_simulation

from tests.test_telemetry import FakeRun, drive


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
        run_simulation(config, probes=[Checkpointer(ck, 100), KillAt(kill_at)],
                       **RUN)
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
        run_simulation(config, probes=[Checkpointer(ck, 100), KillAt(120)],
                       **RUN)
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
        run_simulation(config, probes=[Checkpointer(ck, 100), KillAt(250)],
                       **RUN)
    flitmod.set_next_packet_id(0)
    with pytest.raises(SimulationKilled):
        run_simulation(config, probes=[Checkpointer(ck, 100), KillAt(600)],
                       resume_from=ck, **RUN)
    flitmod.set_next_packet_id(0)
    result = run_simulation(config, resume_from=ck, **RUN)
    assert json.dumps(result.to_dict(), sort_keys=True) == \
        json.dumps(ref_result.to_dict(), sort_keys=True)


#: The resumed-run observer checks: kill at 450 with a checkpoint
#: there, then resume.
OBSERVED = dict(pattern="uniform", rate=0.3, warmup=200, measure=600,
                drain=0)


def _killed_at_450(tmp_path):
    config = mesh_config(mesh_k=4, seed=3, chaining="any_input")
    ck = str(tmp_path / "ck.json.gz")
    flitmod.set_next_packet_id(0)
    with pytest.raises(SimulationKilled):
        run_simulation(config, probes=[Checkpointer(ck, 150), KillAt(450)],
                       **OBSERVED)
    assert load_checkpoint(ck)["cycle"] == 450
    return config, ck


def test_resumed_run_checks_invariants_on_the_restored_state(tmp_path):
    """Strict invariant checks on a resumed run find no credit leak:
    the checker binds the credit lists the restore put in place, not
    the ones it replaced."""
    config, ck = _killed_at_450(tmp_path)
    checker = InvariantChecker(mode="strict")
    result = run_simulation(config, invariants=checker, resume_from=ck,
                            **OBSERVED)
    assert result.faults["invariants"]["violations"] == 0
    assert checker.checks_run > 0


def test_resumed_run_samples_deltas_since_the_restore(tmp_path):
    """A sampler on a resumed run starts at the restore cycle: summed
    over its samples, the ``port_flits`` deltas equal the routers'
    ``port_flits`` growth since the restore, not since cycle 0."""
    config, ck = _killed_at_450(tmp_path)

    class AtStart(Probe):
        def start(self, run):
            self.port_flits = [list(r.port_flits)
                               for r in run.network.routers]

    at_start = AtStart()
    sampler = NetworkSampler(period=1)
    run_simulation(config, resume_from=ck, probes=[at_start, sampler],
                   **OBSERVED)
    assert sampler.samples[0]["cycle"] == 450
    assert sampler.samples[-1]["cycle"] == 799  # the last cycle stepped
    routers = sampler.network.routers
    growth = [[now - then for now, then in zip(r.port_flits, before)]
              for r, before in zip(routers, at_start.port_flits)]
    summed = [[sum(s["port_flits"][i][p] for s in sampler.samples)
               for p in range(r.radix)] for i, r in enumerate(routers)]
    assert summed == growth
    assert any(any(row) for row in growth)  # not vacuous


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
FORK = multiprocessing.get_context("fork")


def _sweep_results(results):
    return json.dumps([(r, res.to_dict()) for r, res in results])


def test_sweep_resume_reruns_only_missing_points(tmp_path, monkeypatch):
    """A SIGKILLed sweep, rerun on its root, simulates only what is left.

    The sweep process dies while its third point runs. The rerun serves
    the two finished points from the cache (``cached`` in
    ``jobs.jsonl``), simulates the other two once each, and returns
    exactly what an uninterrupted sweep returns.
    """
    config = mesh_config(mesh_k=4, seed=3)
    full = parallel_sweep(config, RATES, workers=1,
                          journal_dir=str(tmp_path / "full"), **SWEEP_RUN)
    assert full.complete and len(full) == len(RATES)

    sweep_dir = str(tmp_path / "sweep")
    ran = str(tmp_path / "ran")
    armed = str(tmp_path / "armed")
    real = runner.run_simulation

    def patched(cfg, **kwargs):
        if kwargs["rate"] == RATES[2] and os.path.exists(armed):
            os.unlink(armed)
            os.kill(os.getppid(), signal.SIGKILL)  # the sweep process
            os.kill(os.getpid(), signal.SIGKILL)
        with open(ran, "a") as fh:
            fh.write(f"{kwargs['rate']!r}\n")
        return real(cfg, **kwargs)

    monkeypatch.setattr(runner, "run_simulation", patched)
    open(armed, "w").close()
    sweeper = FORK.Process(target=parallel_sweep, args=(config, RATES),
                           kwargs=dict(workers=1, journal_dir=sweep_dir,
                                       mp_context=FORK, **SWEEP_RUN))
    sweeper.start()
    sweeper.join(120)
    assert sweeper.exitcode == -signal.SIGKILL

    def simulated():
        with open(ran) as fh:
            return sorted(float(line) for line in fh)

    assert simulated() == RATES[:2]
    os.unlink(ran)
    resumed = parallel_sweep(config, RATES, workers=1, journal_dir=sweep_dir,
                             mp_context=FORK, **SWEEP_RUN)
    assert simulated() == RATES[2:]  # only the missing points ran
    assert _sweep_results(resumed) == _sweep_results(full)
    assert [t.attempts for t in resumed.timings[:2]] == [0, 0]
    hits = {rec.rate for rec in job_records(sweep_dir).values() if rec.cached}
    assert set(RATES[:2]) <= hits


def test_sweep_on_a_used_root_returns_only_its_own_points(tmp_path):
    sweep_dir = str(tmp_path / "sweep")
    config = mesh_config(mesh_k=4, seed=3)
    parallel_sweep(config, RATES[:2], workers=1, journal_dir=sweep_dir,
                   **SWEEP_RUN)
    # A sweep over other rates must not inherit the first sweep's jobs.
    second = parallel_sweep(config, RATES[2:], workers=1,
                            journal_dir=sweep_dir, **SWEEP_RUN)
    assert [rate for rate, _ in second] == RATES[2:]
    assert [t.rate for t in second.timings] == RATES[2:]
    assert [t.attempts for t in second.timings] == [1, 1]
    records = job_records(sweep_dir).values()
    assert sorted(rec.rate for rec in records) == RATES
    assert all(rec.state == "done" for rec in records)


def test_journal_discards_torn_tail(tmp_path):
    """A sweep killed mid-append leaves a torn ``jobs.jsonl`` tail."""
    sweep_dir = str(tmp_path / "sweep")
    config = mesh_config(mesh_k=4, seed=3)
    first = parallel_sweep(config, RATES[:2], workers=1,
                           journal_dir=sweep_dir, **SWEEP_RUN)
    before = job_records(sweep_dir)
    with open(os.path.join(sweep_dir, "jobs.jsonl"), "a") as fh:
        fh.write('{"ev": "submitted", "job": "jtorn", "spec"')
    assert job_records(sweep_dir) == before
    rerun = parallel_sweep(config, RATES[:2], workers=1,
                           journal_dir=sweep_dir, **SWEEP_RUN)
    assert _sweep_results(rerun) == _sweep_results(first)
    assert [t.attempts for t in rerun.timings] == [0, 0]
    records = job_records(sweep_dir)
    assert "jtorn" not in records
    assert [rec.state for rec in records.values()] == ["done"] * 4


JOB_IDS = st.sampled_from(["ja", "jb", "jc"])
SECONDS = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
JOB_EVENT = st.one_of(
    st.builds(lambda job, rate, t: ("submitted", job, {
        "spec": {"label": "p", "rate": rate}, "hash": "h" + job,
        "priority": 0, "t": t}), JOB_IDS, st.floats(0, 1), SECONDS),
    st.builds(lambda job, attempt, t: ("leased", job, {
        "attempt": attempt, "t": t}), JOB_IDS, st.integers(1, 5), SECONDS),
    st.builds(lambda job, pid: ("running", job, {"worker": pid}),
              JOB_IDS, st.integers(1, 1 << 22)),
    st.builds(lambda job, delay, t: ("retry", job, {
        "error": "boom", "delay": delay, "not_before": t}),
        JOB_IDS, SECONDS, SECONDS),
    st.builds(lambda job: ("requeued", job, {}), JOB_IDS),
    st.builds(lambda job, cached, wall: ("done", job, {
        "cached": cached, "artifact": "cache/objects/h" + job,
        "wall_time": wall}), JOB_IDS, st.booleans(), SECONDS),
    st.builds(lambda job, attempts: ("dead", job, {
        "error": "gone", "attempts": attempts}),
        JOB_IDS, st.integers(0, 5)),
)


def tear(path, data):
    """Kill the log's writer mid-append: cut ``path`` at a drawn byte,
    anywhere or right on a record's newline (whole JSON, but never
    acknowledged). Returns how many records stay acknowledged: those
    whose newline precedes the cut."""
    with open(path, "rb") as fh:
        raw = fh.read()
    anywhere = st.integers(0, len(raw))
    on_newline = [i for i, byte in enumerate(raw) if byte == ord("\n")]
    if on_newline:
        anywhere = anywhere | st.sampled_from(on_newline)
    cut = data.draw(anywhere, label="cut")
    with open(path, "r+b") as fh:
        fh.truncate(cut)
    return raw[:cut].count(b"\n")


#: One or two crashes per example: crash, recover, append, (crash
#: again, recover, append).
TEARS = st.integers(1, 2)


@given(first=st.lists(JOB_EVENT, max_size=20),
       more=st.lists(JOB_EVENT, min_size=1, max_size=20), data=st.data())
def test_job_log_torn_anywhere_folds_the_acknowledged_events(first, more,
                                                             data):
    """A sweep's ``jobs.jsonl`` torn at any byte, then appended to, once
    or twice.

    A tear is a writer killed mid-append: the events whose newline
    made it to disk were acknowledged, the torn one was not. Recovery
    must fold exactly the acknowledged events. At least one event is
    appended after each tear, which cuts the torn bytes off; those
    events are acknowledged too.
    """
    import tempfile

    batches = [more]
    if data.draw(TEARS, label="tears") == 2:
        batches.append(data.draw(st.lists(JOB_EVENT, min_size=1,
                                          max_size=20), label="more2"))
    with tempfile.TemporaryDirectory() as root:
        store = JobStore(root)
        open(store.path, "ab").close()
        acked = [store.append(ev, job, **fields) for ev, job, fields in first]
        for batch in batches:
            acked = acked[:tear(store.path, data)]
            assert store.recover() == fold_events(acked)
            acked += [store.append(ev, job, **fields)
                      for ev, job, fields in batch]
        assert store.recover() == fold_events(acked)


INDEX_ENTRY = st.tuples(
    st.text("0123456789abcdef", min_size=64, max_size=64),
    st.one_of(st.none(), JOB_IDS),
    st.one_of(st.none(), SECONDS),
)


@given(entries=st.lists(INDEX_ENTRY, min_size=2, max_size=20,
                        unique_by=lambda entry: entry[0]),
       data=st.data())
def test_cache_index_torn_anywhere_keeps_the_acknowledged_entries(entries,
                                                                 data):
    """``cache/index.jsonl`` torn at any byte, then appended to, once or
    twice.

    Every entry names a published object. The entries whose newline
    made it to disk were acknowledged; at least one ``record`` follows
    each tear. The index must read back exactly the acknowledged
    entries right after each tear and after the appends, and
    ``reconcile`` must re-index each object whose line a tear took, so
    every published object ends up indexed exactly once.
    """
    import tempfile

    def build(staging):
        with open(os.path.join(staging, "summary.json"), "w") as fh:
            json.dump({}, fh)

    tears = data.draw(st.integers(1, min(2, len(entries) - 1)),
                      label="tears")
    splits = sorted(data.draw(
        st.lists(st.integers(1, len(entries) - 1), min_size=tears,
                 max_size=tears, unique=True), label="splits"))
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        for spec_hash, _job, _t in entries:
            cache.publish(spec_hash, build)
        for spec_hash, job, t in entries[:splits[0]]:
            cache.record(spec_hash, job_id=job, t=t)
        acked = cache.read_index()
        # The lines the appends after the tears must add, from an
        # untorn log.
        later = ResultCache(os.path.join(root, "later"))
        for spec_hash, job, t in entries[splits[0]:]:
            later.record(spec_hash, job_id=job, t=t)
        later_lines = later.read_index()
        bounds = splits + [len(entries)]
        for a, b in zip(bounds, bounds[1:]):
            acked = acked[:tear(cache.index_path, data)]
            assert cache.read_index() == acked
            for spec_hash, job, t in entries[a:b]:
                cache.record(spec_hash, job_id=job, t=t)
            acked += later_lines[a - splits[0]:b - splits[0]]
            assert cache.read_index() == acked
        cache.reconcile()
        hashes = [entry["hash"] for entry in cache.read_index()]
        assert sorted(hashes) == sorted(h for h, _job, _t in entries)


class _Clock:
    """Deterministic monotonic clock: each read is 1 ms later."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


class _Recording(RunTelemetry):
    """RunTelemetry that remembers every record it appended."""

    def __init__(self, emitted, **kwargs):
        super().__init__(**kwargs)
        self.emitted = emitted

    def _emit(self, record):
        super()._emit(record)
        self.emitted.append(record)


#: A run's heartbeat stream: (heartbeat period, cycles, how it ended).
TELEMETRY_RUN = st.tuples(st.integers(1, 4), st.integers(0, 12),
                          st.sampled_from(["done", "killed", "failed"]))


@given(runs=st.lists(TELEMETRY_RUN, min_size=2, max_size=3),
       data=st.data())
def test_run_heartbeats_torn_anywhere_keep_the_acknowledged_records(runs,
                                                                    data):
    """A ``repro run --heartbeat`` JSONL stream torn at any byte, then
    appended to by the next run on the same path, once or twice.

    Each run appends a start record, a heartbeat every ``every``
    cycles and a finish record. The records whose newline made it to
    disk were acknowledged; ``read_jsonl`` must return exactly those
    after each tear and, after the next run appends, those plus every
    record the next run wrote.
    """
    import tempfile

    from repro.obs.trace import read_jsonl

    def run(path, every, cycles, status, start, acked):
        tele = _Recording(acked, path=path, every=every, rate=0.25,
                          clock=_Clock(), walltime=_Clock())
        sim = FakeRun(total_cycles=start + cycles, start_cycle=start,
                      phase="main")
        tele.start(sim)
        drive(tele, sim, start + cycles)
        tele.finish(sim, status, None)
        return start + cycles

    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "run.hb.jsonl")
        acked = []
        cycle = run(path, *runs[0], 0, acked)
        for every, cycles, status in runs[1:]:
            del acked[tear(path, data):]
            assert read_jsonl(path) == acked
            cycle = run(path, every, cycles, status, cycle, acked)
            assert read_jsonl(path) == acked
