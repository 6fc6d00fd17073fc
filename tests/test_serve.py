"""Tests for the crash-tolerant experiment service (repro.serve)."""

import io
import json
import os
import time

import pytest

from repro.network.config import mesh_config
from repro.serve import (
    DEFAULT_RETRY_POLICY,
    ExperimentService,
    JobSpec,
    RetryPolicy,
    ServiceLockError,
    fold_events,
    job_records,
    load_result,
    read_events,
    scan_service,
    spec_for,
    submit_spec,
    wait_for,
)
from repro.serve.cache import ResultCache
from repro.serve.store import JobStore

#: Tiny-but-real simulation: a 2x2 mesh finishes in milliseconds.
SMALL = dict(warmup=50, measure=100, drain=50)
#: Backoff tuned so chaos tests spend microseconds, not seconds.
FAST = RetryPolicy(base=0.001, factor=2.0, cap=0.01, jitter=0.0)


def small_spec(rate=0.1, **knobs):
    return spec_for(mesh_config(mesh_k=2), rate=rate, **SMALL, **knobs)


def run_service(root, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("lease_timeout", 30.0)
    kwargs.setdefault("retry_policy", FAST)
    with ExperimentService(str(root), **kwargs) as svc:
        svc.run(once=True, max_seconds=120, install_signals=False)
        return svc.status()


class TestRetryPolicy:
    def test_deterministic_per_key_and_attempt(self):
        p = DEFAULT_RETRY_POLICY
        assert p.delay("k", 1) == p.delay("k", 1)
        assert p.schedule("k", 3) == p.schedule("k", 3)

    def test_different_keys_decorrelate(self):
        p = DEFAULT_RETRY_POLICY
        assert p.delay("a", 1) != p.delay("b", 1)

    def test_exponential_growth_and_cap(self):
        p = RetryPolicy(base=1.0, factor=2.0, cap=5.0, jitter=0.0)
        assert p.schedule("k", 4) == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_bounds(self):
        p = RetryPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.5)
        for attempt in range(1, 50):
            assert 0.5 <= p.delay("k", attempt) <= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            DEFAULT_RETRY_POLICY.delay("k", 0)


class TestJobSpec:
    def test_hash_matches_checkpoint_config_hash(self, tmp_path):
        """The cache key IS the checkpoint machinery's content address."""
        from repro.checkpoint import Checkpointer, load_checkpoint
        from repro.sim.runner import run_simulation

        cfg = mesh_config(mesh_k=2)
        spec = spec_for(cfg, rate=0.1, **SMALL)
        ck = str(tmp_path / "ck.json")
        run_simulation(cfg, rate=0.1, **SMALL,
                       probes=[Checkpointer(ck, 50)])
        assert load_checkpoint(ck)["config_hash"] == spec.spec_hash()

    def test_execution_knobs_do_not_change_hash(self):
        base = small_spec()
        tweaked = small_spec(priority=5, label="x",
                             chaos={"sigkill_attempts": 1})
        assert base.spec_hash() == tweaked.spec_hash()

    def test_every_field_that_reaches_the_result_changes_hash(self):
        from repro.faults import FaultPlan

        plan = FaultPlan.from_dict({"seed": 3, "links": [
            {"router": 0, "port": 1, "cycle": 10, "duration": None}]})
        hashes = {small_spec(**field).spec_hash() for field in (
            {}, {"faults": plan.to_dict()},
            {"transport": {"timeout": 64, "max_retries": 2}},
            {"invariants": "strict"}, {"watchdog_window": 500},
        )}
        assert len(hashes) == 5

    def test_cache_hit_keeps_to_its_own_watchdog(self, tmp_path):
        """A watched run's cache entry is not served to an unwatched
        submission: its summary holds the watchdog's."""
        root = str(tmp_path)
        watched = submit_spec(root, small_spec(watchdog_window=500))
        run_service(root)
        plain = submit_spec(root, small_spec())
        run_service(root)
        records = job_records(root)
        assert load_result(root, records[watched]).faults["watchdog"][
            "window"] == 500
        assert load_result(root, records[plain]).faults is None

    def test_example_jobspec_hash_is_pinned(self):
        """Hashes written before the spec carried faults stay valid."""
        path = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "jobspec.json")
        with open(path) as fh:
            spec = JobSpec.from_dict(json.load(fh)["spec"])
        assert spec.spec_hash() == ("37b3ac0ded679cd721be41b7a16a611f"
                                    "b0e94cf4792c7fbe0baf17c3dc6ebaf0")

    def test_experiment_fields_do_change_hash(self):
        assert small_spec(rate=0.1).spec_hash() != \
            small_spec(rate=0.2).spec_hash()

    def test_round_trip_and_strictness(self):
        spec = small_spec(label="rt")
        back = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        with pytest.raises(ValueError):
            JobSpec.from_dict({"config": {}, "bogus": 1})
        with pytest.raises(ValueError):
            JobSpec.from_dict({"rate": 0.1})

    def test_spec_for_accepts_distribution_object(self):
        from repro.traffic import BimodalLength

        spec = spec_for(mesh_config(mesh_k=2), lengths=BimodalLength(1, 5))
        assert spec.lengths["kind"] == "bimodal"


class TestJobStore:
    def test_lifecycle_fold(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.append("submitted", "j1", spec={"label": "a", "rate": 0.1},
                     hash="h1", priority=2, t=1.0)
        store.append("leased", "j1", attempt=1, t=2.0)
        store.append("running", "j1", worker=42, t=2.1)
        store.append("retry", "j1", error="boom", delay=0.5,
                     not_before=3.0, t=2.5)
        store.append("leased", "j1", attempt=2, t=3.5)
        store.append("running", "j1", worker=43, t=3.6)
        store.append("done", "j1", cached=False, artifact="cache/objects/h1",
                     wall_time=0.2, worker=43, t=4.0)
        rec = JobStore(str(tmp_path)).recover()["j1"]
        assert rec.state == "done"
        assert rec.terminal
        assert rec.attempts == 2
        assert rec.retry_delays == [0.5]
        assert rec.cached is False
        assert rec.hash == "h1"
        assert rec.priority == 2

    def test_dead_letter_diagnostic(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.append("submitted", "j1", spec={"label": "bad", "rate": 0.3},
                     hash="h", t=1.0)
        store.append("leased", "j1", attempt=1, t=2.0)
        store.append("dead", "j1", error="it broke", attempts=4, t=3.0)
        rec = store.recover()["j1"]
        assert rec.state == "dead"
        assert rec.diagnostic() == {
            "label": "bad", "rate": 0.3, "error": "it broke", "attempts": 4,
        }

    def test_torn_tail_is_discarded(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.append("submitted", "j1", spec={}, hash="h", t=1.0)
        store.append("leased", "j1", attempt=1, t=2.0)
        with open(store.path, "a") as fh:
            fh.write('{"ev": "done", "job": "j1", "cach')  # SIGKILL here
        rec = JobStore(str(tmp_path)).recover()["j1"]
        assert rec.state == "leased"  # the torn 'done' never happened

    def test_append_after_torn_tail_is_kept(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.append("submitted", "j1", spec={}, hash="h", t=1.0)
        with open(store.path, "a") as fh:
            fh.write('{"ev": "leased", "job": "j1", "att')  # SIGKILL here
        JobStore(str(tmp_path)).append("done", "j1", cached=True, t=2.0)
        rec = JobStore(str(tmp_path)).recover()["j1"]
        assert rec.state == "done"

    def test_requeued_returns_to_submitted(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.append("submitted", "j1", spec={}, hash="h", t=1.0)
        store.append("leased", "j1", attempt=1, t=2.0)
        store.append("running", "j1", worker=9, t=2.1)
        store.append("requeued", "j1", t=3.0)
        rec = store.recover()["j1"]
        assert rec.state == "submitted"
        assert rec.worker is None
        assert rec.attempts == 1  # history preserved: next lease is #2

    def test_unknown_events_are_skipped(self):
        jobs = fold_events([
            {"ev": "submitted", "job": "j1", "spec": {}, "hash": "h"},
            {"ev": "from_the_future", "job": "j1", "shiny": True},
        ])
        assert jobs["j1"].state == "submitted"


class TestResultCache:
    def test_publish_then_lookup(self, tmp_path):
        cache = ResultCache(str(tmp_path))

        def build(staging):
            with open(os.path.join(staging, "summary.json"), "w") as fh:
                json.dump({"ok": 1}, fh)

        path, fresh = cache.publish("h" * 64, build)
        assert fresh
        assert cache.lookup("h" * 64) == path

    def test_duplicate_publish_is_a_noop(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        calls = []

        def build(staging):
            calls.append(staging)
            with open(os.path.join(staging, "summary.json"), "w") as fh:
                json.dump({}, fh)

        cache.publish("h" * 64, build)
        _, fresh = cache.publish("h" * 64, build)
        assert not fresh
        assert len(calls) == 1  # second publish never even built

    def test_crashed_build_leaves_no_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path))

        def build(staging):
            with open(os.path.join(staging, "summary.json"), "w") as fh:
                fh.write("{")  # partial write...
            raise RuntimeError("crash mid-build")

        with pytest.raises(RuntimeError):
            cache.publish("h" * 64, build)
        assert cache.lookup("h" * 64) is None
        cache.reconcile()
        assert os.listdir(cache.tmp) == []  # staging debris swept

    def test_reconcile_indexes_orphaned_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))

        def build(staging):
            with open(os.path.join(staging, "summary.json"), "w") as fh:
                json.dump({}, fh)

        # Publish without recording: the crash window between the
        # rename and the index append.
        cache.publish("a" * 64, build)
        assert cache.indexed_hashes() == set()
        assert cache.reconcile() == {"a" * 64}
        assert cache.indexed_hashes() == {"a" * 64}

    def test_torn_index_tail_tolerated(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.record("a" * 64, job_id="j1")
        with open(cache.index_path, "a") as fh:
            fh.write('{"hash": "bb')
        assert ResultCache(str(tmp_path)).indexed_hashes() == {"a" * 64}


class TestServiceEndToEnd:
    def test_identical_specs_share_one_simulation(self, tmp_path):
        spec = small_spec(label="twin")
        j1 = submit_spec(str(tmp_path), spec)
        j2 = submit_spec(str(tmp_path), spec)
        j3 = submit_spec(str(tmp_path), small_spec(rate=0.2))
        status = run_service(tmp_path)
        assert status["jobs"] == {"done": 3}
        recs = job_records(str(tmp_path))
        assert {recs[j1].cached, recs[j2].cached} == {True, False}
        assert recs[j3].cached is False
        # The journal proves it: exactly one non-cached completion per
        # hash, and the cache index has exactly one line per hash.
        events = read_events(os.path.join(str(tmp_path), "jobs.jsonl"))
        fresh = [e for e in events if e["ev"] == "done" and not e["cached"]]
        assert len(fresh) == 2  # one per distinct spec
        index = ResultCache(str(tmp_path)).read_index()
        assert len(index) == len({e["hash"] for e in index}) == 2

    def test_single_flight_never_double_leases_a_hash(self, tmp_path):
        spec = small_spec(label="sf")
        submit_spec(str(tmp_path), spec)
        submit_spec(str(tmp_path), spec)
        run_service(tmp_path, workers=4)
        events = read_events(os.path.join(str(tmp_path), "jobs.jsonl"))
        assert sum(1 for e in events if e["ev"] == "leased") == 1

    def test_results_bit_identical_to_direct_run(self, tmp_path):
        from repro.checkpoint import canonical_sha256
        from repro.sim.runner import run_simulation

        spec = small_spec(rate=0.15)
        jid = submit_spec(str(tmp_path), spec)
        run_service(tmp_path)
        served = load_result(str(tmp_path), job_records(str(tmp_path))[jid])
        direct = run_simulation(mesh_config(mesh_k=2), rate=0.15, **SMALL)
        assert canonical_sha256(served.to_dict()) == \
            canonical_sha256(direct.to_dict())

    def test_metrics_registry_counts(self, tmp_path):
        spec = small_spec()
        submit_spec(str(tmp_path), spec)
        submit_spec(str(tmp_path), spec)
        with ExperimentService(str(tmp_path), workers=2,
                               retry_policy=FAST) as svc:
            svc.run(once=True, max_seconds=120, install_signals=False)
            metrics = svc.metrics.to_dict()["counters"]
        assert metrics["serve_jobs_submitted_total"] == 2
        assert metrics["serve_jobs_done_total"] == 2
        assert metrics["serve_cache_hits_total"] == 1
        assert metrics["serve_cache_misses_total"] == 1


class TestRetryAndDeadLetter:
    def test_sigkilled_worker_retries_with_backoff(self, tmp_path):
        jid = submit_spec(str(tmp_path),
                          small_spec(chaos={"sigkill_attempts": 1}))
        status = run_service(tmp_path, workers=1)
        rec = job_records(str(tmp_path))[jid]
        assert rec.state == "done"
        assert rec.attempts == 2
        assert rec.retry_delays == [FAST.delay(rec.hash, 1)]
        assert status["retries"] == 1

    def test_always_dying_job_dead_letters(self, tmp_path):
        jid = submit_spec(
            str(tmp_path),
            small_spec(label="doomed", chaos={"sigkill_attempts": 99}),
        )
        ok = submit_spec(str(tmp_path), small_spec(rate=0.2))
        run_service(tmp_path, workers=1, max_retries=2)
        recs = job_records(str(tmp_path))
        assert recs[jid].state == "dead"
        assert recs[jid].attempts == 3  # 1 + max_retries
        diag = recs[jid].diagnostic()
        assert diag["label"] == "doomed"
        assert "died" in diag["error"]
        assert recs[ok].state == "done"  # one bad job never blocks others

    def test_soft_failure_retries(self, tmp_path):
        # SimulationKilled at cycle 60 on attempt 1 only: the classic
        # transient failure.
        jid = submit_spec(
            str(tmp_path),
            small_spec(chaos={"kill_at": 60, "kill_attempts": 1}),
        )
        run_service(tmp_path, workers=1)
        rec = job_records(str(tmp_path))[jid]
        assert rec.state == "done"
        assert rec.attempts == 2

    def test_unhashable_spec_dead_letters_immediately(self, tmp_path):
        # A config that NetworkConfig.from_dict rejects can never
        # produce a content hash: no retry can fix it.
        bad = small_spec()
        bad.config["no_such_field"] = 1
        jid = submit_spec(str(tmp_path), bad)
        run_service(tmp_path)
        rec = job_records(str(tmp_path))[jid]
        assert rec.state == "dead"
        assert rec.attempts == 0
        assert "invalid spec" in rec.error

    def test_bad_allocator_dead_letters_after_retries(self, tmp_path):
        # Valid keys, bad value: only build_network can reject it, so
        # the failure surfaces from the worker and exhausts retries.
        bad = small_spec()
        bad.config["allocator"] = "no-such-allocator"
        jid = submit_spec(str(tmp_path), bad)
        run_service(tmp_path, workers=1, max_retries=1)
        rec = job_records(str(tmp_path))[jid]
        assert rec.state == "dead"
        assert rec.attempts == 2
        assert "no-such-allocator" in rec.error

    def test_unparseable_spool_file_dead_letters(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "jjunk.json").write_text("{not json")
        run_service(tmp_path)
        rec = job_records(str(tmp_path))["jjunk"]
        assert rec.state == "dead"
        assert "bad submission" in rec.error
        assert not (spool / "jjunk.json").exists()


class TestLeaseExpiry:
    def test_wedged_worker_is_killed_and_job_retried(self, tmp_path):
        from repro.proc import alive_pid

        jid = submit_spec(
            str(tmp_path),
            small_spec(chaos={"sleep": 600, "sleep_attempts": 1}),
        )
        pids = []
        with ExperimentService(str(tmp_path), workers=1, lease_timeout=0.5,
                               retry_policy=FAST) as svc:
            deadline = 120
            import time as _time

            start = _time.monotonic()
            while not svc.finished():
                svc.tick()
                for h in svc._handles.values():
                    if h.pid not in pids:
                        pids.append(h.pid)
                assert _time.monotonic() - start < deadline
                _time.sleep(0.02)
            metrics = svc.metrics.to_dict()["counters"]
        rec = job_records(str(tmp_path))[jid]
        assert rec.state == "done"
        assert rec.attempts == 2
        assert len(rec.retry_delays) == 1
        assert "lease expired" in rec.error  # the retry's cause survives
        assert metrics["serve_leases_expired_total"] == 1
        # The wedged attempt's worker must be confirmed dead.
        assert len(pids) == 2
        assert not alive_pid(pids[0])


class TestSlowJob:
    def test_slow_healthy_job_completes(self, tmp_path, monkeypatch):
        """A job far slower than the lease per thousand cycles keeps its
        lease: the worker beats on wall time from the simulation loop,
        not every N simulated cycles. 600 cycles at 5 ms each run ~3 s
        against a 1 s lease."""
        from repro.network.network import Network

        real_step = Network.step

        def slow_step(self):
            time.sleep(0.005)
            return real_step(self)

        # Forked workers inherit the patch.
        monkeypatch.setattr(Network, "step", slow_step)
        spec = spec_for(mesh_config(mesh_k=4), rate=0.3, warmup=200,
                        measure=400, drain=0)
        jid = submit_spec(str(tmp_path), spec)
        run_service(tmp_path, workers=1, lease_timeout=1.0, max_retries=0)
        rec = job_records(str(tmp_path))[jid]
        assert (rec.state, rec.error) == ("done", None)
        assert rec.attempts == 1


class TestRecovery:
    def test_orphaned_leases_are_requeued_and_finish(self, tmp_path):
        # Forge the debris of a SIGKILLed server: a journal whose last
        # word on the job is 'running'.
        spec = small_spec(label="orphan")
        store = JobStore(str(tmp_path))
        store.append("submitted", "jdead1", spec=spec.to_dict(),
                     hash=spec.spec_hash(), priority=0, t=1.0)
        store.append("leased", "jdead1", attempt=1, t=2.0)
        store.append("running", "jdead1", worker=999999, t=2.1)
        with ExperimentService(str(tmp_path), workers=1,
                               retry_policy=FAST) as svc:
            assert svc.jobs["jdead1"].state == "submitted"
            svc.run(once=True, max_seconds=120, install_signals=False)
        rec = job_records(str(tmp_path))["jdead1"]
        assert rec.state == "done"
        assert rec.attempts == 2  # lease history survived the crash
        events = read_events(store.path)
        assert [e["ev"] for e in events if e["job"] == "jdead1"][3] == \
            "requeued"

    def test_published_but_unjournaled_result_becomes_cache_hit(
            self, tmp_path):
        # Worker published to the cache, then the server died before
        # journaling 'done'. Restart must cache-hit, not re-simulate.
        from repro.serve.supervisor import run_job_worker

        spec = small_spec(label="ghost")
        store = JobStore(str(tmp_path))
        store.append("submitted", "jghost", spec=spec.to_dict(),
                     hash=spec.spec_hash(), priority=0, t=1.0)
        store.append("leased", "jghost", attempt=1, t=2.0)
        store.append("running", "jghost", worker=999999, t=2.1)
        run_job_worker(str(tmp_path), "jghost", 1, spec.to_dict())
        run_service(tmp_path)
        rec = job_records(str(tmp_path))["jghost"]
        assert rec.state == "done"
        assert rec.cached is True
        index = ResultCache(str(tmp_path)).read_index()
        assert len(index) == 1  # reconciled exactly once

    def test_lock_refuses_root_owned_by_live_process(self, tmp_path):
        # pid 1 is always alive; our own pid may legally re-acquire
        # (that IS the restart path), so forge a foreign live owner.
        (tmp_path / "serve.lock").write_text(json.dumps({"pid": 1, "t": 0}))
        with pytest.raises(ServiceLockError):
            ExperimentService(str(tmp_path)).recover()

    def test_same_process_may_reacquire_its_own_root(self, tmp_path):
        with ExperimentService(str(tmp_path)):
            pass
        with ExperimentService(str(tmp_path)) as svc:
            assert svc._locked

    def test_stale_lock_is_taken_over(self, tmp_path):
        (tmp_path / "serve.lock").write_text(
            json.dumps({"pid": 2 ** 22 + 12345, "t": 0})
        )
        with ExperimentService(str(tmp_path)) as svc:
            assert svc._locked


class TestDrain:
    def test_drain_stops_new_launches_but_queue_survives(self, tmp_path):
        j1 = submit_spec(str(tmp_path), small_spec(rate=0.1))
        j2 = submit_spec(str(tmp_path), small_spec(rate=0.2))
        with ExperimentService(str(tmp_path), workers=1,
                               retry_policy=FAST) as svc:
            svc.admit_spool()
            svc.request_drain()
            svc.run(once=False, max_seconds=60, install_signals=False)
            assert svc.drained()
        recs = job_records(str(tmp_path))
        states = sorted(recs[j].state for j in (j1, j2))
        assert "submitted" in states  # queue persisted, not lost
        # A later server picks the queue up and finishes it.
        run_service(tmp_path, workers=1)
        recs = job_records(str(tmp_path))
        assert all(recs[j].state == "done" for j in (j1, j2))


class TestPriorityAging:
    """Launch order is static priority, then submission time: a waiting
    job gains nothing by waiting (the service has no aging)."""

    class Wall:
        """Deterministic wall clock the service reads via ``walltime``."""

        def __init__(self, t=1000.0):
            self.t = t

        def __call__(self):
            return self.t

    def leased_order(self, root):
        return [e["job"]
                for e in read_events(os.path.join(str(root), "jobs.jsonl"))
                if e["ev"] == "leased"]

    def submit_pair(self, root, svc, wall):
        """An old low-priority job, then a fresh high-priority one."""
        old = svc.submit(small_spec(rate=0.1, priority=0))
        wall.t += 1000.0
        fresh = svc.submit(small_spec(rate=0.2, priority=5))
        return old, fresh

    def test_zero_aging_keeps_strict_priority(self, tmp_path):
        wall = self.Wall()
        with ExperimentService(str(tmp_path), workers=1, retry_policy=FAST,
                               walltime=wall) as svc:
            old, fresh = self.submit_pair(tmp_path, svc, wall)
            svc.run(once=True, max_seconds=60, install_signals=False)
        assert self.leased_order(tmp_path) == [fresh, old]


class TestStatusAndApi:
    def test_status_snapshot_and_scan(self, tmp_path):
        spec = small_spec()
        jid = submit_spec(str(tmp_path), spec)
        submit_spec(str(tmp_path), spec)
        status = run_service(tmp_path)
        assert status["jobs"] == {"done": 2}
        assert status["cache"]["hits"] == 1
        assert status["cache"]["hit_rate"] == 0.5
        on_disk = json.load(open(tmp_path / "status.json"))
        assert on_disk["jobs"] == {"done": 2}
        scan = scan_service(str(tmp_path))
        assert scan["jobs"] == {"done": 2}
        assert scan["server"]["pid"] == os.getpid()
        recs = wait_for(str(tmp_path), [jid], timeout=1)
        assert recs[jid].state == "done"

    def test_wait_for_times_out_on_missing_job(self, tmp_path):
        (tmp_path / "spool").mkdir()
        with pytest.raises(TimeoutError):
            wait_for(str(tmp_path), ["jnever"], timeout=0.1, poll=0.01)


class TestServeCli:
    def test_submit_sweep_serve_status_round_trip(self, tmp_path):
        from repro.cli import main

        root = str(tmp_path / "svc")
        out = io.StringIO()
        assert main(["serve", root, "--submit-sweep", "0.1", "0.2",
                     "--mesh-k", "2", "--warmup", "50", "--measure", "100",
                     "--drain", "50", "--label", "cli"], out) == 0
        job_ids = out.getvalue().split()
        assert len(job_ids) == 2
        out = io.StringIO()
        assert main(["serve", root, "--once", "--workers", "2"], out) == 0
        assert "done=2" in out.getvalue()
        out = io.StringIO()
        assert main(["serve", root, "--status", "--json"], out) == 0
        status = json.loads(out.getvalue())
        assert status["jobs"] == {"done": 2}
        recs = job_records(root)
        assert all(recs[j].state == "done" for j in job_ids)

    def test_submit_file_and_dead_letter_exit_code(self, tmp_path):
        from repro.cli import main

        root = str(tmp_path / "svc")
        spec = small_spec()
        spec.config["allocator"] = "no-such-allocator"
        spec_file = tmp_path / "job.json"
        spec_file.write_text(json.dumps({"spec": spec.to_dict()}))
        out = io.StringIO()
        assert main(["serve", root, "--submit", str(spec_file)], out) == 0
        out = io.StringIO()
        # Dead-lettered job -> non-zero exit so CI notices.
        assert main(["serve", root, "--once"], out) == 1
        out = io.StringIO()
        assert main(["serve", root, "--status"], out) == 0
        assert "dead" in out.getvalue()
