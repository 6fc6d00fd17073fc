"""Tests for sweeps (``parallel_sweep`` / ``parallel_matrix``).

Sweeps run on the experiment service, so a fault is injected where a
service worker runs the simulation: ``repro.sim.runner.run_simulation``
is patched in the parent and reaches every attempt through the fork
start method. Whether a fault fires is decided by a sentinel file per
(fault, rate), so "first attempt only" holds across processes.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.network.config import mesh_config
from repro.serve import job_records, read_events, spec_for
from repro.serve.backoff import RetryPolicy
from repro.sim import runner
from repro.sim.parallel import (
    PointError,
    PointTiming,
    parallel_matrix,
    parallel_sweep,
)

RUN = dict(warmup=100, measure=200, drain=0, pattern="uniform",
           packet_length=1)
FORK = multiprocessing.get_context("fork")
#: Backoff tuned so retry tests spend milliseconds, not seconds.
FAST = RetryPolicy(base=0.001, factor=2.0, cap=0.01, jitter=0.0)


def first_time(sentinel_dir, tag, rate):
    """True the first time any process calls this for (tag, rate).

    The winner writes its pid into the sentinel file.
    """
    path = os.path.join(str(sentinel_dir), f"{tag}-{rate!r}")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, str(os.getpid()).encode())
    os.fsync(fd)
    os.close(fd)
    return True


def patch_workers(monkeypatch, before):
    """Call ``before(kwargs)`` in the worker ahead of each simulation."""
    real = runner.run_simulation

    def patched(config, **kwargs):
        before(kwargs)
        return real(config, **kwargs)

    monkeypatch.setattr(runner, "run_simulation", patched)


def sigkill_first(sentinel_dir):
    def before(kwargs):
        if first_time(sentinel_dir, "killed", kwargs["rate"]):
            os.kill(os.getpid(), signal.SIGKILL)
    return before


def wedge_first(sentinel_dir):
    def before(kwargs):
        if first_time(sentinel_dir, "wedged", kwargs["rate"]):
            time.sleep(600)
    return before


def raise_first(sentinel_dir, exc):
    def before(kwargs):
        if first_time(sentinel_dir, "raised", kwargs["rate"]):
            raise exc
    return before


class TestParallelSweep:
    def test_sweep_matches_rates(self):
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05, 0.1], workers=2, **RUN
        )
        assert [r for r, _ in results] == [0.05, 0.1]
        for rate, result in results:
            assert result.avg_throughput == pytest.approx(rate, abs=0.04)

    def test_process_pool_matches_inline(self):
        config = mesh_config(mesh_k=4)
        inline = runner.run_simulation(config, rate=0.1, **RUN)
        pooled = parallel_sweep(config, rates=[0.1], workers=2, **RUN)
        assert pooled[0][1].to_dict() == inline.to_dict()

    def test_matrix(self):
        configs = {
            "base": mesh_config(mesh_k=4),
            "chained": mesh_config(mesh_k=4, chaining="any_input"),
        }
        out = parallel_matrix(configs, rates=[0.05, 0.1], workers=2, **RUN)
        assert set(out) == {"base", "chained"}
        for series in out.values():
            assert [r for r, _ in series] == [0.05, 0.1]

    def test_config_not_mutated(self):
        cfg = mesh_config(mesh_k=4, seed=123)
        parallel_sweep(cfg, rates=[0.05], workers=1, **RUN)
        assert cfg.seed == 123

    @pytest.mark.parametrize("kwargs", [
        {"resume": True}, {"profile_epoch": 100}, {"seed": 3},
        {"packet_length": 1, "lengths": None},
    ])
    def test_unknown_run_keyword_raises_type_error(self, kwargs):
        run = {k: v for k, v in RUN.items() if k != "packet_length"}
        with pytest.raises(TypeError):
            parallel_sweep(mesh_config(mesh_k=4), [0.05], workers=1,
                           **run, **kwargs)

    def test_lengths_and_packet_length_are_one_spec(self, tmp_path):
        from repro.traffic import FixedLength

        run = {k: v for k, v in RUN.items() if k != "packet_length"}
        root = str(tmp_path / "sweep")
        parallel_sweep(mesh_config(mesh_k=4), [0.05], workers=1,
                       journal_dir=root, packet_length=2, **run)
        again = parallel_sweep(mesh_config(mesh_k=4), [0.05], workers=1,
                               journal_dir=root, lengths=FixedLength(2),
                               **run)
        assert again.timings[0].attempts == 0  # served from the cache


BAD = mesh_config(mesh_k=4, allocator="no-such-allocator")


class TestPointFaultTolerance:
    def test_failure_becomes_error_record(self):
        results = parallel_sweep(BAD, rates=[0.05, 0.1], workers=2,
                                 label="bad", retry_policy=FAST, **RUN)
        assert list(results) == []
        assert not results.complete
        assert len(results.errors) == 2
        err = results.errors[0]
        assert isinstance(err, PointError)
        assert err.label == "bad"
        assert err.rate == 0.05
        assert err.attempts == 2  # first try plus the default retry
        assert "no-such-allocator" in err.error

    def test_retries_zero_means_single_attempt(self):
        results = parallel_sweep(BAD, rates=[0.05], workers=1, retries=0,
                                 **RUN)
        assert results.errors[0].attempts == 1

    def test_pool_failure_spares_other_points(self):
        out = parallel_matrix(
            {"good": mesh_config(mesh_k=4), "bad": BAD},
            rates=[0.05, 0.1], workers=2, retry_policy=FAST, **RUN
        )
        assert not out.complete
        assert [r for r, _ in out["good"]] == [0.05, 0.1]
        assert out["bad"] == []
        assert sorted(e.rate for e in out.errors) == [0.05, 0.1]
        assert all(e.label == "bad" for e in out.errors)

    def test_timeout_recorded_per_point(self, tmp_path, monkeypatch):
        """``timeout`` is the heartbeat lease: a silent attempt expires."""
        patch_workers(monkeypatch, wedge_first(tmp_path))
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05], workers=1,
            timeout=0.5, retries=0, mp_context=FORK, **RUN
        )
        assert list(results) == []
        assert len(results.errors) == 1
        assert "lease expired" in results.errors[0].error

    def test_fully_successful_sweep_is_complete(self):
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05],
                                 workers=1, **RUN)
        assert results.complete
        assert results.errors == []

    def test_timeout_then_retry_success(self, tmp_path, monkeypatch):
        """A point whose first attempt raises succeeds on its retry."""
        patch_workers(monkeypatch, raise_first(
            tmp_path, TimeoutError("simulated per-point timeout")))
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05],
                                 workers=1, retries=1, retry_policy=FAST,
                                 mp_context=FORK, **RUN)
        assert results.complete
        assert len(results) == 1
        assert os.path.exists(tmp_path / "raised-0.05")

    def test_watchdog_window_is_threaded_into_workers(self, tmp_path,
                                                      monkeypatch):
        seen = str(tmp_path / "seen")

        def before(kwargs):
            with open(seen, "a") as fh:
                fh.write(f"{kwargs['watchdog'].window}\n")

        patch_workers(monkeypatch, before)
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05],
                                 workers=1, watchdog_window=500,
                                 mp_context=FORK, **RUN)
        assert results.complete
        with open(seen) as fh:
            assert fh.read().split() == ["500"]


class TestPointTimings:
    def test_sweep_records_timings(self):
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05, 0.1],
                                 workers=2, label="m4", **RUN)
        assert len(results.timings) == 2
        for timing, rate in zip(results.timings, [0.05, 0.1]):
            assert isinstance(timing, PointTiming)
            assert (timing.label, timing.rate) == ("m4", rate)
            assert timing.wall_time > 0
        assert results.total_wall_time() == pytest.approx(
            sum(t.wall_time for t in results.timings)
        )

    def test_pool_sweep_records_worker_pids(self):
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05, 0.1],
                                 workers=2, **RUN)
        assert len(results.timings) == 2
        assert all(t.wall_time > 0 for t in results.timings)
        assert all(t.worker != os.getpid() for t in results.timings)

    def test_matrix_records_timings(self):
        out = parallel_matrix(
            {"a": mesh_config(mesh_k=4), "b": mesh_config(mesh_k=4)},
            rates=[0.05], workers=2, **RUN
        )
        assert sorted(t.label for t in out.timings) == ["a", "b"]
        assert out.total_wall_time() > 0

    def test_journal_resume_restores_timings(self, tmp_path):
        """The job log keeps each point's timing; a rerun is all hits."""
        sweep_dir = str(tmp_path / "sweep")
        full = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05, 0.1],
                              workers=2, journal_dir=sweep_dir, **RUN)
        logged = sorted(
            (rec.rate, rec.wall_time, rec.worker)
            for rec in job_records(sweep_dir).values())
        assert logged == sorted(
            (t.rate, t.wall_time, t.worker) for t in full.timings)
        rerun = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05, 0.1],
                               workers=2, journal_dir=sweep_dir, **RUN)
        assert [r.to_dict() for _, r in rerun] == \
            [r.to_dict() for _, r in full]
        for timing in rerun.timings:
            assert (timing.wall_time, timing.worker) == (0.0, None)
            assert timing.attempts == 0


class TestRetryBackoff:
    """Deterministic backoff between per-point retry attempts."""

    def test_retry_records_attempts_and_delays(self, tmp_path, monkeypatch):
        patch_workers(monkeypatch, raise_first(tmp_path, TimeoutError("boom")))
        config = mesh_config(mesh_k=4)
        results = parallel_sweep(config, rates=[0.05], workers=1, retries=1,
                                 retry_policy=RetryPolicy(base=0.001,
                                                          cap=0.01),
                                 mp_context=FORK, **RUN)
        assert results.complete
        timing = results.timings[0]
        assert timing.attempts == 2
        assert len(timing.retry_delays) == 1
        # Deterministic: the recorded delay IS the policy's schedule for
        # this point's spec hash.
        spec = spec_for(config, rate=0.05, warmup=100, measure=200, drain=0)
        expected = RetryPolicy(base=0.001, cap=0.01).delay(
            spec.spec_hash(), 1)
        assert timing.retry_delays[0] == expected

    def test_first_try_success_has_no_delays(self):
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05],
                                 workers=1, **RUN)
        assert results.timings[0].attempts == 1
        assert results.timings[0].retry_delays == []

    def test_backoff_actually_waits(self, tmp_path, monkeypatch):
        counter = str(tmp_path / "attempts")

        def fail_twice(kwargs):
            with open(counter, "a") as fh:
                fh.write("x")
            if os.path.getsize(counter) <= 2:
                raise RuntimeError("transient")

        patch_workers(monkeypatch, fail_twice)
        sweep_dir = str(tmp_path / "sweep")
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05], workers=1, retries=3,
            retry_policy=RetryPolicy(base=0.5, factor=2.0, cap=10.0,
                                     jitter=0.0),
            mp_context=FORK, journal_dir=sweep_dir, **RUN)
        # Exponential: 0.5 then 1.0 before the two retries that ran.
        assert results.timings[0].retry_delays == [0.5, 1.0]
        events = read_events(os.path.join(sweep_dir, "jobs.jsonl"))
        gates = [ev["not_before"] for ev in events if ev["ev"] == "retry"]
        leases = [ev["t"] for ev in events if ev["ev"] == "leased"]
        assert len(gates) == 2 and len(leases) == 3
        # Each retry was leased no earlier than its backoff gate.
        assert leases[1] >= gates[0] and leases[2] >= gates[1]

    def test_journal_records_retry_history(self, tmp_path, monkeypatch):
        patch_workers(monkeypatch, raise_first(
            tmp_path, RuntimeError("transient")))
        sweep_dir = str(tmp_path / "sweep")
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05],
                                 workers=1, retries=1, retry_policy=FAST,
                                 mp_context=FORK, journal_dir=sweep_dir,
                                 **RUN)
        (rec,) = job_records(sweep_dir).values()
        assert rec.state == "done" and rec.attempts == 2
        assert "transient" in rec.error
        assert rec.retry_delays == results.timings[0].retry_delays
        assert len(rec.retry_delays) == 1


class TestHardWorkerDeath:
    """SIGKILLed and wedged workers: the orphaned-work hazard."""

    def test_sigkilled_worker_point_retries_and_succeeds(
            self, tmp_path, monkeypatch):
        patch_workers(monkeypatch, sigkill_first(tmp_path))
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05], workers=1, retries=1,
            retry_policy=FAST, mp_context=FORK, label="hard", **RUN,
        )
        assert results.complete
        assert results.timings[0].attempts == 2
        assert len(results.timings[0].retry_delays) == 1

    def test_sigkill_surfaces_point_error_when_retries_exhausted(
            self, tmp_path, monkeypatch):
        patch_workers(monkeypatch, sigkill_first(tmp_path))
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05], workers=1, retries=0,
            retry_policy=FAST, mp_context=FORK, label="hard", **RUN,
        )
        assert list(results) == []
        assert len(results.errors) == 1
        err = results.errors[0]
        assert err.attempts == 1
        assert "died without an outcome" in err.error

    def test_journal_survives_sigkill_and_resume_completes(
            self, tmp_path, monkeypatch):
        sweep_dir = str(tmp_path / "sweep")
        # Pre-arm 0.05's sentinel so only the 0.1 attempt SIGKILLs
        # itself: 0.05 completes, 0.1 is lost (with retries=0) but the
        # sweep survives and its job log stays intact.
        open(os.path.join(str(tmp_path), "killed-0.05"), "w").close()
        patch_workers(monkeypatch, sigkill_first(tmp_path))
        first = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05, 0.1], workers=1,
            retries=0, retry_policy=FAST, mp_context=FORK,
            journal_dir=sweep_dir, label="j", **RUN,
        )
        assert not first.complete
        assert [r for r, _ in first] == [0.05]
        # Rerun: the finished point is a cache hit, only 0.1 simulates.
        resumed = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05, 0.1], workers=1,
            mp_context=FORK, journal_dir=sweep_dir, label="j", **RUN,
        )
        assert resumed.complete
        assert [r for r, _ in resumed] == [0.05, 0.1]
        assert [t.attempts for t in resumed.timings] == [0, 1]
        done = [ev for ev in read_events(os.path.join(sweep_dir,
                                                      "jobs.jsonl"))
                if ev["ev"] == "done"]
        assert [ev["cached"] for ev in done] == [False, True, False]

    def test_timed_out_worker_is_dead_before_retry_runs(
            self, tmp_path, monkeypatch):
        """A wedged attempt is killed and confirmed dead before its retry.

        Otherwise the retry would run concurrently with the first
        attempt's still-running worker.
        """
        wedge = wedge_first(tmp_path)
        checked = str(tmp_path / "orphan-at-retry")

        def before(kwargs):
            flag = os.path.join(str(tmp_path), "wedged-0.05")
            if os.path.exists(flag):  # a retry: is the wedged pid gone?
                with open(flag) as fh:
                    orphan = int(fh.read())
                try:
                    os.kill(orphan, 0)
                    state = "alive"
                except ProcessLookupError:
                    state = "dead"
                with open(checked, "w") as fh:
                    fh.write(state)
            wedge(kwargs)

        patch_workers(monkeypatch, before)
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05], workers=1, retries=1,
            timeout=2.0, retry_policy=FAST, mp_context=FORK,
            label="wedge", **RUN,
        )
        assert results.complete
        assert results.timings[0].attempts == 2
        with open(checked) as fh:
            assert fh.read() == "dead"
