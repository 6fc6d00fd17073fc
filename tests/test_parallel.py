"""Tests for multiprocess sweeps."""

import pytest

from repro.network.config import mesh_config
from repro.sim import parallel as parallel_mod
from repro.sim.parallel import (
    PointError,
    PointTiming,
    parallel_matrix,
    parallel_sweep,
)

RUN = dict(warmup=100, measure=200, drain=0, pattern="uniform",
           packet_length=1)


class TestParallelSweep:
    def test_inline_mode_matches_rates(self):
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05, 0.1], workers=0, **RUN
        )
        assert [r for r, _ in results] == [0.05, 0.1]
        for rate, result in results:
            assert result.avg_throughput == pytest.approx(rate, abs=0.04)

    def test_process_pool_matches_inline(self):
        inline = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.1], workers=0, **RUN
        )
        pooled = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.1], workers=2, **RUN
        )
        assert inline[0][1].avg_throughput == pooled[0][1].avg_throughput

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
        parallel_sweep(cfg, rates=[0.05], workers=0, **RUN)
        assert cfg.seed == 123


BAD = mesh_config(mesh_k=4, allocator="no-such-allocator")


class TestPointFaultTolerance:
    def test_inline_failure_becomes_error_record(self):
        results = parallel_sweep(BAD, rates=[0.05, 0.1], workers=0,
                                 label="bad", **RUN)
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
        results = parallel_sweep(BAD, rates=[0.05], workers=0, retries=0,
                                 **RUN)
        assert results.errors[0].attempts == 1

    def test_pool_failure_spares_other_points(self):
        out = parallel_matrix(
            {"good": mesh_config(mesh_k=4), "bad": BAD},
            rates=[0.05, 0.1], workers=2, **RUN
        )
        assert not out.complete
        assert [r for r, _ in out["good"]] == [0.05, 0.1]
        assert out["bad"] == []
        assert sorted(e.rate for e in out.errors) == [0.05, 0.1]
        assert all(e.label == "bad" for e in out.errors)

    def test_timeout_recorded_per_point(self):
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05], workers=1,
            timeout=0.001, retries=0, **RUN
        )
        assert list(results) == []
        assert len(results.errors) == 1
        assert "Timeout" in results.errors[0].error

    def test_fully_successful_sweep_is_complete(self):
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05],
                                 workers=0, **RUN)
        assert results.complete
        assert results.errors == []

    def test_timeout_then_retry_success(self, monkeypatch):
        """A point that times out once succeeds on its retry attempt."""
        real_run_point = parallel_mod._run_point
        flaky = {"failed": False}

        def flaky_run_point(point):
            if not flaky["failed"]:
                flaky["failed"] = True
                raise TimeoutError("simulated per-point timeout")
            return real_run_point(point)

        monkeypatch.setattr(parallel_mod, "_run_point", flaky_run_point)
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05],
                                 workers=0, retries=1, **RUN)
        assert results.complete
        assert len(results) == 1
        assert flaky["failed"]

    def test_watchdog_window_is_threaded_into_workers(self, monkeypatch):
        seen = []
        real_run_point = parallel_mod._run_point

        def spying_run_point(point):
            seen.append(point.watchdog_window)
            return real_run_point(point)

        monkeypatch.setattr(parallel_mod, "_run_point", spying_run_point)
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05],
                                 workers=0, watchdog_window=500, **RUN)
        assert results.complete
        assert seen == [500]


class TestPointTimings:
    def test_inline_sweep_records_timings(self):
        import os

        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05, 0.1],
                                 workers=0, label="m4", **RUN)
        assert len(results.timings) == 2
        for timing, rate in zip(results.timings, [0.05, 0.1]):
            assert isinstance(timing, PointTiming)
            assert (timing.label, timing.rate) == ("m4", rate)
            assert timing.wall_time > 0
            assert timing.worker == os.getpid()  # inline: parent process
        assert results.total_wall_time() == pytest.approx(
            sum(t.wall_time for t in results.timings)
        )

    def test_pool_sweep_records_worker_pids(self):
        import os

        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05, 0.1],
                                 workers=2, **RUN)
        assert len(results.timings) == 2
        assert all(t.wall_time > 0 for t in results.timings)
        assert all(t.worker != os.getpid() for t in results.timings)

    def test_matrix_records_timings(self):
        out = parallel_matrix(
            {"a": mesh_config(mesh_k=4), "b": mesh_config(mesh_k=4)},
            rates=[0.05], workers=0, **RUN
        )
        assert sorted(t.label for t in out.timings) == ["a", "b"]
        assert out.total_wall_time() > 0

    def test_journal_resume_restores_timings(self, tmp_path):
        from repro.sim.parallel import SweepJournal

        sweep_dir = str(tmp_path / "sweep")
        full = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05, 0.1],
                              workers=0, journal_dir=sweep_dir, **RUN)
        resumed = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05, 0.1],
                                 workers=0, journal_dir=sweep_dir,
                                 resume=True, **RUN)
        assert len(resumed.timings) == 2
        for fresh, replayed in zip(full.timings, resumed.timings):
            assert replayed.wall_time == pytest.approx(fresh.wall_time)
            assert replayed.worker == fresh.worker
        journal = SweepJournal(sweep_dir)
        entry = next(iter(journal.completed().values()))
        assert entry["wall_time"] > 0
        assert entry["worker"] == full.timings[0].worker


class TestRetryBackoff:
    """Deterministic backoff between per-point retry attempts."""

    FAST = None  # initialised lazily to keep import side-effects local

    @staticmethod
    def policy():
        from repro.serve.backoff import RetryPolicy

        return RetryPolicy(base=0.001, factor=2.0, cap=0.01, jitter=0.5)

    def test_retry_records_attempts_and_delays(self, monkeypatch):
        real_run_point = parallel_mod._run_point
        flaky = {"failed": False}

        def flaky_run_point(point):
            if not flaky["failed"]:
                flaky["failed"] = True
                raise TimeoutError("boom")
            return real_run_point(point)

        monkeypatch.setattr(parallel_mod, "_run_point", flaky_run_point)
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05],
                                 workers=0, retries=1,
                                 retry_policy=self.policy(), **RUN)
        assert results.complete
        timing = results.timings[0]
        assert timing.attempts == 2
        assert len(timing.retry_delays) == 1
        # Deterministic: the recorded delay IS the policy's schedule for
        # this point's identity.
        expected = self.policy().delay("|0|0.05", 1)
        assert timing.retry_delays[0] == expected

    def test_first_try_success_has_no_delays(self):
        results = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05],
                                 workers=0, **RUN)
        assert results.timings[0].attempts == 1
        assert results.timings[0].retry_delays == []

    def test_backoff_actually_waits(self, monkeypatch):
        from repro.serve.backoff import RetryPolicy

        slept = []
        monkeypatch.setattr(parallel_mod, "_run_point",
                            _fail_n_times_factory(2))
        parallel_mod._execute(
            [parallel_mod.SweepPoint(mesh_config(mesh_k=4), 0.05, dict(RUN))],
            workers=0, timeout=None, retries=3,
            retry_policy=RetryPolicy(base=0.5, factor=2.0, cap=10.0,
                                     jitter=0.0),
            sleep=slept.append,
        )
        # Exponential: 0.5 then 1.0 before the two retries that ran.
        assert slept == [0.5, 1.0]

    def test_journal_records_retry_history(self, tmp_path, monkeypatch):
        from repro.sim.parallel import SweepJournal

        real_run_point = parallel_mod._run_point
        flaky = {"failed": False}

        def flaky_run_point(point):
            if not flaky["failed"]:
                flaky["failed"] = True
                raise RuntimeError("transient")
            return real_run_point(point)

        monkeypatch.setattr(parallel_mod, "_run_point", flaky_run_point)
        sweep_dir = str(tmp_path / "sweep")
        parallel_sweep(mesh_config(mesh_k=4), rates=[0.05], workers=0,
                       retries=1, retry_policy=self.policy(),
                       journal_dir=sweep_dir, **RUN)
        entry = next(iter(SweepJournal(sweep_dir).completed().values()))
        assert entry["attempts"] == 2
        assert len(entry["retry_delays"]) == 1
        resumed = parallel_sweep(mesh_config(mesh_k=4), rates=[0.05],
                                 workers=0, journal_dir=sweep_dir,
                                 resume=True, **RUN)
        assert resumed.timings[0].attempts == 2
        assert resumed.timings[0].retry_delays == entry["retry_delays"]


def _fail_n_times_factory(n):
    state = {"left": n}

    def run_point(point):
        if state["left"] > 0:
            state["left"] -= 1
            raise RuntimeError("transient")
        import os
        import time

        return (point.label, point.rate, None,
                PointTiming(point.label, point.rate,
                            wall_time=0.0, worker=os.getpid()))

    return run_point


def _sigkill_once_run_point(point):
    """First execution per label: hard death. After: the real thing.

    The sentinel directory rides in ``run_kwargs`` (popped before the
    real run) so the flag survives the killed worker process.
    """
    import os
    import signal

    kwargs = dict(point.run_kwargs)
    sentinel = kwargs.pop("_sentinel_dir")
    point = parallel_mod.SweepPoint(
        point.config, point.rate, kwargs, point.label,
        point.profile_epoch, point.watchdog_window,
    )
    flag = os.path.join(sentinel, f"killed-{point.label}-{point.rate!r}")
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return parallel_mod._run_point_real(point)


def _wedge_once_run_point(point):
    """First execution per point: record pid and wedge forever."""
    import os
    import time

    kwargs = dict(point.run_kwargs)
    sentinel = kwargs.pop("_sentinel_dir")
    point = parallel_mod.SweepPoint(
        point.config, point.rate, kwargs, point.label,
        point.profile_epoch, point.watchdog_window,
    )
    flag = os.path.join(sentinel, f"wedged-{point.label}-{point.rate!r}")
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write(str(os.getpid()))
            fh.flush()
            os.fsync(fh.fileno())
        time.sleep(600)
    return parallel_mod._run_point_real(point)


class TestHardWorkerDeath:
    """SIGKILLed and wedged workers: the orphaned-work hazard."""

    @staticmethod
    def fork_ctx():
        import multiprocessing

        return multiprocessing.get_context("fork")

    @staticmethod
    def policy():
        from repro.serve.backoff import RetryPolicy

        return RetryPolicy(base=0.001, factor=2.0, cap=0.01, jitter=0.0)

    def test_sigkilled_worker_point_retries_and_succeeds(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_run_point_real",
                            parallel_mod._run_point, raising=False)
        monkeypatch.setattr(parallel_mod, "_run_point",
                            _sigkill_once_run_point)
        run = dict(RUN, _sentinel_dir=str(tmp_path))
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05], workers=1, retries=1,
            retry_policy=self.policy(), mp_context=self.fork_ctx(),
            label="hard", **run,
        )
        assert results.complete
        assert results.timings[0].attempts == 2
        assert len(results.timings[0].retry_delays) == 1

    def test_sigkill_surfaces_point_error_when_retries_exhausted(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_run_point_real",
                            parallel_mod._run_point, raising=False)
        monkeypatch.setattr(parallel_mod, "_run_point",
                            _sigkill_once_run_point)
        run = dict(RUN, _sentinel_dir=str(tmp_path))
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05], workers=1, retries=0,
            retry_policy=self.policy(), mp_context=self.fork_ctx(),
            label="hard", **run,
        )
        assert list(results) == []
        assert len(results.errors) == 1
        err = results.errors[0]
        assert err.attempts == 1
        assert "Broken" in err.error or "abruptly" in err.error

    def test_journal_survives_sigkill_and_resume_completes(
            self, tmp_path, monkeypatch):
        from repro.sim.parallel import SweepJournal

        monkeypatch.setattr(parallel_mod, "_run_point_real",
                            parallel_mod._run_point, raising=False)
        monkeypatch.setattr(parallel_mod, "_run_point",
                            _sigkill_once_run_point)
        import os

        sweep_dir = str(tmp_path / "sweep")
        run = dict(RUN, _sentinel_dir=str(tmp_path))
        # Pre-arm 0.05's sentinel so only the 0.1 attempt SIGKILLs
        # itself: 0.05 completes and is journaled, 0.1 is lost (with
        # retries=0) but the sweep survives and the journal stays
        # intact.
        with open(os.path.join(str(tmp_path), "killed-j-0.05"), "w"):
            pass
        first = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05, 0.1], workers=1,
            retries=0, retry_policy=self.policy(),
            mp_context=self.fork_ctx(), journal_dir=sweep_dir,
            label="j", **run,
        )
        assert not first.complete
        done = SweepJournal(sweep_dir).completed()
        assert len(done) == 1
        # Resume: only the missing point re-runs; the sweep completes.
        monkeypatch.setattr(parallel_mod, "_run_point",
                            parallel_mod._run_point_real)
        resumed = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05, 0.1], workers=1,
            journal_dir=sweep_dir, resume=True, label="j", **RUN,
        )
        assert resumed.complete
        assert [r for r, _ in resumed] == [0.05, 0.1]
        assert len(SweepJournal(sweep_dir).completed()) == 2

    def test_timed_out_worker_is_dead_before_retry_runs(
            self, tmp_path, monkeypatch):
        """The orphaned-work fix: recycle kills the wedged worker.

        Without the recycle, the retry would queue behind (or run
        concurrently with) the first attempt's still-running worker.
        """
        import os

        monkeypatch.setattr(parallel_mod, "_run_point_real",
                            parallel_mod._run_point, raising=False)
        monkeypatch.setattr(parallel_mod, "_run_point",
                            _wedge_once_run_point)
        run = dict(RUN, _sentinel_dir=str(tmp_path))
        results = parallel_sweep(
            mesh_config(mesh_k=4), rates=[0.05], workers=1, retries=1,
            timeout=2.0, retry_policy=self.policy(),
            mp_context=self.fork_ctx(), label="wedge", **run,
        )
        assert results.complete
        assert results.timings[0].attempts == 2
        # The wedged first attempt's process must be confirmed dead.
        flag = os.path.join(str(tmp_path), "wedged-wedge-0.05")
        with open(flag) as fh:
            orphan_pid = int(fh.read())
        with pytest.raises(ProcessLookupError):
            os.kill(orphan_pid, 0)
