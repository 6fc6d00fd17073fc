"""Multiprocess parameter sweeps.

Simulations are independent, CPU-bound, pure-Python — ideal for a
process pool. Work items carry a NetworkConfig (picklable dataclass)
plus run_simulation keyword arguments; each worker builds its own
Network so no simulator state crosses process boundaries.

Sweeps are fault-tolerant at point granularity: every point gets its
own future with an optional ``timeout``, and a point that crashes or
times out is retried (``retries`` attempts, default one) before being
recorded in the result's ``errors`` list. A bad point costs that point,
not the sweep — the caller still receives every result that succeeded.
Retries wait out a deterministic jittered exponential backoff (seeded
from the point identity; see :mod:`repro.serve.backoff`) and never
overlap the attempt they replace: after a timeout or a hard worker
death, the pool is recycled with every worker process confirmed dead
before the retry is submitted.

Sweeps are also crash-tolerant at *sweep* granularity: pass
``journal_dir`` and every completed point is appended to an
append-only ``journal.jsonl`` (flushed and fsynced per point). If the
sweep process itself dies — OOM killer, SIGKILL, power loss — rerunning
with ``resume=True`` replays finished points from the journal and only
simulates the missing ones. ``watchdog_window`` arms a fresh
:class:`~repro.faults.watchdog.HangWatchdog` inside each worker so a
deadlocked point fails fast instead of eating its timeout.
"""

import copy
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import append_jsonl, read_jsonl
from repro.serve.backoff import DEFAULT_RETRY_POLICY
from repro.sim.runner import run_simulation
from repro.stats.summary import SimResult


@dataclass
class SweepPoint:
    """One (configuration, rate) simulation request."""

    config: Any  # NetworkConfig
    rate: float
    run_kwargs: Dict[str, Any]
    label: str = ""
    #: When set, each worker profiles its run with this epoch length
    #: and the resulting SimResult carries a ``timing`` summary, so
    #: sweeps double as cycles/sec regression probes.
    profile_epoch: Optional[int] = None
    #: When set, each worker arms a strict HangWatchdog with this
    #: window, so a deadlocked point raises instead of hanging.
    watchdog_window: Optional[int] = None


@dataclass
class PointError:
    """Why one sweep point produced no result, after all retries."""

    label: str
    rate: float
    error: str
    attempts: int


@dataclass
class PointTiming:
    """Host-side cost of one completed sweep point.

    ``wall_time`` is the worker-measured seconds for the whole
    ``run_simulation`` call; ``worker`` is the worker process id (the
    parent's pid for inline runs). Points replayed from a pre-timing
    journal carry ``None`` for both. ``attempts`` counts executions
    including the successful one, and ``retry_delays`` the backoff
    seconds slept before each retry (empty for first-try successes) —
    deterministic per point, so a resumed sweep reports the same
    timeline.
    """

    label: str
    rate: float
    wall_time: Optional[float] = None
    worker: Optional[int] = None
    attempts: int = 1
    retry_delays: List[float] = field(default_factory=list)


class SweepResults(list):
    """``[(rate, SimResult)]`` plus per-point failures in ``errors``.

    A plain list to existing callers; ``errors`` holds a
    :class:`PointError` for each point that failed every attempt, and
    ``timings`` a :class:`PointTiming` (wall time + worker id) for each
    successful point, in result order.
    """

    def __init__(self, items=(), errors=(), timings=()):
        super().__init__(items)
        self.errors = list(errors)
        self.timings = list(timings)

    @property
    def complete(self):
        return not self.errors

    def total_wall_time(self):
        """Summed per-point worker seconds (None entries excluded)."""
        return sum(t.wall_time for t in self.timings
                   if t.wall_time is not None)


class MatrixResults(dict):
    """``{label: [(rate, SimResult)]}`` plus failures in ``errors``.

    ``timings`` holds one :class:`PointTiming` per successful point
    across all labels, in completion order.
    """

    def __init__(self, items=(), errors=(), timings=()):
        super().__init__(items)
        self.errors = list(errors)
        self.timings = list(timings)

    @property
    def complete(self):
        return not self.errors

    def total_wall_time(self):
        """Summed per-point worker seconds (None entries excluded)."""
        return sum(t.wall_time for t in self.timings
                   if t.wall_time is not None)


# ---------------------------------------------------------------------------
# completion journal


class SweepJournal:
    """Append-only JSONL record of completed sweep points.

    One line per finished point: ``{"key", "label", "rate", "result"}``,
    appended with :func:`~repro.obs.trace.append_jsonl` so a completed
    point survives the sweep process dying the very next instant.
    :func:`~repro.obs.trace.read_jsonl` discards a torn final line
    (crash mid-append); the corresponding points simply re-run.
    """

    FILENAME = "journal.jsonl"

    def __init__(self, directory):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, self.FILENAME)

    def completed(self):
        """``{key: journal entry}`` for every intact line."""
        if not os.path.exists(self.path):
            return {}
        return {entry["key"]: entry for entry in read_jsonl(self.path)
                if "key" in entry}

    def truncate(self):
        """Start a fresh journal (non-resume sweeps drop stale entries)."""
        with open(self.path, "w"):
            pass

    def record(self, key, label, rate, result, timing=None):
        entry = {
            "key": key, "label": label, "rate": rate,
            "result": result.to_dict(),
        }
        if timing is not None:
            entry["wall_time"] = timing.wall_time
            entry["worker"] = timing.worker
            entry["attempts"] = timing.attempts
            entry["retry_delays"] = timing.retry_delays
        append_jsonl(self.path, entry)


def _point_key(point, index):
    """Stable identity of a point within its sweep.

    The index disambiguates repeated (label, rate) pairs; ``repr`` of
    the rate is exact for floats, so resumed sweeps match reliably.
    """
    return f"{point.label}|{index}|{point.rate!r}"


# ---------------------------------------------------------------------------
# execution


def _run_point(point: SweepPoint):
    profiler = None
    if point.profile_epoch is not None:
        from repro.obs.profiler import PhaseProfiler

        profiler = PhaseProfiler(point.profile_epoch)
    watchdog = None
    if point.watchdog_window is not None:
        from repro.faults.watchdog import HangWatchdog

        watchdog = HangWatchdog(window=point.watchdog_window, mode="strict")
    start = time.perf_counter()
    result = run_simulation(
        point.config, rate=point.rate, profiler=profiler, watchdog=watchdog,
        **point.run_kwargs
    )
    timing = PointTiming(
        point.label, point.rate,
        wall_time=time.perf_counter() - start, worker=os.getpid(),
    )
    return point.label, point.rate, result, timing


def _describe(exc):
    return f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__


def _new_pool(workers, mp_context):
    if mp_context is not None:
        return ProcessPoolExecutor(max_workers=workers,
                                   mp_context=mp_context)
    return ProcessPoolExecutor(max_workers=workers)


def _drain_pool(pool):
    """Shut ``pool`` down and confirm every worker process is dead.

    Escalates terminate → SIGKILL → blocking join, so after this
    returns no orphaned worker can still be executing a point.
    ``pool._processes`` is private but has been the stable home of the
    worker ``Process`` objects since 3.7; fall back to a plain
    shutdown if it ever moves.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(2.0)
        if proc.is_alive():
            proc.kill()  # SIGKILL cannot be caught
            proc.join()


def _execute(points, workers, timeout, retries, on_result=None,
             retry_policy=None, mp_context=None, sleep=time.sleep):
    """Run every point; returns (outcomes aligned with ``points``, errors).

    ``outcomes[i]`` is ``(label, rate, SimResult, PointTiming)`` or
    ``None`` if point ``i`` failed every attempt.
    ``on_result(i, point, outcome)`` fires in the parent process after
    each success (the journal hook).

    ``workers=0`` runs inline (no timeout enforcement — there is no
    other process to bound). Pool mode submits one future per point;
    ``timeout`` bounds the wait for each point's result.

    Retries wait out a deterministic jittered exponential backoff
    (seeded from the point's identity, so reruns reproduce the exact
    timeline) rather than hammering the pool immediately. Before any
    retry runs after a timeout or a pool-breaking worker death, the
    pool is *recycled*: shut down with every worker process confirmed
    dead (:func:`_drain_pool`), then rebuilt — so a timed-out attempt
    can never still be executing while its retry runs, and a retry can
    never queue behind the very worker that wedged. Recycling is safe
    at that moment because retries only start once the initial
    collection pass has consumed every other future.
    """
    outcomes = [None] * len(points)
    errors = []
    policy = retry_policy if retry_policy is not None else \
        DEFAULT_RETRY_POLICY

    def success(i, point, outcome, attempts=1, delays=()):
        outcome[3].attempts = attempts
        outcome[3].retry_delays = list(delays)
        outcomes[i] = outcome
        if on_result is not None:
            on_result(i, point, outcome)

    if workers == 0:
        for i, point in enumerate(points):
            key = _point_key(point, i)
            attempts, exc, delays = 0, None, []
            while attempts <= retries:
                if attempts:  # back off before every retry
                    delay = policy.delay(key, attempts)
                    delays.append(delay)
                    sleep(delay)
                attempts += 1
                try:
                    success(i, point, _run_point(point), attempts, delays)
                    exc = None
                    break
                except Exception as err:  # noqa: BLE001 - per-point record
                    exc = err
            if exc is not None:
                errors.append(
                    PointError(point.label, point.rate, _describe(exc),
                               attempts)
                )
        return outcomes, errors
    pool = _new_pool(workers, mp_context)
    # Set when an attempt timed out (its worker may still be running
    # the point) or the pool broke (a worker died hard): the next
    # retry must not share a pool with either.
    needs_recycle = False
    try:
        futures = [
            (i, point, pool.submit(_run_point, point))
            for i, point in enumerate(points)
        ]
        failed = []
        for i, point, fut in futures:
            try:
                success(i, point, fut.result(timeout=timeout))
            except Exception as exc:  # noqa: BLE001 - includes TimeoutError
                fut.cancel()
                if isinstance(exc, (FutureTimeoutError, TimeoutError,
                                    BrokenExecutor)):
                    needs_recycle = True
                failed.append((i, point, 1, exc))
        for i, point, attempts, exc in failed:
            key = _point_key(point, i)
            delays = []
            while attempts <= retries:
                delay = policy.delay(key, attempts)
                delays.append(delay)
                sleep(delay)
                if needs_recycle:
                    _drain_pool(pool)
                    pool = _new_pool(workers, mp_context)
                    needs_recycle = False
                attempts += 1
                try:
                    fut = pool.submit(_run_point, point)
                    success(i, point, fut.result(timeout=timeout),
                            attempts, delays)
                    exc = None
                    break
                except Exception as err:  # noqa: BLE001
                    fut.cancel()
                    if isinstance(err, (FutureTimeoutError, TimeoutError,
                                        BrokenExecutor)):
                        needs_recycle = True
                    exc = err
            if exc is not None:
                errors.append(
                    PointError(point.label, point.rate, _describe(exc),
                               attempts)
                )
    finally:
        if needs_recycle:
            # Leftover orphans from the final attempt: confirm them
            # dead rather than letting them linger past the sweep.
            _drain_pool(pool)
        else:
            # wait=False so a hung worker cannot wedge the sweep's exit.
            pool.shutdown(wait=False, cancel_futures=True)
    return outcomes, errors


def _execute_journaled(points, workers, timeout, retries, journal_dir,
                       resume, retry_policy=None, mp_context=None):
    """Run points, replaying finished ones from the journal on resume.

    Returns (outcomes aligned with ``points``, errors). Without a
    journal directory this is plain :func:`_execute`.
    """
    if journal_dir is None:
        if resume:
            raise ValueError("resume=True requires journal_dir")
        return _execute(points, workers, timeout, retries,
                        retry_policy=retry_policy, mp_context=mp_context)
    journal = SweepJournal(journal_dir)
    keys = [_point_key(point, i) for i, point in enumerate(points)]
    cached = {}
    if resume:
        done = journal.completed()
        for i, key in enumerate(keys):
            if key in done:
                entry = done[key]
                cached[i] = (
                    points[i].label,
                    entry["rate"],
                    SimResult.from_dict(entry["result"]),
                    PointTiming(
                        points[i].label, entry["rate"],
                        wall_time=entry.get("wall_time"),
                        worker=entry.get("worker"),
                        attempts=entry.get("attempts", 1),
                        retry_delays=entry.get("retry_delays") or [],
                    ),
                )
    else:
        # A fresh (non-resume) sweep must not inherit a stale journal:
        # its entries would lie about which points this sweep finished.
        journal.truncate()
    pending = [(i, point) for i, point in enumerate(points) if i not in cached]

    def on_result(j, point, outcome):
        i = pending[j][0]
        journal.record(keys[i], point.label, outcome[1], outcome[2],
                       timing=outcome[3])

    raw, errors = _execute(
        [point for _, point in pending], workers, timeout, retries,
        on_result=on_result, retry_policy=retry_policy,
        mp_context=mp_context,
    )
    outcomes = [None] * len(points)
    for i, outcome in cached.items():
        outcomes[i] = outcome
    for j, (i, _) in enumerate(pending):
        outcomes[i] = raw[j]
    return outcomes, errors


def parallel_sweep(config, rates, workers: Optional[int] = None,
                   label: str = "", profile_epoch: Optional[int] = None,
                   timeout: Optional[float] = None, retries: int = 1,
                   journal_dir: Optional[str] = None, resume: bool = False,
                   watchdog_window: Optional[int] = None,
                   retry_policy=None, mp_context=None,
                   **run_kwargs):
    """Run one simulation per rate across a process pool.

    Returns a :class:`SweepResults` (a list of ``(rate, SimResult)`` in
    input rate order) whose ``errors`` records points that failed every
    attempt. ``workers=None`` lets the pool pick; ``workers=0`` runs
    inline (useful under debuggers and on platforms without fork).
    ``timeout`` bounds the wait per point in pool mode; ``retries`` is
    the extra attempts a crashed or timed-out point gets, each waiting
    out a deterministic jittered exponential backoff (``retry_policy``,
    a :class:`repro.serve.backoff.RetryPolicy`; default
    ``DEFAULT_RETRY_POLICY``) and recorded in the point's
    :class:`PointTiming`. A retry never overlaps its predecessor: after
    a timeout or hard worker death the pool is recycled with every
    worker confirmed dead first. ``mp_context`` picks the
    multiprocessing start method (tests use ``fork`` so monkeypatches
    reach workers). ``profile_epoch`` enables per-run pipeline
    profiling (see SweepPoint).

    ``journal_dir`` makes the sweep crash-tolerant: each completed
    point is appended to ``journal_dir/journal.jsonl`` as it finishes,
    and ``resume=True`` skips points already journaled by a previous
    (killed) invocation of the same sweep. ``watchdog_window`` arms a
    strict HangWatchdog per point.
    """
    points = [
        SweepPoint(copy.deepcopy(config), rate, dict(run_kwargs), label,
                   profile_epoch, watchdog_window)
        for rate in rates
    ]
    outcomes, errors = _execute_journaled(
        points, workers, timeout, retries, journal_dir, resume,
        retry_policy=retry_policy, mp_context=mp_context,
    )
    live = [o for o in outcomes if o is not None]
    return SweepResults(
        ((o[1], o[2]) for o in live), errors, (o[3] for o in live)
    )


def parallel_matrix(configs, rates, workers: Optional[int] = None,
                    profile_epoch: Optional[int] = None,
                    timeout: Optional[float] = None, retries: int = 1,
                    journal_dir: Optional[str] = None, resume: bool = False,
                    watchdog_window: Optional[int] = None,
                    retry_policy=None, mp_context=None,
                    **run_kwargs):
    """Sweep a {label: NetworkConfig} matrix of configurations.

    Returns a :class:`MatrixResults` (``{label: [(rate, SimResult)]}``)
    whose ``errors`` records per-point failures; a failed point leaves
    a gap in its label's series rather than killing the sweep. All
    points across all configurations share one pool so the pool stays
    saturated. ``journal_dir``/``resume``/``watchdog_window`` and
    ``retry_policy``/``mp_context`` behave as in :func:`parallel_sweep`.
    """
    points = []
    for label, config in configs.items():
        for rate in rates:
            points.append(
                SweepPoint(copy.deepcopy(config), rate, dict(run_kwargs),
                           label, profile_epoch, watchdog_window)
            )
    raw, errors = _execute_journaled(
        points, workers, timeout, retries, journal_dir, resume,
        retry_policy=retry_policy, mp_context=mp_context,
    )
    out = MatrixResults({label: [] for label in configs}, errors)
    for outcome in raw:
        if outcome is None:
            continue
        label, rate, result, timing = outcome
        out[label].append((rate, result))
        out.timings.append(timing)
    for series in out.values():
        series.sort(key=lambda pair: pair[0])
    return out
