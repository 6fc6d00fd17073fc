"""Parameter sweeps, run on the experiment service.

A sweep is a batch of :mod:`repro.serve` jobs: every (configuration,
rate) point becomes one :func:`~repro.serve.spec.spec_for` job, an
:class:`~repro.serve.service.ExperimentService` over the sweep's root
directory runs them to completion, and each result is read back out of
the content-addressed cache. Sweeps and ``repro serve`` therefore share
one supervised attempt (a forked worker per attempt, heartbeat leases,
confirmed kill before any retry), one durable log (``jobs.jsonl``), one
deterministic retry backoff and one result cache.

A point that crashes, wedges past its lease or raises is retried
(``retries`` extra attempts, default one) and then recorded in the
result's ``errors`` list; a bad point costs that point, not the sweep.
Pass ``journal_dir`` to keep the root: a rerun of the same sweep on it
after the sweep process died is served from the cache for every point
that finished and simulates only the missing ones.
"""

import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional

from repro.serve.api import load_result
from repro.serve.backoff import DEFAULT_RETRY_POLICY
from repro.serve.service import ExperimentService
from repro.serve.spec import spec_for

#: ``run_simulation`` keywords a sweep point's job spec can carry.
RUN_KEYWORDS = ("pattern", "lengths", "warmup", "measure", "drain")


@dataclass
class PointError:
    """Why one sweep point produced no result, after all retries."""

    label: str
    rate: float
    error: str
    attempts: int


@dataclass
class PointTiming:
    """Host-side cost of one completed sweep point, from its job record.

    ``wall_time`` is the worker-measured seconds of the attempt that
    produced the result and ``worker`` its process id; a point served
    from the cache reports ``0.0`` and ``None``. ``attempts`` counts
    executions including the successful one (0 for a cache hit), and
    ``retry_delays`` the backoff seconds waited before each retry.
    """

    label: str
    rate: float
    wall_time: Optional[float] = None
    worker: Optional[int] = None
    attempts: int = 1
    retry_delays: List[float] = field(default_factory=list)


class _Outcomes:
    """``errors`` and ``timings`` of a finished sweep, beside its results."""

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


class SweepResults(_Outcomes, list):
    """``[(rate, SimResult)]`` plus per-point failures in ``errors``.

    A plain list to existing callers; ``errors`` holds a
    :class:`PointError` for each point that failed every attempt, and
    ``timings`` a :class:`PointTiming` for each successful point, in
    result order.
    """


class MatrixResults(_Outcomes, dict):
    """``{label: [(rate, SimResult)]}`` plus failures in ``errors``.

    ``timings`` holds one :class:`PointTiming` per successful point
    across all labels, in submission order.
    """


def _spec_keywords(run_kwargs):
    """Map sweep run keywords onto :func:`spec_for` keywords."""
    run = dict(run_kwargs)
    if "packet_length" in run:
        if "lengths" in run:
            raise TypeError("pass packet_length or lengths, not both")
        run["lengths"] = {"kind": "fixed", "length": run.pop("packet_length")}
    unknown = sorted(set(run) - set(RUN_KEYWORDS))
    if unknown:
        raise TypeError(f"sweeps take no run keyword(s) {unknown}; a point "
                        f"is a job spec of {RUN_KEYWORDS + ('packet_length',)}")
    return run


def _run_points(points, workers, timeout, retries, journal_dir,
                watchdog_window, retry_policy, mp_context, run_kwargs):
    """Run ``[(label, config, rate)]`` as service jobs, in one batch.

    Returns one ``(label, rate, SimResult | None, PointTiming |
    PointError)`` per point, in input order.
    """
    run = _spec_keywords(run_kwargs)
    specs = [spec_for(config, rate=rate, label=label,
                      watchdog_window=watchdog_window, **run)
             for label, config, rate in points]
    root = journal_dir if journal_dir is not None else tempfile.mkdtemp(
        prefix="repro-sweep-")
    try:
        with ExperimentService(
                root, workers=os.cpu_count() if workers is None else workers,
                max_retries=retries,
                lease_timeout=math.inf if timeout is None else timeout,
                retry_policy=retry_policy or DEFAULT_RETRY_POLICY,
                mp_context=mp_context) as service:
            ids = [service.submit(spec) for spec in specs]
            service.run(once=True, install_signals=False)
            log = service.store.recover()
        outcomes = []
        for (label, _, rate), job_id in zip(points, ids):
            rec = log[job_id]
            if rec.state != "done":
                outcomes.append((label, rate, None, PointError(
                    label, rate, rec.error, rec.attempts)))
                continue
            timing = PointTiming(label, rate, rec.wall_time, rec.worker,
                                 rec.attempts, list(rec.retry_delays))
            outcomes.append((label, rate, load_result(root, rec), timing))
        return outcomes
    finally:
        if journal_dir is None:
            shutil.rmtree(root, ignore_errors=True)


def parallel_sweep(config, rates, workers: Optional[int] = None,
                   label: str = "", timeout: Optional[float] = None,
                   retries: int = 1, journal_dir: Optional[str] = None,
                   watchdog_window: Optional[int] = None,
                   retry_policy=None, mp_context=None, **run_kwargs):
    """Run one simulation per rate as experiment-service jobs.

    Returns a :class:`SweepResults` (``(rate, SimResult)`` in input
    rate order) whose ``errors`` records points that failed every
    attempt. ``workers`` caps concurrent worker processes (``None``:
    ``os.cpu_count()``). ``timeout`` is the lease: seconds without a
    heartbeat before an attempt is killed (confirmed dead) and retried;
    ``None`` never expires. ``retries`` is the extra attempts a failed
    point gets, each after the deterministic backoff of
    ``retry_policy`` (a :class:`repro.serve.backoff.RetryPolicy`).
    ``mp_context`` picks the start method of the workers (default
    fork). ``watchdog_window`` arms a HangWatchdog in each attempt.

    ``journal_dir`` is the service root (``jobs.jsonl``, ``cache/``);
    without it the sweep runs in a temporary root removed afterwards.
    Run keywords (``pattern``, ``warmup``, ``measure``, ``drain``,
    ``packet_length`` or ``lengths``) go into every point's job spec;
    any other keyword raises ``TypeError``.
    """
    outcomes = _run_points(
        [(label, config, rate) for rate in rates], workers, timeout,
        retries, journal_dir, watchdog_window, retry_policy, mp_context,
        run_kwargs)
    done = [o for o in outcomes if o[2] is not None]
    return SweepResults(((o[1], o[2]) for o in done),
                        (o[3] for o in outcomes if o[2] is None),
                        (o[3] for o in done))


def parallel_matrix(configs, rates, workers: Optional[int] = None,
                    timeout: Optional[float] = None, retries: int = 1,
                    journal_dir: Optional[str] = None,
                    watchdog_window: Optional[int] = None,
                    retry_policy=None, mp_context=None, **run_kwargs):
    """Sweep a ``{label: NetworkConfig}`` matrix of configurations.

    Returns a :class:`MatrixResults` (``{label: [(rate, SimResult)]}``,
    each series sorted by rate) whose ``errors`` records per-point
    failures; a failed point leaves a gap in its label's series. Every
    point of every configuration is one job of the same service batch,
    so the workers stay busy. Other arguments are as in
    :func:`parallel_sweep`.
    """
    outcomes = _run_points(
        [(label, config, rate) for label, config in configs.items()
         for rate in rates], workers, timeout, retries, journal_dir,
        watchdog_window, retry_policy, mp_context, run_kwargs)
    out = MatrixResults({label: [] for label in configs},
                        (o[3] for o in outcomes if o[2] is None))
    for label, rate, result, timing in outcomes:
        if result is not None:
            out[label].append((rate, result))
            out.timings.append(timing)
    for series in out.values():
        series.sort(key=lambda pair: pair[0])
    return out
