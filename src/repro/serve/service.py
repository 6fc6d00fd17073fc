"""The crash-tolerant experiment service.

An :class:`ExperimentService` owns one service *root* directory::

    root/
      jobs.jsonl      # durable job store (append-only, fsynced)
      serve.lock      # single-server guard: {"pid": ...}
      status.json     # latest status snapshot (atomic_write)
      spool/          # submission inbox: one <jobid>.json per request
      hb/             # per-attempt heartbeat + outcome files
      cache/          # content-addressed result cache (objects/, index)

Everything the scheduler believes is re-derivable from disk, and every
state transition is journaled *before* it is acted on — so SIGKILLing
the server at any instant loses at most in-flight simulation work,
never bookkeeping. On restart, :meth:`recover` folds the journal,
re-queues jobs whose lease died with the previous server, reconciles
the cache, and the queue drains to completion as if nothing happened.

Scheduling is a poll loop (:meth:`tick`): admit spooled submissions,
reap finished/expired workers, launch eligible jobs. Tests drive
``tick`` directly for determinism; ``repro serve`` wraps it in
:meth:`run` with SIGTERM → graceful drain.

Crash-tolerance invariants, each enforced in exactly one place:

- *No lost jobs*: a submission is journaled (fsync) before its spool
  file is unlinked; a crash between the two re-admits a known job id,
  which is detected and skipped.
- *No concurrent duplicate attempts*: a lease is re-queued only after
  its worker is confirmed dead (:func:`confirmed_kill`); a restarting
  server only re-queues once its exclusive lock proves the previous
  server — whose workers die with it via PDEATHSIG — is gone.
- *At most one simulation per cache miss*: identical specs share one
  content hash; the launch path checks the cache first and holds
  single-flight (a hash already running blocks further launches of the
  same hash until it resolves, then they cache-hit).
"""

import json
import os
import signal
import time

from repro.obs.artifacts import atomic_write
from repro.obs.metrics import MetricsRegistry
from repro.proc import file_age, wait_for_exit
from repro.serve.backoff import DEFAULT_RETRY_POLICY
from repro.serve.cache import ResultCache
from repro.serve.spec import JobSpec, new_job_id
from repro.serve.store import ACTIVE_STATES, JobStore
from repro.serve.supervisor import (
    alive_pid,
    confirmed_kill,
    start_worker,
)

LOCK = "serve.lock"
STATUS = "status.json"
SPOOL_DIR = "spool"


class ServiceLockError(RuntimeError):
    """Another live server already owns this root."""


def spool_path(root, job_id):
    return os.path.join(root, SPOOL_DIR, f"{job_id}.json")


class ExperimentService:
    """Supervised worker pool + durable queue over one root directory.

    ``workers`` caps concurrent worker processes; ``lease_timeout`` is
    the heartbeat-staleness deadline (seconds) after which a worker is
    presumed wedged/dead, killed, and its job re-queued;
    ``max_retries`` bounds re-execution attempts beyond the first
    before a job is dead-lettered. ``clock``/``walltime`` are
    injectable for tests (monotonic vs wall-clock domains).
    """

    def __init__(self, root, workers=2, max_retries=3, lease_timeout=30.0,
                 retry_policy=DEFAULT_RETRY_POLICY, heartbeat_every=1000,
                 mp_context=None, metrics=None, clock=time.monotonic,
                 walltime=time.time, priority_aging=0.0):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if priority_aging < 0:
            raise ValueError("priority_aging must be >= 0")
        self.root = os.path.abspath(root)
        self.workers = workers
        self.max_retries = max_retries
        self.lease_timeout = lease_timeout
        self.retry_policy = retry_policy
        self.heartbeat_every = heartbeat_every
        #: Fair-share aging: queued jobs gain this many priority points
        #: per second of wait, so a stream of high-priority submissions
        #: cannot starve older low-priority work. 0 disables aging
        #: (strict static priority, the historical behavior).
        self.priority_aging = priority_aging
        if mp_context is None:
            import multiprocessing

            # fork keeps worker startup cheap and lets tests monkeypatch
            # through into workers; the sim itself is import-clean under
            # spawn too if a platform ever needs it.
            mp_context = multiprocessing.get_context("fork")
        self.mp = mp_context
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
        self.walltime = walltime

        os.makedirs(os.path.join(self.root, SPOOL_DIR), exist_ok=True)
        self.store = JobStore(self.root)
        self.cache = ResultCache(self.root)
        self.jobs = {}
        self._handles = {}  # job_id -> WorkerHandle
        self._inflight = set()  # spec hashes currently simulating
        self._indexed = set()  # hashes with a cache index line
        self.draining = False
        self._started_at = None
        self._locked = False

        m = self.metrics
        self.c_submitted = m.counter("serve_jobs_submitted_total")
        self.c_done = m.counter("serve_jobs_done_total")
        self.c_dead = m.counter("serve_jobs_dead_total")
        self.c_retries = m.counter("serve_retries_total")
        self.c_requeued = m.counter("serve_requeued_total")
        self.c_expired = m.counter("serve_leases_expired_total")
        self.c_hits = m.counter("serve_cache_hits_total")
        self.c_misses = m.counter("serve_cache_misses_total")
        self.g_queue = m.gauge("serve_queue_depth")
        self.g_workers = m.gauge("serve_workers_active")

    # --- lifecycle ----------------------------------------------------

    def recover(self):
        """Acquire the root, fold the journal, re-queue orphaned leases.

        Returns the number of jobs re-queued. Must be called (once)
        before :meth:`tick`.
        """
        self._acquire_lock()
        self._started_at = self.walltime()
        self.jobs = self.store.recover()
        self._indexed = self.cache.reconcile()
        requeued = 0
        for rec in self.jobs.values():
            if rec.state in ("leased", "running"):
                # The lease belonged to the dead previous server; its
                # workers died with it (PDEATHSIG), so re-execution
                # cannot race them. Attempt count is preserved.
                self.store.append("requeued", rec.job_id, t=self.walltime())
                rec.state = "submitted"
                rec.worker = None
                requeued += 1
                self.c_requeued.inc()
        return requeued

    def close(self):
        """Release the lock (workers are left alone)."""
        self._release_lock()

    def __enter__(self):
        self.recover()
        return self

    def __exit__(self, *exc):
        self.close()

    def _acquire_lock(self):
        path = os.path.join(self.root, LOCK)
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    owner = json.load(fh).get("pid")
            except (OSError, json.JSONDecodeError):
                owner = None
            if owner != os.getpid() and alive_pid(owner):
                raise ServiceLockError(
                    f"service root {self.root!r} is owned by live "
                    f"pid {owner}"
                )
        with atomic_write(path) as fh:
            json.dump({"pid": os.getpid(), "t": self.walltime()}, fh)
            fh.write("\n")
        self._locked = True

    def _release_lock(self):
        if not self._locked:
            return
        path = os.path.join(self.root, LOCK)
        try:
            with open(path) as fh:
                if json.load(fh).get("pid") == os.getpid():
                    os.unlink(path)
        except (OSError, json.JSONDecodeError):
            pass
        self._locked = False

    # --- submission ---------------------------------------------------

    def submit(self, spec, job_id=None):
        """Admit one :class:`JobSpec` directly; returns its job id.

        An invalid spec (bad config) is journaled and immediately
        dead-lettered — retrying cannot fix it.
        """
        if job_id is None:
            job_id = new_job_id()
        if job_id in self.jobs:
            return job_id  # duplicate admission (spool crash window)
        try:
            spec_hash = spec.spec_hash()
        except ValueError as exc:
            self._admit(job_id, spec, None)
            rec = self.jobs[job_id]
            rec.state = "dead"
            rec.error = f"invalid spec: {exc}"
            self.store.append("dead", job_id, error=rec.error, attempts=0,
                              t=self.walltime())
            self.c_dead.inc()
            return job_id
        self._admit(job_id, spec, spec_hash)
        return job_id

    def _admit(self, job_id, spec, spec_hash):
        event = self.store.append(
            "submitted", job_id, spec=spec.to_dict(), hash=spec_hash,
            priority=spec.priority, t=self.walltime(),
        )
        from repro.serve.store import fold_events

        self.jobs.update(fold_events([event]))
        self.c_submitted.inc()

    def admit_spool(self):
        """Drain the submission inbox into the journal.

        Clients drop ``{"job": id, "spec": {...}}`` files atomically
        into ``spool/``; admission journals then unlinks. A crash
        between the two leaves a spool file for an already-known job,
        which the duplicate check skips (and still unlinks).
        """
        admitted = 0
        spool = os.path.join(self.root, SPOOL_DIR)
        for name in sorted(os.listdir(spool)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(spool, name)
            try:
                with open(path) as fh:
                    payload = json.load(fh)
                job_id = payload.get("job") or name[:-len(".json")]
                spec = JobSpec.from_dict(payload["spec"])
            except (OSError, json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                # Unparseable submission: dead-letter under the filename
                # so the client can observe the rejection.
                job_id = name[: -len(".json")]
                if job_id not in self.jobs:
                    self.store.append("submitted", job_id, spec={},
                                      hash=None, t=self.walltime())
                    self.store.append("dead", job_id,
                                      error=f"bad submission: {exc}",
                                      attempts=0, t=self.walltime())
                    self.jobs = self.store.recover()
                    self.c_submitted.inc()
                    self.c_dead.inc()
                os.unlink(path)
                continue
            if job_id not in self.jobs:
                self.submit(spec, job_id=job_id)
                admitted += 1
            os.unlink(path)
        return admitted

    # --- scheduling ---------------------------------------------------

    def tick(self):
        """One scheduler pass; returns True if anything changed."""
        changed = 0
        if not self.draining:
            changed += self.admit_spool()
        changed += self._reap()
        changed += self._launch()
        self._update_gauges()
        return changed > 0

    def _reap(self):
        """Collect finished workers; expire stale leases."""
        changed = 0
        for job_id in list(self._handles):
            handle = self._handles[job_id]
            outcome = handle.outcome()
            if outcome is not None:
                # Outcome is the worker's last act; let the process
                # finish exiting before accounting.
                handle.process.join()
                del self._handles[job_id]
                self._settle(job_id, handle, outcome)
                changed += 1
            elif not handle.alive():
                handle.process.join()
                del self._handles[job_id]
                self._fail(job_id, handle,
                           f"worker pid {handle.pid} died without an "
                           f"outcome (exit code "
                           f"{handle.process.exitcode})")
                changed += 1
            elif self._lease_age(handle) > self.lease_timeout:
                confirmed_kill(handle.process)
                del self._handles[job_id]
                self.c_expired.inc()
                self._fail(job_id, handle,
                           f"lease expired: no heartbeat for "
                           f"{self.lease_timeout:g}s (worker pid "
                           f"{handle.pid} killed)")
                changed += 1
        return changed

    def _lease_age(self, handle):
        """Seconds since the worker last proved liveness."""
        age = file_age(handle.hb_path, now=self.walltime())
        if age is None:
            # No heartbeat yet: count from lease start (covers workers
            # that wedge before opening their stream).
            age = self.walltime() - handle.started
        return age

    def _settle(self, job_id, handle, outcome):
        rec = self.jobs[job_id]
        if outcome.get("ok"):
            cached = bool(outcome.get("cached"))
            spec_hash = outcome.get("hash") or rec.hash
            if spec_hash and spec_hash not in self._indexed:
                self.cache.record(spec_hash, job_id=job_id,
                                  t=self.walltime())
                self._indexed.add(spec_hash)
            self._inflight.discard(spec_hash)
            self.store.append(
                "done", job_id, cached=cached,
                artifact=outcome.get("artifact"),
                wall_time=outcome.get("wall_time"), worker=handle.pid,
                t=self.walltime(),
            )
            rec.state = "done"
            rec.cached = cached
            rec.artifact = outcome.get("artifact")
            rec.wall_time = outcome.get("wall_time")
            rec.finished_t = self.walltime()
            self.c_done.inc()
            (self.c_hits if cached else self.c_misses).inc()
        else:
            self._fail(job_id, handle,
                       outcome.get("error") or "worker reported failure")

    def _fail(self, job_id, handle, error):
        """Retry with deterministic backoff, or dead-letter."""
        rec = self.jobs[job_id]
        self._inflight.discard(rec.hash)
        if rec.attempts >= 1 + self.max_retries:
            self.store.append("dead", job_id, error=error,
                              attempts=rec.attempts, t=self.walltime())
            rec.state = "dead"
            rec.error = error
            rec.finished_t = self.walltime()
            self.c_dead.inc()
            return
        delay = self.retry_policy.delay(rec.hash or job_id, rec.attempts)
        not_before = self.walltime() + delay
        self.store.append("retry", job_id, error=error, delay=delay,
                          not_before=not_before, t=self.walltime())
        rec.state = "retry"
        rec.error = error
        rec.not_before = not_before
        rec.retry_delays.append(delay)
        rec.worker = None
        self.c_retries.inc()

    def _effective_priority(self, rec, now):
        """Static priority plus queue-wait aging (fair share).

        Aging is computed from the durable ``submitted_t``, so it
        survives restarts and is identical after a journal replay.
        """
        if not self.priority_aging or rec.submitted_t is None:
            return float(rec.priority)
        waited = max(0.0, now - rec.submitted_t)
        return rec.priority + self.priority_aging * waited

    def _launch(self):
        """Lease eligible jobs onto free workers (cache hits are free)."""
        changed = 0
        now = self.walltime()
        eligible = sorted(
            (rec for rec in self.jobs.values()
             if rec.state in ("submitted", "retry")
             and rec.not_before <= now),
            key=lambda r: (-self._effective_priority(r, now),
                           r.submitted_t or 0.0, r.job_id),
        )
        for rec in eligible:
            if self.draining:
                break
            hit = self.cache.lookup(rec.hash) if rec.hash else None
            if hit is not None:
                # Result already computed (earlier job, or a previous
                # attempt that published and then died): no worker.
                self.store.append(
                    "done", rec.job_id, cached=True,
                    artifact=self.cache.relative_entry(rec.hash),
                    wall_time=0.0, t=now,
                )
                if rec.hash not in self._indexed:
                    self.cache.record(rec.hash, job_id=rec.job_id, t=now)
                    self._indexed.add(rec.hash)
                rec.state = "done"
                rec.cached = True
                rec.artifact = self.cache.relative_entry(rec.hash)
                rec.finished_t = now
                self.c_done.inc()
                self.c_hits.inc()
                changed += 1
                continue
            if len(self._handles) >= self.workers:
                break
            if rec.hash in self._inflight:
                # Single-flight: an identical spec is simulating right
                # now; this job stays queued and cache-hits when it
                # lands.
                continue
            attempt = rec.attempts + 1
            self.store.append("leased", rec.job_id, attempt=attempt,
                              t=now)
            rec.state = "leased"
            rec.attempts = attempt
            spec = JobSpec.from_dict(rec.spec)
            handle = start_worker(
                self.root, rec.job_id, attempt, spec, self.mp,
                heartbeat_every=self.heartbeat_every,
                spec_hash=rec.hash,
            )
            handle.started = now
            self._handles[rec.job_id] = handle
            if rec.hash:
                self._inflight.add(rec.hash)
            self.store.append("running", rec.job_id, worker=handle.pid,
                              t=now)
            rec.state = "running"
            rec.worker = handle.pid
            changed += 1
        return changed

    # --- drain / serve loop -------------------------------------------

    def request_drain(self):
        """Graceful shutdown: reject new work, let running jobs finish.

        The queue needs no explicit persistence — it already lives in
        the journal; a later server picks it up via :meth:`recover`.
        """
        self.draining = True

    def drained(self):
        return self.draining and not self._handles

    def finished(self):
        """Every known job is terminal and the spool is empty."""
        spool = os.path.join(self.root, SPOOL_DIR)
        if any(n.endswith(".json") for n in os.listdir(spool)):
            return False
        return all(rec.terminal for rec in self.jobs.values())

    def run(self, poll=0.05, once=False, max_seconds=None,
            install_signals=True, status_every=0.5):
        """Poll loop around :meth:`tick` until drained (or ``once``).

        ``once`` exits as soon as every known job is terminal and the
        spool is empty — the batch mode CI and tests use. SIGTERM and
        SIGINT request a graceful drain.
        """
        if install_signals:
            previous = {
                sig: signal.signal(sig, lambda *_: self.request_drain())
                for sig in (signal.SIGTERM, signal.SIGINT)
            }
        start = self.clock()
        last_status = -1.0
        try:
            while True:
                self.tick()
                now = self.clock()
                if now - last_status >= status_every:
                    self.write_status()
                    last_status = now
                if self.draining and not self._handles:
                    break
                if once and self.finished():
                    break
                if max_seconds is not None and now - start > max_seconds:
                    break
                # Wakes early when a worker exits, so a finished
                # worker frees its slot at once and the poll period only
                # bounds spool-admission and backoff latency
                # (benchmarks/test_serve_overhead.py gates the tax).
                wait_for_exit(
                    [h.process for h in self._handles.values()], poll)
        finally:
            self.write_status()
            if install_signals:
                for sig, handler in previous.items():
                    signal.signal(sig, handler)
        return self.status()

    # --- introspection ------------------------------------------------

    def status(self):
        """Queue/worker/cache snapshot (also persisted to status.json)."""
        now = self.walltime()
        by_state = {}
        retries = 0
        for rec in self.jobs.values():
            by_state[rec.state] = by_state.get(rec.state, 0) + 1
            retries += len(rec.retry_delays)
        hits = self.c_hits.value
        misses = self.c_misses.value
        lookups = hits + misses
        return {
            "pid": os.getpid(),
            "t": now,
            "uptime_sec": (now - self._started_at
                           if self._started_at else None),
            "draining": self.draining,
            "jobs": by_state,
            "queue_depth": sum(
                by_state.get(s, 0) for s in ACTIVE_STATES
            ) - by_state.get("running", 0) - by_state.get("leased", 0),
            "workers": [
                {
                    "job": h.job_id,
                    "pid": h.pid,
                    "attempt": h.attempt,
                    "lease_age_sec": self._lease_age(h),
                }
                for h in self._handles.values()
            ],
            "retries": retries,
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / lookups if lookups else None,
                "entries": len(self._indexed),
            },
        }

    def write_status(self):
        status = self.status()
        with atomic_write(os.path.join(self.root, STATUS)) as fh:
            json.dump(status, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return status

    def _update_gauges(self):
        self.g_workers.set(len(self._handles))
        self.g_queue.set(sum(
            1 for rec in self.jobs.values()
            if rec.state in ("submitted", "retry")
        ))
