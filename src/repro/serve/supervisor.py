"""Worker processes and their supervision primitives.

Each leased job runs in its own ``multiprocessing.Process`` executing
:func:`run_job_worker`. The worker communicates with the scheduler via
two files under ``<root>/hb/`` — there is no pipe or queue to lose when
either side is SIGKILLed:

- ``<job>.a<N>.hb.jsonl`` — a :class:`~repro.obs.telemetry.RunTelemetry`
  heartbeat stream (fsynced per record). Its mtime age is the lease
  liveness signal: a worker that stops touching it past the lease
  deadline is presumed wedged or dead and gets killed + re-queued.
- ``<job>.a<N>.out.json`` — the outcome, written atomically
  (``atomic_write``) as the worker's last act. Present and ``ok`` means
  the result is in the cache; present and not ``ok`` carries the
  failure diagnostic; absent after process exit means the worker died
  hard (SIGKILL, OOM) and the scheduler synthesises the diagnostic.

Both filenames carry the attempt number so a straggling old attempt
(e.g. an orphan from a previous server) can never be mistaken for — or
corrupt the signals of — the current one. Workers arm ``PR_SET_PDEATHSIG``
(Linux, best effort) so they die with the server instead of orphaning;
even without it, the worst an orphan can do is publish a correct result
into the content-addressed cache.
"""

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.proc import die_with_parent, read_outcome, write_outcome

HB_DIR = "hb"


def heartbeat_path(root, job_id, attempt):
    return os.path.join(root, HB_DIR, f"{job_id}.a{attempt}.hb.jsonl")


def outcome_path(root, job_id, attempt):
    return os.path.join(root, HB_DIR, f"{job_id}.a{attempt}.out.json")


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def _apply_chaos(chaos, attempt):
    """Pre-run fault hooks; returns the kill_at cycle (or None).

    ``sigkill_attempts=N`` makes attempts 1..N SIGKILL themselves
    before doing any work (hard worker death). ``sleep``/
    ``sleep_attempts`` wedge the worker before it heartbeats (lease
    expiry). ``kill_at``/``kill_attempts`` abort the simulation at a
    cycle via SimulationKilled (soft failure → retry path).
    """
    if attempt <= int(chaos.get("sigkill_attempts", 0)):
        os.kill(os.getpid(), signal.SIGKILL)
    if attempt <= int(chaos.get("sleep_attempts", 0)):
        time.sleep(float(chaos.get("sleep", 0.0)))
    if attempt <= int(chaos.get("kill_attempts", 0)):
        return chaos.get("kill_at")
    return None


def run_job_worker(root, job_id, attempt, spec_dict, heartbeat_every=1000,
                   hard_exit=False):
    """Process entry point: simulate one job and publish its result.

    Runs the spec's simulation, writes the artifact directory into the
    content-addressed cache (atomic publish; losing a publish race to a
    concurrent identical spec is a success), then drops the outcome
    file. Exceptions become a not-``ok`` outcome — the scheduler turns
    that into retry/dead-letter; a missing outcome means we died hard.

    ``hard_exit`` (set by :func:`start_worker`) ends the process with
    ``os._exit`` once the outcome is durably on disk: a forked worker
    has nothing of its own to finalize, and full interpreter teardown
    would walk the copy-on-write heap inherited from the server —
    measurable CPU stolen from sibling simulations on small hosts.
    """
    from repro.serve.spec import JobSpec

    die_with_parent()
    # The forked child inherits the server's signal handlers; restore
    # defaults so a drain-initiating SIGTERM to the server is not
    # misinterpreted inside workers.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)

    spec = JobSpec.from_dict(spec_dict)
    os.makedirs(os.path.join(root, HB_DIR), exist_ok=True)
    out_path = outcome_path(root, job_id, attempt)
    started = time.monotonic()
    try:
        _run_attempt(root, job_id, attempt, spec, out_path, started,
                     heartbeat_every)
    except Exception as exc:
        write_outcome(out_path, ok=False, error=_describe(exc),
                      wall_time=time.monotonic() - started)
    if hard_exit:
        os._exit(0)


def _run_attempt(root, job_id, attempt, spec, out_path, started,
                 heartbeat_every):
    from repro.checkpoint import lengths_from_spec
    from repro.network.config import NetworkConfig
    from repro.obs.artifacts import write_run_artifacts
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import RunTelemetry
    from repro.serve.cache import ResultCache
    from repro.sim.runner import run_simulation

    kill_at = _apply_chaos(spec.chaos, attempt)
    spec_hash = spec.spec_hash()
    cache = ResultCache(root)
    hit = cache.lookup(spec_hash)
    if hit is not None:
        write_outcome(out_path, ok=True, hash=spec_hash, cached=True,
                      artifact=cache.relative_entry(spec_hash),
                      wall_time=time.monotonic() - started)
        return
    config = NetworkConfig.from_dict(spec.config)
    telemetry = RunTelemetry(
        path=heartbeat_path(root, job_id, attempt),
        every=heartbeat_every,
        label=spec.label or job_id,
        rate=spec.rate,
    )
    watchdog = None
    if spec.watchdog_window is not None:
        from repro.faults.watchdog import HangWatchdog

        watchdog = HangWatchdog(window=spec.watchdog_window)
    registry = MetricsRegistry()
    result = run_simulation(
        config,
        pattern=spec.pattern,
        rate=spec.rate,
        lengths=lengths_from_spec(spec.lengths),
        warmup=spec.warmup,
        measure=spec.measure,
        drain=spec.drain,
        metrics=registry,
        telemetry=telemetry,
        watchdog=watchdog,
        kill_at=kill_at,
    )

    def build(staging):
        write_run_artifacts(
            staging, config, result, registry=registry,
            run_info={"kind": "serve", "hash": spec_hash,
                      **spec.run_spec()},
        )

    _, fresh = cache.publish(spec_hash, build)
    write_outcome(out_path, ok=True, hash=spec_hash, cached=not fresh,
                  artifact=cache.relative_entry(spec_hash),
                  wall_time=time.monotonic() - started)


# ---------------------------------------------------------------------------
# scheduler-side handles


@dataclass
class WorkerHandle:
    """Scheduler-side view of one in-flight attempt."""

    job_id: str
    attempt: int
    process: Any
    hb_path: str
    out_path: str
    #: Wall-clock lease start (time.time domain, matching heartbeat
    #: mtimes); grace before the first heartbeat counts from here.
    started: float = field(default_factory=time.time)
    spec_hash: Optional[str] = None

    @property
    def pid(self):
        return self.process.pid

    def alive(self):
        return self.process.is_alive()

    def outcome(self):
        return read_outcome(self.out_path)


def start_worker(root, job_id, attempt, spec, mp_context,
                 heartbeat_every=1000, spec_hash=None):
    """Fork one worker for an attempt; returns its WorkerHandle."""
    os.makedirs(os.path.join(root, HB_DIR), exist_ok=True)
    process = mp_context.Process(
        target=run_job_worker,
        args=(root, job_id, attempt, spec.to_dict()),
        kwargs={"heartbeat_every": heartbeat_every, "hard_exit": True},
        name=f"repro-serve-{job_id}-a{attempt}",
        daemon=True,
    )
    process.start()
    return WorkerHandle(
        job_id=job_id,
        attempt=attempt,
        process=process,
        hb_path=heartbeat_path(root, job_id, attempt),
        out_path=outcome_path(root, job_id, attempt),
        spec_hash=spec_hash,
    )
