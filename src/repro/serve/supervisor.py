"""The serve attempt: what one leased job runs in its worker process.

Each leased job runs as one supervised attempt of :mod:`repro.proc`
(:func:`~repro.proc.spawn_attempt` in the service,
:func:`~repro.proc.run_attempt` here), named by its job id: its
heartbeat and outcome files are ``<root>/hb/<job>.a<N>.hb.json`` and
``<job>.a<N>.out.json``. The simulation beats through
:class:`~repro.proc.BeatProbe`, due every cycle and throttled on wall
time, so a job slower than any fixed number of cycles per lease still
holds its lease. Present and ``ok``, the outcome means the result is in
the content-addressed cache; even an orphaned worker can at worst
publish a correct result there.
"""

import os
import signal
import time

from repro.proc import BeatProbe, run_attempt, write_outcome


def _apply_chaos(chaos, attempt):
    """Pre-run fault hooks; returns the kill_at cycle (or None).

    ``sigkill_attempts=N`` makes attempts 1..N SIGKILL themselves
    before doing any work (hard worker death). ``sleep``/
    ``sleep_attempts`` wedge the worker before its simulation beats
    (lease expiry). ``kill_at``/``kill_attempts`` abort the simulation
    at a cycle via SimulationKilled (soft failure → retry path).
    """
    if attempt <= int(chaos.get("sigkill_attempts", 0)):
        os.kill(os.getpid(), signal.SIGKILL)
    if attempt <= int(chaos.get("sleep_attempts", 0)):
        time.sleep(float(chaos.get("sleep", 0.0)))
    if attempt <= int(chaos.get("kill_attempts", 0)):
        return chaos.get("kill_at")
    return None


def run_job_worker(root, job_id, attempt, spec_dict, hard_exit=False):
    """Process entry point: simulate one job and publish its result.

    Runs the spec's simulation, writes the artifact directory into the
    content-addressed cache (atomic publish; losing a publish race to a
    concurrent identical spec is a success), then drops the outcome
    file. An exception becomes a not-``ok`` outcome, which the service
    turns into retry/dead-letter; a missing outcome means the worker
    died hard. The service forks it with ``hard_exit=True``.
    """
    def body(heartbeat, out_path):
        _run_attempt(root, attempt, spec_dict, heartbeat, out_path)

    run_attempt(root, job_id, attempt, body, hard_exit=hard_exit)


def _run_attempt(root, attempt, spec_dict, heartbeat, out_path):
    from repro.obs.artifacts import write_run_artifacts
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.cache import ResultCache
    from repro.serve.spec import JobSpec
    from repro.sim.runner import KillAt

    started = time.monotonic()
    spec = JobSpec.from_dict(spec_dict)
    kill_at = _apply_chaos(spec.chaos, attempt)
    spec_hash = spec.spec_hash()
    cache = ResultCache(root)
    hit = cache.lookup(spec_hash)
    if hit is not None:
        write_outcome(out_path, ok=True, hash=spec_hash, cached=True,
                      artifact=cache.relative_entry(spec_hash),
                      wall_time=time.monotonic() - started)
        return
    probes = [BeatProbe(heartbeat)]
    if kill_at is not None:
        probes.append(KillAt(kill_at))
    registry = MetricsRegistry()
    result = spec.simulate(probes=probes, metrics=registry)

    def build(staging):
        write_run_artifacts(staging, spec, result, registry=registry,
                            spec_hash=spec_hash)

    _, fresh = cache.publish(spec_hash, build)
    write_outcome(out_path, ok=True, hash=spec_hash, cached=not fresh,
                  artifact=cache.relative_entry(spec_hash),
                  wall_time=time.monotonic() - started)
