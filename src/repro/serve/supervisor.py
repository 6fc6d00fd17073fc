"""The serve attempt: what one leased job runs in its worker process.

Each leased job runs as one supervised attempt of :mod:`repro.proc`
(:func:`~repro.proc.spawn_attempt` in the service,
:func:`~repro.proc.run_attempt` here), named by its job id: its
heartbeat and outcome files are ``<root>/hb/<job>.a<N>.hb.json`` and
``<job>.a<N>.out.json``. The simulation beats through a run probe due
every cycle, throttled on wall time, so a job slower than any fixed
number of cycles per lease still holds its lease. Present and ``ok``,
the outcome means the result is in the content-addressed cache; even
an orphaned worker can at worst publish a correct result there.
"""

import os
import signal
import time

from repro.proc import run_attempt, write_outcome


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


class _LeaseBeats:
    """A run probe (``repro.sim.runner.Probe``) due every cycle: each
    cycle offers one lease beat, and the heartbeat's wall-time throttle
    decides which reach the disk."""

    def __init__(self, heartbeat):
        self.heartbeat = heartbeat

    def start(self, run):
        self.heartbeat.beat(state="running")
        self.due = run.network.cycle + 1

    def on_cycle(self, run):
        cycle = run.network.cycle
        self.due = cycle + 1
        self.heartbeat.beat(cycle=cycle, phase=run.phase)

    def finish(self, run, status, result):
        # Forced: the artifact write and cache publish that follow start
        # on a fresh lease.
        self.heartbeat.beat(force=True, state=status,
                            cycle=run.network.cycle)


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
    from repro.checkpoint import lengths_from_spec
    from repro.network.config import NetworkConfig
    from repro.obs.artifacts import write_run_artifacts
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.cache import ResultCache
    from repro.serve.spec import JobSpec
    from repro.sim.runner import KillAt, run_simulation

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
    config = NetworkConfig.from_dict(spec.config)
    probes = []
    if spec.watchdog_window is not None:
        from repro.faults.watchdog import HangWatchdog

        probes.append(HangWatchdog(window=spec.watchdog_window))
    probes.append(_LeaseBeats(heartbeat))
    if kill_at is not None:
        probes.append(KillAt(kill_at))
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
        probes=probes,
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
