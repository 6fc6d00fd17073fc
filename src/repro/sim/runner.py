"""Warmup / measurement / drain simulation driver.

The driver is resumable: a :class:`SimulationRun` tracks which phase it
is in (``init`` → ``main`` → ``drain`` → ``done``) and how many drain
cycles have run, so a run restored from a checkpoint continues exactly
where the snapshot was taken. ``run_simulation`` wires the checkpoint
machinery through: ``checkpoint_path``/``checkpoint_every`` write
periodic snapshots, ``resume_from`` restores one (refused on config
mismatch), and ``kill_at`` is the chaos switch that aborts the run at a
given cycle so tests and CI can prove kill/resume equivalence.
"""

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Optional

from repro.checkpoint import (
    Checkpointer,
    CheckpointError,
    SimulationKilled,
    canonical_run_spec,
    lengths_spec,
    load_checkpoint,
    restore_run,
    verify_resumable,
)
from repro.network.network import Network, build_network
from repro.stats.summary import summarize
from repro.traffic.injection import BernoulliInjector, FixedLength
from repro.traffic.patterns import build_pattern


@dataclass
class SimulationRun:
    """One simulation: a network, an injector and its phase schedule."""

    network: Network
    injector: BernoulliInjector
    warmup: int
    measure: int
    drain: int
    #: Optional MetricsRegistry to publish end-of-run metrics into.
    metrics: Optional[Any] = None
    #: Optional RunTelemetry emitting heartbeats (obs.telemetry).
    telemetry: Optional[Any] = None
    #: Optional DigestRecorder taking periodic state digests (obs.digest).
    digest: Optional[Any] = None
    #: Resumable progress: the current phase and drain cycles executed.
    #: Restored from checkpoints; do not touch mid-run.
    phase: str = "init"
    drain_cycles_done: int = 0

    def execute(self, checkpointer=None, kill_at=None):
        if self.telemetry is not None:
            self.telemetry.begin(
                total_cycles=self.warmup + self.measure + self.drain,
                profiler=self.network.profiler,
                start_cycle=self.network.cycle,
            )
        try:
            result = self._execute(checkpointer, kill_at)
        except BaseException as exc:
            if self.telemetry is not None:
                status = (
                    "killed" if isinstance(exc, SimulationKilled) else "failed"
                )
                self.telemetry.finish(status, cycle=self.network.cycle)
            raise
        if self.telemetry is not None:
            self.telemetry.finish(
                "done", cycle=self.network.cycle, result=result
            )
        return result

    def prepare(self):
        """One-time wiring before stepping: traces and the stats window.

        Idempotent and safe on resumed runs (the window is only set
        when entering from ``init``); called by :meth:`_execute` and by
        callers that drive :meth:`step_cycle` directly.
        """
        self.injector.trace = self.network.trace  # packet creation traces
        if self.phase == "init":
            self.network.stats.set_window(
                self.warmup, self.warmup + self.measure
            )
            self.phase = "main"

    def step_cycle(self, checkpointer=None, kill_at=None):
        """Advance the run by at most one simulated cycle.

        Returns True while the run has more cycles to execute, False
        once it reaches ``done`` — so ``while run.step_cycle(): pass``
        is exactly the phase schedule :meth:`_execute` runs, and a
        caller can stop a run at any cycle to inspect its state.
        """
        net, inj = self.network, self.injector
        if self.phase == "init":
            self.prepare()
        if self.phase == "main":
            if net.cycle >= self.warmup + self.measure:
                # Drain: stop injecting so in-flight measured packets can
                # finish and contribute latency samples. Throughput is
                # computed over the measurement window only, so unstable
                # (past-saturation) runs are measured correctly without a
                # full drain.
                inj.enabled = False
                self.phase = "drain"
            else:
                for packet in inj.generate(net.cycle):
                    net.inject(packet)
                net.step()
                self._after_cycle(checkpointer, kill_at)
                return True
        if self.phase == "drain":
            if self.drain_cycles_done >= self.drain or self._quiescent(net):
                self.phase = "done"
                return False
            net.step()
            self.drain_cycles_done += 1
            self._after_cycle(checkpointer, kill_at)
            return True
        return False

    def _execute(self, checkpointer=None, kill_at=None):
        net, inj = self.network, self.injector
        self.prepare()
        stats = net.stats
        while self.step_cycle(checkpointer, kill_at):
            pass
        if self.digest is not None:
            # Final digest (even off-stride) + fingerprint trailer, so
            # the stream always covers the end state of the run.
            self.digest.finish(net, inj)
        # Report whether the drain actually completed: a False here on a
        # drain-requested run means the drain budget expired with flits
        # still in flight (expect censored latency samples).
        drained = self._quiescent(net) if self.drain > 0 else None
        warnings = None
        if drained is False:
            # Structured warning instead of silently returning partial
            # latency stats: a trace event plus a SimResult flag.
            warnings = ["drain_aborted"]
            tr = net.trace
            if tr.active:
                tr.emit(
                    "drain_aborted", net.cycle,
                    in_flight=net.in_flight_flits(), backlog=net.backlog(),
                    drain_cycles=self.drain_cycles_done,
                )
        timing = None
        if net.profiler is not None:
            net.profiler.finish()
            timing = {
                "cycles_per_sec": net.profiler.cycles_per_sec(),
                "phase_seconds": net.profiler.phase_totals(),
                "epoch_cycles": net.profiler.epoch_cycles,
                "epochs": len(net.profiler.epochs),
            }
        if self.metrics is not None:
            net.publish_metrics(self.metrics)
        return summarize(
            stats, inj.rate, net.chain_stats(), net.cycle,
            drained=drained, drain_cycles=self.drain_cycles_done,
            timing=timing, faults=self._fault_summary(net),
            warnings=warnings,
        )

    def _after_cycle(self, checkpointer, kill_at):
        """Post-cycle hooks: periodic checkpoints, then the chaos switch.

        Checkpoints are taken *between* cycles (``net.cycle`` already
        advanced), so a resumed run re-executes exactly the cycles the
        killed run lost.
        """
        if self.telemetry is not None:
            self.telemetry.on_cycle(self.network.cycle, self.phase)
        if self.digest is not None:
            self.digest.on_cycle(self.network, self.injector, self.network.cycle)
        if checkpointer is not None:
            checkpointer.maybe_save(self)
        if kill_at is not None and self.network.cycle >= kill_at:
            raise SimulationKilled(self.network.cycle)

    @staticmethod
    def _quiescent(net):
        """Nothing left to simulate during drain.

        With a reliable transport attached, queued retransmissions and
        unacknowledged packets keep the drain alive past the moment the
        network itself momentarily empties.
        """
        if net.in_flight_flits() != 0:
            return False
        if net.transport is not None:
            return net.transport.idle() and net.backlog() == 0
        return True

    @staticmethod
    def _fault_summary(net):
        parts = {}
        if net.faults is not None:
            parts["injection"] = net.faults.summary()
        if net.transport is not None:
            parts["transport"] = net.transport.summary()
        if net.invariants is not None:
            parts["invariants"] = net.invariants.summary()
        if net.watchdog is not None:
            parts["watchdog"] = net.watchdog.summary()
        return parts or None


def run_simulation(
    config,
    pattern="uniform",
    rate=0.2,
    packet_length=1,
    lengths=None,
    warmup=1000,
    measure=3000,
    drain=2000,
    seed=None,
    trace=None,
    profiler=None,
    metrics=None,
    sampler=None,
    telemetry=None,
    faults=None,
    transport=None,
    invariants=None,
    watchdog=None,
    checkpoint_path=None,
    checkpoint_every=None,
    resume_from=None,
    kill_at=None,
    digest=None,
):
    """Build and execute one simulation; returns a :class:`SimResult`.

    ``lengths`` may be any PacketLengthDistribution; ``packet_length``
    is a convenience for fixed lengths. ``rate`` is in flits per
    terminal per cycle (the paper's unit). ``config`` is never mutated:
    a ``seed`` override is applied to a copy.

    Observability (all optional, all zero-overhead when omitted):
    ``trace`` is a :class:`~repro.obs.trace.TraceBus` to emit events
    into, ``profiler`` a :class:`~repro.obs.profiler.PhaseProfiler` to
    attach (its summary lands in ``SimResult.timing``), ``metrics``
    a :class:`~repro.obs.metrics.MetricsRegistry` the finished run
    publishes into, ``sampler`` a
    :class:`~repro.obs.sampler.NetworkSampler` snapshotting network
    state every N cycles, and ``telemetry`` a
    :class:`~repro.obs.telemetry.RunTelemetry` emitting host-side
    progress heartbeats (cycles/sec, ETA, RSS) while the run executes.

    Robustness (repro.faults; likewise optional and free when omitted):
    ``faults`` is a :class:`~repro.faults.plan.FaultPlan` or a
    :class:`~repro.faults.controller.FaultController` to inject,
    ``transport`` a :class:`~repro.faults.reliability.ReliableTransport`
    for end-to-end delivery, ``invariants`` an
    :class:`~repro.faults.invariants.InvariantChecker`, and
    ``watchdog`` a :class:`~repro.faults.watchdog.HangWatchdog`. Their
    summaries land in ``SimResult.faults``.

    Checkpoint/restore (repro.checkpoint): ``checkpoint_path`` writes a
    snapshot every ``checkpoint_every`` cycles (default 1000; ``.gz``
    paths compress); ``resume_from`` restores a checkpoint file (or an
    already-loaded payload dict) and continues — ``config`` and the
    run arguments must describe the same experiment as the killed run,
    enforced via the embedded config hash. ``kill_at`` aborts the run
    by raising :class:`~repro.checkpoint.SimulationKilled` once the
    given cycle completes (chaos testing). Checkpointing is refused
    when ``faults`` or ``transport`` are attached (their state is not
    snapshotable).

    State digests (repro.obs.digest): ``digest`` attaches a
    :class:`~repro.obs.digest.DigestRecorder`. The finished run's
    whole-run fingerprint is the recorder's ``fingerprint``.
    """
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    dist = lengths if lengths is not None else FixedLength(packet_length)
    checkpointing = checkpoint_path is not None or resume_from is not None
    run_spec = None
    if checkpointing:
        if faults is not None or transport is not None:
            raise CheckpointError(
                "checkpoint/resume does not support fault injection or a "
                "reliable transport (their state is not snapshotable)"
            )
        run_spec = canonical_run_spec(pattern, rate, dist, warmup, measure,
                                      drain)
    if digest is not None:
        # Header is informational (identifies the experiment a stream
        # belongs to); lengths outside the checkpointable set are
        # recorded as None rather than refused.
        try:
            header_lengths = lengths_spec(dist)
        except CheckpointError:
            header_lengths = None
        digest.write_header(config, run_spec or {
            "pattern": pattern,
            "rate": rate,
            "lengths": header_lengths,
            "warmup": warmup,
            "measure": measure,
            "drain": drain,
        })
    net = build_network(config, trace=trace)
    if profiler is not None:
        net.attach_profiler(profiler)
    if sampler is not None:
        net.attach_sampler(sampler)
    if faults is not None:
        from repro.faults import FaultController, FaultPlan

        if isinstance(faults, FaultPlan):
            faults = FaultController(faults)
        net.attach_faults(faults)
    if transport is not None:
        net.attach_transport(transport)
    if invariants is not None:
        net.attach_invariants(invariants)
    if watchdog is not None:
        net.attach_watchdog(watchdog)
    traffic_rng = random.Random(config.seed + 0x5EED)
    pat = build_pattern(pattern, net.num_terminals, traffic_rng)
    injector = BernoulliInjector(net.num_terminals, pat, rate, dist, traffic_rng)
    run = SimulationRun(net, injector, warmup, measure, drain,
                        metrics=metrics, telemetry=telemetry,
                        digest=digest)
    if resume_from is not None:
        payload = (
            resume_from
            if isinstance(resume_from, dict)
            else load_checkpoint(resume_from)
        )
        verify_resumable(payload, config, run_spec)
        restore_run(run, payload)
    checkpointer = None
    if checkpoint_path is not None:
        checkpointer = Checkpointer(
            checkpoint_path, checkpoint_every, config, run_spec
        )
    return run.execute(checkpointer=checkpointer, kill_at=kill_at)

