"""Warmup / measurement / drain simulation driver.

The driver is resumable: a :class:`SimulationRun` tracks which phase it
is in (``init`` → ``main`` → ``drain`` → ``done``) and how many drain
cycles have run, so a run restored from a checkpoint continues exactly
where the snapshot was taken. ``run_simulation(resume_from=...)``
restores one (refused on config mismatch).

Everything that watches the run between cycles is a *probe* (see
:class:`Probe`): the network sampler, the hang watchdog, heartbeat
telemetry, state digests, periodic checkpoints
(:class:`~repro.checkpoint.Checkpointer`) and the chaos kill switch
(:class:`KillAt`). The run keeps the earliest cycle any probe is due
at, so a cycle with no probe due pays one compare.
"""

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.checkpoint import (
    CheckpointError,
    SimulationKilled,
    canonical_run_spec,
    lengths_spec,
    load_checkpoint,
    refuse_unsnapshotable,
    restore_run,
    verify_resumable,
)
from repro.network.network import Network, build_network
from repro.stats.summary import summarize
from repro.traffic.injection import BernoulliInjector, FixedLength
from repro.traffic.patterns import build_pattern


class Probe:
    """A between-cycles observer of a :class:`SimulationRun` (no-op base).

    Any object with these members is a probe. ``due`` is the first
    post-step ``network.cycle`` at which the run calls :meth:`on_cycle`,
    which sets the next ``due`` (``math.inf`` disarms); :meth:`start`
    runs once, after any restore, and sets the first. :meth:`finish`
    gets ``done`` and the SimResult, or ``killed``/``failed`` and None.
    """

    due = math.inf

    def start(self, run):
        pass

    def on_cycle(self, run):
        pass

    def finish(self, run, status, result):
        pass


class KillAt(Probe):
    """The chaos kill switch: raises
    :class:`~repro.checkpoint.SimulationKilled` once cycle ``cycle`` has
    completed (on a run resumed past it, after its first cycle)."""

    def __init__(self, cycle):
        self.due = cycle

    def on_cycle(self, run):
        raise SimulationKilled(run.network.cycle)


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
    #: Probes fired between cycles (see :class:`Probe`), in firing order.
    probes: list = field(default_factory=list)
    #: The run spec (pattern, rate, lengths, phases) checkpoints and
    #: digest headers record; set by ``run_simulation``.
    spec: Optional[dict] = None
    #: Resumable progress: the current phase and drain cycles executed.
    #: Restored from checkpoints; do not touch mid-run.
    phase: str = "init"
    drain_cycles_done: int = 0
    #: Earliest ``due`` over the probes (``inf`` until they start).
    _next_due: float = field(default=math.inf, init=False, repr=False)

    def execute(self):
        try:
            for probe in self.probes:
                probe.start(self)
            self._next_due = min((p.due for p in self.probes),
                                 default=math.inf)
            result = self._execute()
        except BaseException as exc:
            killed = isinstance(exc, SimulationKilled)
            for probe in self.probes:
                probe.finish(self, "killed" if killed else "failed", None)
            raise
        for probe in self.probes:
            probe.finish(self, "done", result)
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

    def step_cycle(self):
        """Advance the run by at most one simulated cycle.

        Returns True while the run has more cycles to execute, False
        once it reaches ``done`` — so ``while run.step_cycle(): pass``
        is exactly the phase schedule :meth:`_execute` runs, and a
        caller can stop a run at any cycle to inspect its state.
        Probes fire only once :meth:`execute` has started them.
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
                if net.cycle >= self._next_due:
                    self._fire_probes()
                return True
        if self.phase == "drain":
            if self.drain_cycles_done >= self.drain or self._quiescent(net):
                self.phase = "done"
                return False
            net.step()
            self.drain_cycles_done += 1
            if net.cycle >= self._next_due:
                self._fire_probes()
            return True
        return False

    def _fire_probes(self):
        """Run the due probes in list order, after ``net.cycle`` advanced
        (so a resumed run re-executes exactly the cycles a kill lost)."""
        cycle = self.network.cycle
        for probe in self.probes:
            if probe.due <= cycle:
                probe.on_cycle(self)
        self._next_due = min(p.due for p in self.probes)

    def _execute(self):
        net, inj = self.network, self.injector
        self.prepare()
        stats = net.stats
        while self.step_cycle():
            pass
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
            timing=timing, faults=self._fault_summary(),
            warnings=warnings,
        )

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

    def _fault_summary(self):
        from repro.faults.watchdog import HangWatchdog

        net = self.network
        parts = {}
        if net.faults is not None:
            parts["injection"] = net.faults.summary()
        if net.transport is not None:
            parts["transport"] = net.transport.summary()
        if net.invariants is not None:
            parts["invariants"] = net.invariants.summary()
        for probe in self.probes:
            if isinstance(probe, HangWatchdog):
                parts["watchdog"] = probe.summary()
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
    faults=None,
    transport=None,
    invariants=None,
    resume_from=None,
    probes=(),
):
    """Build and execute one simulation; returns a :class:`SimResult`.

    ``lengths`` may be any PacketLengthDistribution; ``packet_length``
    is a convenience for fixed lengths. ``rate`` is in flits per
    terminal per cycle (the paper's unit). ``config`` is never mutated:
    a ``seed`` override is applied to a copy.

    Observability (all optional, all zero-overhead when omitted):
    ``trace`` is a :class:`~repro.obs.trace.TraceBus` to emit events
    into, ``profiler`` a :class:`~repro.obs.profiler.PhaseProfiler` to
    attach (its summary lands in ``SimResult.timing``) and ``metrics``
    a :class:`~repro.obs.metrics.MetricsRegistry` the finished run
    publishes into.

    Robustness (repro.faults; likewise optional and free when omitted):
    ``faults`` is a :class:`~repro.faults.plan.FaultPlan` or a
    :class:`~repro.faults.controller.FaultController` to inject,
    ``transport`` a :class:`~repro.faults.reliability.ReliableTransport`
    for end-to-end delivery and ``invariants`` an
    :class:`~repro.faults.invariants.InvariantChecker`. Their summaries
    land in ``SimResult.faults``.

    ``probes`` (see :class:`Probe`) fire in list order; the CLI's is a
    :class:`~repro.obs.sampler.NetworkSampler`, a
    :class:`~repro.faults.watchdog.HangWatchdog` (its summary lands in
    ``SimResult.faults``), a :class:`~repro.obs.telemetry.RunTelemetry`,
    a :class:`~repro.obs.digest.DigestRecorder`, a
    :class:`~repro.checkpoint.Checkpointer` and a :class:`KillAt`.

    ``resume_from`` restores a checkpoint file (or an already-loaded
    payload dict) and continues — ``config`` and the run arguments
    must describe the same experiment as the killed run, enforced via
    the embedded config hash. Checkpoints and resumes are refused when
    ``faults`` or ``transport`` are attached (their state is not
    snapshotable).
    """
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    dist = lengths if lengths is not None else FixedLength(packet_length)
    if resume_from is not None:
        refuse_unsnapshotable(faults, transport)
    try:
        spec_lengths = lengths_spec(dist)
    except CheckpointError:  # no JSON spec: a Checkpointer refuses it
        spec_lengths = None
    spec = canonical_run_spec(pattern, rate, spec_lengths, warmup, measure,
                              drain)
    net = build_network(config, trace=trace)
    if profiler is not None:
        net.attach_profiler(profiler)
    if faults is not None:
        from repro.faults import FaultController, FaultPlan

        if isinstance(faults, FaultPlan):
            faults = FaultController(faults)
        net.attach_faults(faults)
    if transport is not None:
        net.attach_transport(transport)
    traffic_rng = random.Random(config.seed + 0x5EED)
    pat = build_pattern(pattern, net.num_terminals, traffic_rng)
    injector = BernoulliInjector(net.num_terminals, pat, rate, dist, traffic_rng)
    run = SimulationRun(net, injector, warmup, measure, drain,
                        metrics=metrics, probes=list(probes), spec=spec)
    if resume_from is not None:
        payload = (
            resume_from
            if isinstance(resume_from, dict)
            else load_checkpoint(resume_from)
        )
        verify_resumable(payload, config, spec)
        restore_run(run, payload)
    if invariants is not None:
        # After the restore: the checker holds the credit lists that
        # load_state replaces.
        net.attach_invariants(invariants)
    return run.execute()
