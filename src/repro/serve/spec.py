"""Job specifications: the one description of a run.

A :class:`JobSpec` is one simulation: a full ``NetworkConfig`` dict, the
run spec (pattern, rate, length distribution, phase schedule), the
fault plan, reliable transport, invariant mode and hang-watchdog window
it runs with, and the execution knobs. ``repro run``, ``sweep``,
``shard`` and ``serve --submit-sweep`` build one from their flags; a
serve attempt and ``repro run`` both run it with :meth:`JobSpec.simulate`;
and an artifact manifest records it, so ``repro serve ROOT --submit
DIR/manifest.json`` re-runs a run directory.

:meth:`JobSpec.spec_hash` is the content address the result cache
dedups on. It hashes every field that reaches the result, each one
that is unset leaving the hash as it was before the field existed:
the config, the canonical run spec (``faults`` and ``transport``
join it when set) and ``invariants``/``watchdog_window`` when set. So
it equals the ``config_hash`` a checkpoint of the same experiment would
carry whenever those last two are unset. ``priority``, ``label`` and
``chaos`` steer *how* the job is executed, never *what* it computes:
two specs that differ only in those share one cache entry. ``chaos`` is
the test/ops fault hook (worker self-SIGKILL, wedge sleeps, mid-run
kills) used by the crash-tolerance suite; production submissions leave
it empty.
"""

import dataclasses
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.checkpoint import canonical_run_spec, config_hash
from repro.network.config import NetworkConfig


def new_job_id():
    """A fresh collision-resistant job identifier."""
    return "j" + uuid.uuid4().hex[:12]


@dataclass
class JobSpec:
    """One run: the experiment (hashed) plus execution knobs."""

    #: ``NetworkConfig.to_dict()`` payload.
    config: Dict[str, Any]
    pattern: str = "uniform"
    rate: float = 0.2
    #: Packet-length distribution spec (``checkpoint.lengths_spec``).
    lengths: Dict[str, Any] = field(
        default_factory=lambda: {"kind": "fixed", "length": 1}
    )
    warmup: int = 1000
    measure: int = 3000
    drain: int = 2000
    #: ``FaultPlan.to_dict()`` of the faults to inject.
    faults: Optional[Dict[str, Any]] = None
    #: ``ReliableTransport`` keywords (``timeout``, ``max_retries``).
    transport: Optional[Dict[str, Any]] = None
    #: ``InvariantChecker`` mode (``strict`` or ``report``).
    invariants: Optional[str] = None
    #: Strict HangWatchdog window (cycles).
    watchdog_window: Optional[int] = None
    # --- execution knobs (excluded from the hash) ---
    priority: int = 0
    label: str = ""
    #: Deterministic fault hooks for crash-tolerance tests:
    #: ``sigkill_attempts`` (self-SIGKILL at start of attempts <= N),
    #: ``kill_at`` + ``kill_attempts`` (SimulationKilled at a cycle),
    #: ``sleep`` + ``sleep_attempts`` (wedge before heartbeating).
    chaos: Dict[str, Any] = field(default_factory=dict)

    def spec_hash(self):
        """Content address of this experiment (see the module docstring).

        Raises ``ValueError`` on an invalid config — callers admitting
        untrusted specs dead-letter on that instead of crashing.
        """
        run = canonical_run_spec(
            self.pattern, self.rate, dict(self.lengths), self.warmup,
            self.measure, self.drain, self.faults, self.transport,
        )
        for key in ("invariants", "watchdog_window"):
            if getattr(self, key) is not None:
                run[key] = getattr(self, key)
        return config_hash(NetworkConfig.from_dict(self.config), run)

    def run_args(self):
        """``(NetworkConfig, run keywords)`` as ``run_simulation``,
        ``shard_run`` and ``single_process_run`` take the experiment
        (the faults, transport, invariants and watchdog aside)."""
        return NetworkConfig.from_dict(self.config), dict(
            pattern=self.pattern, rate=self.rate, lengths=dict(self.lengths),
            warmup=self.warmup, measure=self.measure, drain=self.drain,
        )

    def simulate(self, probes=(), watchdog_dump=None, **observers):
        """Run this spec; returns its SimResult.

        ``run_simulation`` of :meth:`run_args` with the spec's fault
        plan, transport, invariant checker and hang watchdog (dumping
        to ``watchdog_dump`` on a hang) attached. ``probes`` fire after
        the watchdog; ``observers`` are ``run_simulation``'s ``trace``,
        ``profiler``, ``metrics`` and ``resume_from``.
        """
        from repro.faults import (
            FaultPlan, HangWatchdog, InvariantChecker, ReliableTransport,
        )
        from repro.sim.runner import run_simulation

        if self.watchdog_window is not None:
            probes = [HangWatchdog(window=self.watchdog_window,
                                   dump_path=watchdog_dump), *probes]
        if self.faults is not None:
            observers["faults"] = FaultPlan.from_dict(self.faults)
        if self.transport is not None:
            observers["transport"] = ReliableTransport(**self.transport)
        if self.invariants is not None:
            observers["invariants"] = InvariantChecker(mode=self.invariants)
        config, run = self.run_args()
        return run_simulation(config, probes=probes, **run, **observers)

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown job spec keys: {sorted(unknown)}")
        if "config" not in data:
            raise ValueError("job spec needs a 'config' dict")
        return cls(**data)


def spec_for(config, pattern="uniform", rate=0.2, lengths=None,
             warmup=1000, measure=3000, drain=2000, **knobs):
    """Build a JobSpec from a ``NetworkConfig`` (or its dict).

    ``lengths`` may be a distribution object, a spec dict, or None
    (single-flit). Extra keyword arguments are the other JobSpec fields
    (``faults``, ``transport``, ``invariants``, ``watchdog_window``,
    ``priority``, ``label``, ``chaos``).
    """
    from repro.checkpoint import lengths_spec

    if isinstance(config, NetworkConfig):
        config = config.to_dict()
    if lengths is None:
        lengths = {"kind": "fixed", "length": 1}
    elif not isinstance(lengths, dict):
        lengths = lengths_spec(lengths)
    return JobSpec(config=dict(config), pattern=pattern, rate=rate,
                   lengths=dict(lengths), warmup=warmup, measure=measure,
                   drain=drain, **knobs)
