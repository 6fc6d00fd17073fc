"""The ledger's five workloads: generated inputs, one timed unit, oracle.

Every workload is a closed-loop batch job: a *unit* is a fixed amount
of simulated work, and the next unit starts when the previous one
ends. ``inputs(seed, scale)`` generates everything the program sees
(configs carrying the seed, run parameters, the fault plan);
``run_unit`` executes one unit through the public API and returns what
it simulated; ``oracle`` is the untimed correctness run some workloads
need. The harness (run.py) does the timing, from outside.

Cycle counts are the ISSUE's, shrunk uniformly so that at least three
units fit in the contract's 15 s measuring window on the 2-core
reference host (each unit is 2-5 s there).
"""

import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import tempfile
import time

from repro import NetworkConfig, run_simulation, shard_run
from repro.faults import (
    FaultPlan,
    FlitErrors,
    InvariantChecker,
    LinkFault,
    ReliableTransport,
)
from repro.network.network import build_network
from repro.parallel import single_process_run
from repro.sim.parallel import parallel_matrix
from repro.traffic.injection import (
    BernoulliInjector,
    BimodalLength,
    FixedLength,
)
from repro.traffic.patterns import build_pattern

#: Worker processes of the two multi-process workloads (nproc = 2 on
#: the reference host).
WORKERS = 2

#: Simulated fields hashed into a workload's fingerprint, per run. A
#: named list rather than ``SimResult.to_dict()``, so a result field
#: added later does not invalidate the goldens.
FINGERPRINT_FIELDS = (
    "avg_throughput", "min_throughput", "latency_count", "latency_mean",
    "latency_p99", "cycles_run", "chains_same_vc", "chains_same_input",
    "chains_other_input", "chain_conflicts", "chain_speculation_failures",
    "dropped_flits", "corrupted_flits", "killed_packets", "detours",
    "tracked", "delivered", "duplicates", "retransmissions",
    "transport_failed", "digest_root",
)


def sim_record(result, label="", digest_root=None):
    """The fingerprinted simulated fields of one finished simulation."""
    chains = result.chain_stats
    faults = result.faults or {}
    injection = faults.get("injection", {})
    transport = faults.get("transport", {})
    return {
        "label": label,
        "avg_throughput": result.avg_throughput,
        "min_throughput": result.min_throughput,
        "latency_count": result.packet_latency.count,
        "latency_mean": result.packet_latency.mean,
        "latency_p99": result.packet_latency.p99,
        "cycles_run": result.cycles_run,
        "chains_same_vc": chains.same_input_same_vc,
        "chains_same_input": chains.same_input_other_vc,
        "chains_other_input": chains.other_input,
        "chain_conflicts": chains.conflicts,
        "chain_speculation_failures": chains.speculation_failures,
        "dropped_flits": injection.get("dropped_flits"),
        "corrupted_flits": injection.get("corrupted_flits"),
        "killed_packets": injection.get("killed_packets"),
        "detours": injection.get("detours"),
        "tracked": transport.get("tracked"),
        "delivered": transport.get("delivered"),
        "duplicates": transport.get("duplicates"),
        "retransmissions": transport.get("retransmissions"),
        "transport_failed": transport.get("failed"),
        "digest_root": digest_root,
    }


def fingerprint(records):
    """SHA-256 over the records' canonical JSON (floats by ``repr``)."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class UnitOutcome:
    """What one unit simulated (the harness adds the wall time)."""

    cycles: int  # simulated cycles, each simulated network counted once
    records: list  # sim_record() per simulation of the unit
    ops: int  # simulations attempted
    failures: list  # one line per failed op
    raw: dict = dataclasses.field(default_factory=dict)  # layer inputs

    @property
    def sim_throughput(self):
        return _mean([r["avg_throughput"] for r in self.records])

    @property
    def sim_latency_cycles(self):
        return _mean([r["latency_mean"] for r in self.records])


#: Upper limit of units in one pass (tiny self-test units are fast).
MAX_UNITS = 64


def timed_units(run_unit, seconds, min_units):
    """Back-to-back units until ``seconds`` are spent (closed loop).

    At least ``min_units`` run; after that a unit only starts if the
    median unit still fits in the window, so the pass ends on time.
    """
    units = []
    deadline = time.perf_counter() + seconds
    while len(units) < MAX_UNITS:
        if len(units) >= min_units:
            typical = statistics.median(wall for wall, _ in units)
            if time.perf_counter() + typical > deadline:
                break
        start = time.perf_counter()
        outcome = run_unit()
        units.append((time.perf_counter() - start, outcome))
    return units


def collect_failures(units):
    """(ops, failure lines) over the units, plus a determinism check:
    every unit simulates the same inputs, so the records must repeat."""
    ops = sum(outcome.ops for _, outcome in units)
    failures = [line for _, outcome in units for line in outcome.failures]
    first = units[0][1].records
    for index, (_, outcome) in enumerate(units[1:], start=2):
        if outcome.records != first:
            failures.append(f"unit {index} simulated different results "
                            f"than unit 1 from identical inputs")
    return ops, failures


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


def scaled(cycles, scale):
    return max(2, int(round(cycles * scale)))


def make_config(seed, fast, **fields):
    """A NetworkConfig for a workload marked *fast* or not.

    Keys on the dataclass field, never on a workload name: once the
    ``backend`` field is gone (one core instead of two) nothing is
    passed.
    """
    if fast and any(
        f.name == "backend" for f in dataclasses.fields(NetworkConfig)
    ):
        fields["backend"] = "fast"
    return NetworkConfig(seed=seed, **fields)


def lengths_of(spec):
    if spec[0] == "bimodal":
        return BimodalLength(spec[1], spec[2])
    return FixedLength(spec[1])


def construct(config, run):
    """The set-up a unit pays before its first cycle (for ``setup_s``)."""
    net = build_network(config)
    rng = random.Random(config.seed + 0x5EED)
    pattern = build_pattern("uniform", net.num_terminals, rng)
    injector = BernoulliInjector(
        net.num_terminals, pattern, run["rate"], lengths_of(run["lengths"]),
        rng,
    )
    return net, injector


class Workload:
    """Common shape; subclasses are the three kinds of unit."""

    name = ""
    fast = False
    #: True when the traced pass can wrap live instances (one process).
    single_process = False

    def inputs(self, seed, scale=1.0):
        raise NotImplementedError

    def describe(self, inputs):
        """JSON-able form of the generated inputs."""
        out = dict(inputs)
        out["configs"] = {
            label: cfg.to_dict() for label, cfg in inputs["configs"].items()
        }
        return out

    def construct(self, inputs):
        return [construct(cfg, inputs["run"])
                for cfg in inputs["configs"].values()]

    def run_unit(self, inputs, workdir, metrics=None):
        """One unit; ``metrics`` is an optional MetricsRegistry the
        finished simulation publishes into (ignored by the sweep, whose
        simulations end in worker processes)."""
        raise NotImplementedError

    def oracle(self, inputs, outcome, workdir):
        """Untimed correctness run; returns (ops, failures, seconds)."""
        return 0, [], None


class SingleRun(Workload):
    """One ``run_simulation`` call in this process."""

    single_process = True

    def __init__(self, name, fast, config, rate, warmup, measure,
                 lengths=("fixed", 1), faulty=False):
        self.name, self.fast = name, fast
        self.config_fields = config
        self.rate, self.warmup, self.measure = rate, warmup, measure
        self.lengths = lengths
        self.faulty = faulty

    def inputs(self, seed, scale=1.0):
        config = make_config(seed, self.fast, **self.config_fields)
        run = {
            "rate": self.rate, "lengths": list(self.lengths),
            "warmup": scaled(self.warmup, scale),
            "measure": scaled(self.measure, scale),
        }
        inputs = {"configs": {self.name: config}, "run": run}
        if self.faulty:
            inputs["fault_plan"] = generate_fault_plan(
                seed, config, run["warmup"], run["measure"]
            )
            #: Drain allowance of the oracle run: covers a packet lost
            #: three times under the transport's 512-cycle doubling
            #: timeout. The drain ends as soon as the network is idle.
            inputs["oracle_drain"] = 8000
        return inputs

    def run_kwargs(self, inputs, drain=0):
        """Keyword arguments of the ``run_simulation`` call.

        Fault plan, transport and checker are stateful, so each call
        gets fresh ones built from the generated plan.
        """
        run = inputs["run"]
        kwargs = dict(
            pattern="uniform", rate=run["rate"],
            lengths=lengths_of(run["lengths"]), warmup=run["warmup"],
            measure=run["measure"], drain=drain,
        )
        if self.faulty:
            kwargs.update(
                faults=FaultPlan.from_dict(inputs["fault_plan"]),
                transport=ReliableTransport(),
                invariants=InvariantChecker(period=64),
            )
        return kwargs

    def check(self, result, delivered=False):
        """Failure lines for one finished run of this workload."""
        failures = []
        if self.faulty:
            faults = result.faults or {}
            if faults.get("invariants", {}).get("violations", 1) != 0:
                failures.append("invariant violations reported")
            transport = faults.get("transport", {})
            if transport.get("failed", 1) != 0:
                failures.append("transport gave up on a tracked packet")
            if delivered:
                if transport.get("pending", 1) != 0:
                    failures.append("tracked packets still pending")
                if result.drained is not True:
                    failures.append("network did not drain")
        return failures

    def run_unit(self, inputs, workdir, metrics=None):
        config = inputs["configs"][self.name]
        try:
            result = run_simulation(config, metrics=metrics,
                                    **self.run_kwargs(inputs))
        except Exception as exc:  # an op that raises is a failed op
            return UnitOutcome(0, [], 1, [f"{type(exc).__name__}: {exc}"])
        return UnitOutcome(
            result.cycles_run, [sim_record(result, self.name)], 1,
            [f"{self.name}: {line}" for line in self.check(result)],
            raw={"result": result},
        )

    def oracle(self, inputs, outcome, workdir):
        """Faults only: the same run with a drain, every packet delivered.

        The drain is kept out of the timed units because its length is
        set by the seed (one retransmission timeout or three), which
        would make host-time medians differ by 40 % between seeds.
        """
        if not self.faulty:
            return 0, [], None
        config = inputs["configs"][self.name]
        try:
            result = run_simulation(
                config, **self.run_kwargs(inputs, inputs["oracle_drain"])
            )
        except Exception as exc:
            return 1, [f"oracle: {type(exc).__name__}: {exc}"], None
        return 1, [
            f"oracle: {line}" for line in self.check(result, delivered=True)
        ], None


def generate_fault_plan(seed, config, warmup, measure):
    """2 permanent + 1 transient inter-router link fault, flit errors.

    Links and cycles come from the seed; every fault strikes inside the
    loaded part of the run. Faulted links join interior routers and lie
    at least three hops apart: a dead link on the mesh border, or two
    dead links side by side, leave the fault-aware DOR detour no live
    way round, and the network wedges (1 seed in 20 did, before this
    rule) — the workload is meant to have no failing operation.
    Returned as the plan's JSON form (the program's input), already
    ``validate()``d against the topology.
    """
    rng = random.Random(f"ledger-fault-plan-{seed}")
    topology = build_network(config).topology
    k = config.mesh_k

    def interior(router):
        return 0 < router // k < k - 1 and 0 < router % k < k - 1

    def distance(a, b):
        return abs(a // k - b // k) + abs(a % k - b % k)

    candidates = []
    for router in range(topology.num_routers):
        for port in range(topology.radix(router)):
            link = topology.link(router, port)
            if (link is not None and interior(router)
                    and interior(link.dest_router)):
                candidates.append((router, port, link.dest_router))
    rng.shuffle(candidates)
    picks, taken = [], []
    for router, port, dest in candidates:
        if all(distance(end, other) >= 3
               for end in (router, dest) for other in taken):
            picks.append((router, port))
            taken += [router, dest]
            if len(picks) == 3:
                break
    first, last = warmup // 2, warmup + measure // 2
    plan = FaultPlan(
        seed=seed,
        links=[
            LinkFault(picks[0][0], picks[0][1], rng.randrange(first, last)),
            LinkFault(picks[1][0], picks[1][1], rng.randrange(first, last)),
            LinkFault(picks[2][0], picks[2][1], rng.randrange(first, last),
                      duration=max(1, measure // 4)),
        ],
        flit_errors=FlitErrors(drop=5e-4, corrupt=2e-4),
    )
    plan.validate(topology)
    return plan.to_dict()


class Sweep(Workload):
    """``parallel_matrix`` over chaining schemes x rates, journaled."""

    def __init__(self, name, schemes, rates, config, warmup, measure):
        self.name, self.fast = name, True
        self.schemes, self.rates = schemes, rates
        self.config_fields = config
        self.warmup, self.measure = warmup, measure

    def inputs(self, seed, scale=1.0):
        return {
            "configs": {
                scheme: make_config(seed, True, chaining=scheme,
                                    **self.config_fields)
                for scheme in self.schemes
            },
            "rates": list(self.rates),
            "run": {
                "rate": self.rates[0], "lengths": ["fixed", 1],
                "warmup": scaled(self.warmup, scale),
                "measure": scaled(self.measure, scale),
            },
        }

    def run_unit(self, inputs, workdir, metrics=None):
        run = inputs["run"]
        journal_dir = tempfile.mkdtemp(prefix="journal-", dir=workdir)
        points = len(inputs["configs"]) * len(inputs["rates"])
        try:
            matrix = parallel_matrix(
                inputs["configs"], inputs["rates"], workers=WORKERS,
                journal_dir=journal_dir, warmup=run["warmup"],
                measure=run["measure"], drain=0,
            )
            journal = os.path.join(journal_dir, "journal.jsonl")
            journal_bytes = (
                os.path.getsize(journal) if os.path.exists(journal) else None
            )
        except Exception as exc:
            return UnitOutcome(0, [], points,
                               [f"{type(exc).__name__}: {exc}"] * points)
        finally:
            shutil.rmtree(journal_dir, ignore_errors=True)
        records, failures = [], []
        for label, series in matrix.items():
            for rate, result in series:
                records.append(sim_record(result, f"{label}@{rate:g}"))
        for err in matrix.errors:
            failures.append(f"{err.label}@{err.rate:g}: {err.error}")
        if len(records) + len(failures) != points:
            failures.append(f"{points - len(records)} points missing")
        return UnitOutcome(
            sum(r["cycles_run"] for r in records), records, points, failures,
            raw={"timings": list(matrix.timings),
                 "journal_bytes": journal_bytes},
        )


class Shard(Workload):
    """``shard_run`` vs the single-process oracle of the same run."""

    def __init__(self, name, shards, config, rate, warmup, measure):
        self.name, self.fast = name, False
        self.shards = shards
        self.config_fields = config
        self.rate, self.warmup, self.measure = rate, warmup, measure

    def inputs(self, seed, scale=1.0):
        return {
            "configs": {
                self.name: make_config(seed, False, **self.config_fields)
            },
            "shards": self.shards,
            "run": {
                "rate": self.rate, "lengths": ["fixed", 1],
                "warmup": scaled(self.warmup, scale),
                "measure": scaled(self.measure, scale),
            },
        }

    def _run_kwargs(self, inputs):
        run = inputs["run"]
        return dict(pattern="uniform", rate=run["rate"], packet_length=1,
                    warmup=run["warmup"], measure=run["measure"], drain=0)

    def run_unit(self, inputs, workdir, metrics=None):
        out_dir = tempfile.mkdtemp(prefix="shard-", dir=workdir)
        try:
            outcome = shard_run(
                inputs["configs"][self.name], shards=inputs["shards"],
                out_dir=out_dir, metrics=metrics, **self._run_kwargs(inputs)
            )
            exchange_files = exchange_bytes = 0
            for root, _dirs, files in os.walk(os.path.join(out_dir, "exch")):
                for name in files:
                    exchange_files += 1
                    exchange_bytes += os.path.getsize(
                        os.path.join(root, name))
        except Exception as exc:
            return UnitOutcome(0, [], 1, [f"{type(exc).__name__}: {exc}"])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if outcome.status != "done":
            return UnitOutcome(0, [], 1,
                               [f"shard run ended {outcome.status!r}"])
        record = sim_record(outcome.result, self.name, outcome.digest_root)
        return UnitOutcome(
            outcome.cycles, [record], 1, [],
            raw={"result": outcome.result, "timers": dict(outcome.timers),
                 "shards": outcome.shards, "restarts": outcome.restarts,
                 "exchange_files": exchange_files,
                 "exchange_bytes": exchange_bytes,
                 "windows": math.ceil(outcome.cycles / outcome.window)},
        )

    def oracle(self, inputs, outcome, workdir):
        """``single_process_run`` must give the same bits as the shards."""
        start = time.perf_counter()
        try:
            result, digest_root = single_process_run(
                inputs["configs"][self.name], **self._run_kwargs(inputs)
            )
        except Exception as exc:
            return 1, [f"oracle: {type(exc).__name__}: {exc}"], None
        seconds = time.perf_counter() - start
        failures = []
        if not outcome.records:
            failures.append("oracle: no shard result to compare")
        elif sim_record(result, self.name, digest_root) != outcome.records[0]:
            failures.append("shard result or digest_root differs from "
                            "single_process_run")
        return 1, failures, seconds


_MESH8 = dict(topology="mesh", mesh_k=8, routing="dor", allocator="islip1",
              pc_allocator="islip1")

WORKLOADS = {w.name: w for w in (
    SingleRun(
        "mesh8-chain-sat",
        fast=True, config=dict(_MESH8, chaining="any_input"),
        rate=0.45, warmup=200, measure=600,
    ),
    SingleRun(
        "fbfly4-wavefront-bimodal",
        fast=True,
        config=dict(topology="fbfly", routing="ugal", fbfly_rows=4,
                    fbfly_cols=4, fbfly_concentration=4,
                    allocator="wavefront", chaining="disabled"),
        rate=0.5, warmup=500, measure=2000, lengths=("bimodal", 1, 5),
    ),
    SingleRun(
        "mesh8-faults-reliable",
        fast=False, config=dict(_MESH8, chaining="any_input"),
        rate=0.3, warmup=200, measure=300, faulty=True,
    ),
    Sweep(
        "fig7a-sweep",
        schemes=("disabled", "same_vc", "same_input", "any_input"),
        rates=(0.25, 0.45, 1.0), config=dict(_MESH8),
        warmup=75, measure=175,
    ),
    Shard(
        "mesh8-shard2",
        shards=2, config=dict(_MESH8, chaining="any_input"),
        rate=0.3, warmup=100, measure=300,
    ),
)}
