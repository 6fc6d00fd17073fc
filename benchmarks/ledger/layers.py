"""Per-layer metrics: the traced pass, the derived splits, the probes.

Everything here measures a layer from outside. Single-process
workloads are rebuilt from the same public pieces ``run_simulation``
uses and run once with :class:`spans.SpanLog` wrappers on the live
instances; the multi-process workloads are split with the timers their
public results already carry; probes time one public function on seeded
inputs. A metric whose hook is missing, or that does not apply to the
workload, is ``None`` with a one-line reason — never an exception.
"""

import os
import random
import shutil
import statistics
import tempfile
import time

from repro.allocators import is_conflict_free, make_allocator
from repro.network.network import build_network
from repro.sim.runner import SimulationRun

from spans import SpanLog
from workloads import (
    WORKERS,
    WORKLOADS,
    Shard,
    collect_failures,
    construct,
    lengths_of,
    make_config,
    scaled,
    sim_record,
    timed_units,
)


class Layers:
    """``name -> value`` with a reason beside every ``None``."""

    def __init__(self):
        self.values = {}
        self.reasons = {}

    def put(self, name, value, reason=None):
        self.values[name] = value
        if value is None:
            self.reasons[name] = reason or "not measured"

    def put_all(self, prefix, mapping):
        for key, value in mapping.items():
            self.put(prefix + key, value)

    def skip(self, names, reason):
        for name in names:
            self.put(name, None, reason)

    def guarded(self, names, reason_prefix, fn):
        """Run a probe; on any failure its metrics are null, with why."""
        try:
            self.put_all("", fn())
        except Exception as exc:  # probe boundary: degrade, never crash
            self.skip(names, f"{reason_prefix}: {type(exc).__name__}: {exc}")
        for name in names:
            if name not in self.values:
                self.put(name, None, f"{reason_prefix}: not produced")


def _ratio(num, den):
    if num is None or den is None or not den:
        return None
    return num / den


# ---------------------------------------------------------------------------
# traced pass (single-process workloads)

def traced_unit(workload, inputs):
    """One unit with span wrappers on the live instances.

    Returns ``(SpanLog, SimResult, metrics dict, router module)``. The
    wrappers are always removed again, also when the run raises.
    """
    from repro.obs.metrics import MetricsRegistry

    config = inputs["configs"][workload.name]
    run_args = inputs["run"]
    net, injector = construct(config, run_args)
    if workload.faulty:
        from repro.faults import FaultController

        extras = workload.run_kwargs(inputs)
        net.attach_faults(FaultController(extras["faults"]))
        net.attach_transport(extras["transport"])
        net.attach_invariants(extras["invariants"])
    registry = MetricsRegistry()
    run = SimulationRun(net, injector, run_args["warmup"],
                        run_args["measure"], 0, metrics=registry)
    log = SpanLog()
    log.wrap(net, "step", "network.step")
    log.wrap(net, "inject", "network.inject")
    log.wrap(injector, "generate", "traffic.generate")
    for router in net.routers:
        log.wrap(router, "receive", "router.receive")
        log.wrap(router, "step", "router.step")
        log.wrap_path(router, "switch_alloc.allocate", "allocators.sa")
        log.wrap_path(router, "pc_alloc.allocate", "allocators.pc")
    for source in net.sources:
        log.wrap(source, "step", "terminal.source")
        log.wrap(source, "receive_credits", "terminal.credits")
    for sink in net.sinks:
        log.wrap(sink, "step", "terminal.sink")
    if workload.faulty:
        log.wrap(net.faults, "begin_cycle", "faults.begin_cycle")
        log.wrap(net.transport, "step", "faults.transport.step")
        log.wrap(net.invariants, "maybe_check", "faults.invariants.check")
    try:
        with log.span("sim.runner"):
            result = run.execute()
    finally:
        log.unwrap_all()
    return log, result, flat_counters(registry), \
        type(net.routers[0]).__module__


def flat_counters(registry):
    """``name -> value`` over a MetricsRegistry's counters and gauges."""
    exported = registry.to_dict()
    flat = dict(exported.get("counters", {}))
    flat.update(exported.get("gauges", {}))
    return flat


#: metric -> (span it is read from, how)
SPAN_METRICS = (
    ("sim.runner.total_s", "sim.runner", "total"),
    ("sim.runner.self_s", "sim.runner", "self"),
    ("network.step.calls", "network.step", "calls"),
    ("network.step.self_s", "network.step", "self"),
    ("network.inject.calls", "network.inject", "calls"),
    ("network.inject.s", "network.inject", "total"),
    ("router.step.calls", "router.step", "calls"),
    ("router.step.self_s", "router.step", "self"),
    ("router.receive.calls", "router.receive", "calls"),
    ("router.receive.s", "router.receive", "total"),
    ("allocators.sa.calls", "allocators.sa", "calls"),
    ("allocators.sa.s", "allocators.sa", "total"),
    ("allocators.pc.calls", "allocators.pc", "calls"),
    ("allocators.pc.s", "allocators.pc", "total"),
    ("terminal.source.calls", "terminal.source", "calls"),
    ("terminal.source.s", "terminal.source", "total"),
    ("terminal.credits.s", "terminal.credits", "total"),
    ("terminal.sink.calls", "terminal.sink", "calls"),
    ("terminal.sink.s", "terminal.sink", "total"),
    ("traffic.generate.calls", "traffic.generate", "calls"),
    ("traffic.generate.s", "traffic.generate", "total"),
    ("faults.begin_cycle.s", "faults.begin_cycle", "total"),
    ("faults.transport.step.s", "faults.transport.step", "total"),
    ("faults.invariants.check.s", "faults.invariants.check", "total"),
)


def span_layers(layers, log):
    """The span-derived metrics of one traced unit.

    A span that was installed but never entered reads 0 calls / 0 s
    (the PC allocator with chaining disabled, the fault hooks on a
    fault-free workload); one that could not be installed reads None.
    """
    read = {"total": log.total, "self": log.self_time, "calls": log.calls}
    for metric, span, how in SPAN_METRICS:
        layers.put(metric, read[how](span), log.missing.get(span))
    layers.put(
        "router.step.us_per_call",
        _scaled(_ratio(log.total("router.step"), log.calls("router.step")),
                1e6),
        log.missing.get("router.step", "router.step was never called"),
    )


def _scaled(value, factor):
    return None if value is None else value * factor


def simulated_layers(layers, result, counters, packets=None):
    """Counts the simulated network reports (exact for a seed)."""
    put = layers.put
    counters = counters or {}
    hops = counters.get("router_flits_sent")
    put("router.flit_hops", hops, "no router_flits_sent counter published")
    for role in ("sa", "pc"):
        put(f"allocators.{role}.requests",
            counters.get(f"{role}_alloc_requests"),
            "publish_metrics has no allocator counters")
        put(f"allocators.{role}.grants", counters.get(f"{role}_alloc_grants"),
            "publish_metrics has no allocator counters")
        put(f"allocators.{role}.grant_efficiency",
            counters.get(f"{role}_grant_efficiency"),
            "publish_metrics has no allocator counters")
    chains = result.chain_stats
    put("core.chaining.chains_total", chains.total_chains)
    put("core.chaining.chained_share", _ratio(chains.total_chains, hops),
        "no flit-hop count to divide by")
    put("core.chaining.conflicts", chains.conflicts)
    put("core.chaining.speculation_failures", chains.speculation_failures)
    put("traffic.packets", packets, "packet count needs the traced pass")
    faults = result.faults or {}
    injection = faults.get("injection", {})
    transport = faults.get("transport", {})
    put("faults.dropped_flits", injection.get("dropped_flits", 0))
    put("faults.detours", injection.get("detours", 0))
    put("faults.retransmissions", transport.get("retransmissions", 0))
    put("faults.duplicates", transport.get("duplicates", 0))


PHASES = ("release", "stream", "sa_collect", "pc", "sa", "vc_alloc", "end")


def profiled_unit(workload, inputs):
    """One unit through ``run_simulation(profiler=PhaseProfiler())``.

    Returns ``(seconds, phase_seconds or None, reason)``; the profiled
    path dispatches per phase, so the split is indicative.
    """
    from repro import run_simulation

    try:
        from repro.obs.profiler import PhaseProfiler
    except ImportError as exc:
        return None, None, f"no PhaseProfiler: {exc}"
    config = inputs["configs"][workload.name]
    start = time.perf_counter()
    result = run_simulation(config, profiler=PhaseProfiler(),
                            **workload.run_kwargs(inputs))
    seconds = time.perf_counter() - start
    timing = getattr(result, "timing", None)
    if not timing or "phase_seconds" not in timing:
        return seconds, None, "SimResult carries no timing.phase_seconds"
    return seconds, timing["phase_seconds"], None


def phase_layers(layers, phases, reason, profiled_s, untraced_s):
    for phase in PHASES:
        value = None if phases is None else phases.get(phase)
        layers.put(f"router.phase.{phase}_s", value,
                   reason or f"profiler reports no {phase!r} phase")
    overhead = _ratio(profiled_s, untraced_s)
    layers.put("router.profiler_overhead_pct",
               None if overhead is None else 100.0 * (overhead - 1.0),
               reason or "no profiled pass")


# ---------------------------------------------------------------------------
# multi-process workloads: split from the timers their results carry

SWEEP_METRICS = ("points", "point_wall_s_p50", "point_wall_s_max", "busy_s",
                 "dispatch_s", "tail_idle_s", "journal_bytes", "attempts")
SHARD_METRICS = ("step_s", "wait_s", "publish_s", "checkpoint_s", "windows",
                 "exchange_ms_per_window", "dispatch_s", "exchange_files",
                 "exchange_bytes", "restarts", "vs_single_ratio")


def sweep_layers(layers, outcome, wall_s):
    """``sim.parallel.*`` from ``MatrixResults.timings`` of one unit."""
    timings = [t for t in outcome.raw.get("timings", ())
               if getattr(t, "wall_time", None) is not None]
    if not timings:
        layers.skip(["sim.parallel." + m for m in SWEEP_METRICS],
                    "MatrixResults carries no per-point timings")
        return
    walls = sorted(t.wall_time for t in timings)
    busy = sum(walls)
    per_worker = {}
    for t in timings:
        per_worker[t.worker] = per_worker.get(t.worker, 0.0) + t.wall_time
    layers.put_all("sim.parallel.", {
        "points": len(timings),
        "point_wall_s_p50": statistics.median(walls),
        "point_wall_s_max": walls[-1],
        "busy_s": busy,
        "dispatch_s": wall_s - busy / WORKERS,
        "tail_idle_s": wall_s - min(per_worker.values()),
        "journal_bytes": outcome.raw.get("journal_bytes"),
        "attempts": sum(getattr(t, "attempts", 1) for t in timings),
    })
    by_label = {r["label"]: r["avg_throughput"] for r in outcome.records}
    base = by_label.get("disabled@1")
    for scheme in ("any_input", "same_input"):
        gain = _ratio(by_label.get(f"{scheme}@1"), base)
        layers.put(f"core.chaining.fig7a_gain_{scheme}_pct",
                   None if gain is None else 100.0 * (gain - 1.0),
                   "sweep has no rate-1.0 point for this scheme")
    layers.put("core.chaining.chains_total", sum(
        r["chains_same_vc"] + r["chains_same_input"] + r["chains_other_input"]
        for r in outcome.records))
    layers.put("core.chaining.conflicts",
               sum(r["chain_conflicts"] for r in outcome.records))
    layers.put("core.chaining.speculation_failures", sum(
        r["chain_speculation_failures"] for r in outcome.records))


def shard_layers(layers, outcome, wall_s, oracle_s):
    """``parallel.*`` from ``ShardRunResult.timers`` of one unit."""
    raw = outcome.raw
    timers = raw.get("timers") or {}
    if not timers:
        layers.skip(["parallel." + m for m in SHARD_METRICS],
                    "ShardRunResult carries no timers")
        return
    shards = raw["shards"]
    per_shard = {key: timers.get(key + "_seconds", 0.0) / shards
                 for key in ("step", "wait", "publish", "checkpoint")}
    windows = raw.get("windows")
    exchange = per_shard["wait"] + per_shard["publish"]
    layers.put_all("parallel.", {
        "step_s": per_shard["step"],
        "wait_s": per_shard["wait"],
        "publish_s": per_shard["publish"],
        "checkpoint_s": per_shard["checkpoint"],
        "windows": windows,
        "exchange_ms_per_window": _scaled(_ratio(exchange, windows), 1e3),
        "dispatch_s": wall_s - sum(per_shard.values()),
        "exchange_files": raw.get("exchange_files"),
        "exchange_bytes": raw.get("exchange_bytes"),
        "restarts": raw.get("restarts"),
        "vs_single_ratio": _ratio(wall_s, oracle_s),
    })


# ---------------------------------------------------------------------------
# probes: one public function, seeded inputs

ALLOC_KINDS = ("islip1", "islip2", "wavefront", "augmenting")
ALLOC_PORTS = (5, 10)
ALLOC_PROBES = tuple(f"allocators.probe.{kind}_p{ports}_us"
                     for ports in ALLOC_PORTS for kind in ALLOC_KINDS)


def _median_of(repeats, fn):
    return statistics.median(fn() for _ in range(repeats))


def probe_allocators(seed):
    """Microseconds per ``allocate`` on seeded request matrices."""
    out = {}
    for ports in ALLOC_PORTS:
        rng = random.Random(f"ledger-alloc-{seed}-{ports}")
        matrices = [
            {(i, o): rng.randrange(2)
             for i in range(ports) for o in range(ports)
             if rng.random() < 0.4}
            for _ in range(64)
        ]
        for kind in ALLOC_KINDS:
            def once(kind=kind, ports=ports):
                alloc = make_allocator(kind, ports, ports, seed)
                start = time.perf_counter()
                grants = [alloc.allocate(m) for _ in range(8)
                          for m in matrices]
                elapsed = time.perf_counter() - start
                if not all(is_conflict_free(g) for g in grants):
                    raise ValueError(f"{kind} returned a conflicting grant")
                return 1e6 * elapsed / len(grants)

            out[f"allocators.probe.{kind}_p{ports}_us"] = _median_of(3, once)
    return out


def probe_channel():
    """Nanoseconds per send + receive on one PipelinedChannel."""
    from repro.network.channel import PipelinedChannel

    def once():
        chan = PipelinedChannel(2)
        start = time.perf_counter()
        for now in range(20000):
            chan.send(now, now)
            chan.receive(now)
        return 1e9 * (time.perf_counter() - start) / 20000

    return {"network.channel.send_receive_ns": _median_of(3, once)}


def probe_build(seed):
    """Milliseconds to construct a k x k mesh on the fast core."""
    out = {}
    for k in (8, 32):
        config = make_config(seed, True, topology="mesh", mesh_k=k,
                             chaining="any_input")

        def once(config=config):
            start = time.perf_counter()
            build_network(config)
            return 1e3 * (time.perf_counter() - start)

        out[f"network.build_ms_k{k}"] = _median_of(3, once)
    return out


STATE_PROBES = ("checkpoint.save_ms", "checkpoint.restore_ms",
                "checkpoint.bytes", "obs.digest.ms_per_digest",
                "stats.summarize_ms")


def probe_state(seed, scale, workdir):
    """Checkpoint, digest and summarize on the mesh8-chain-sat network.

    The network is stepped to cycle 500 (scaled) first, so the state
    that is saved, hashed and summarized is a loaded one.
    """
    from repro.checkpoint import (
        canonical_run_spec,
        capture_run,
        load_checkpoint,
        restore_run,
        save_checkpoint,
    )
    from repro.obs.digest import digest_network
    from repro.stats.summary import summarize

    workload = WORKLOADS["mesh8-chain-sat"]
    inputs = workload.inputs(seed, scale)
    config = inputs["configs"][workload.name]
    run_args = dict(inputs["run"], warmup=scaled(100, scale),
                    measure=scaled(400, scale))

    def fresh_run():
        net, injector = construct(config, run_args)
        return SimulationRun(net, injector, run_args["warmup"],
                             run_args["measure"], 0)

    run = fresh_run()
    while run.step_cycle():
        pass
    net, injector = run.network, run.injector
    run_spec = canonical_run_spec(
        "uniform", run_args["rate"], lengths_of(run_args["lengths"]),
        run_args["warmup"], run_args["measure"], 0,
    )
    path = os.path.join(workdir, "probe-checkpoint.json.gz")

    def save():
        start = time.perf_counter()
        save_checkpoint(path, capture_run(run, config, run_spec))
        return 1e3 * (time.perf_counter() - start)

    def restore():
        target = fresh_run()
        start = time.perf_counter()
        restore_run(target, load_checkpoint(path))
        elapsed = 1e3 * (time.perf_counter() - start)
        if target.network.cycle != net.cycle:
            raise ValueError("restored run is at another cycle")
        return elapsed

    def digest():
        start = time.perf_counter()
        digest_network(net, injector, observers=False)
        return 1e3 * (time.perf_counter() - start)

    def summary():
        start = time.perf_counter()
        summarize(net.stats, injector.rate, net.chain_stats(), net.cycle)
        return 1e3 * (time.perf_counter() - start)

    try:
        return {
            "checkpoint.save_ms": _median_of(3, save),
            "checkpoint.bytes": os.path.getsize(path),
            "checkpoint.restore_ms": _median_of(3, restore),
            "obs.digest.ms_per_digest": _median_of(5, digest),
            "stats.summarize_ms": _median_of(5, summary),
        }
    finally:
        if os.path.exists(path):
            os.unlink(path)


SERVE_PROBES = ("serve.dispatch_ms_per_job", "serve.cache_hit_ms_per_job")


def probe_serve(seed, scale, workdir):
    """4 small jobs through ``ExperimentService(workers=2)``, twice.

    ``dispatch_ms_per_job`` is the service's wall minus the jobs' own
    simulation time spread over the workers (the same definition as
    ``sim.parallel.dispatch_s``), per job; the resubmission is served
    from the result cache.
    """
    from repro import run_simulation
    from repro.serve import ExperimentService
    from repro.serve.spec import spec_for

    config = make_config(seed, False, topology="mesh", mesh_k=4,
                         chaining="any_input")
    run = dict(warmup=scaled(100, scale), measure=scaled(200, scale),
               drain=0)
    rates = (0.1, 0.2, 0.3, 0.4)
    start = time.perf_counter()
    for rate in rates:
        run_simulation(config, rate=rate, **run)
    bare_s = time.perf_counter() - start
    root = tempfile.mkdtemp(prefix="serve-", dir=workdir)
    try:
        walls = []
        with ExperimentService(root, workers=WORKERS) as svc:
            for attempt in ("fresh", "cached"):
                start = time.perf_counter()
                for rate in rates:
                    svc.submit(spec_for(
                        config, rate=rate, label=f"{attempt}-{rate:g}", **run
                    ))
                svc.run(once=True, max_seconds=60, install_signals=False)
                walls.append(time.perf_counter() - start)
            records = list(svc.jobs.values())
        done = [r for r in records if r.state == "done"]
        if len(done) != 2 * len(rates):
            raise ValueError(f"{len(done)} of {2 * len(rates)} jobs done")
        if sum(1 for r in done if r.cached) != len(rates):
            raise ValueError("resubmitted jobs were not served from cache")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "serve.dispatch_ms_per_job":
            1e3 * (walls[0] - bare_s / WORKERS) / len(rates),
        "serve.cache_hit_ms_per_job": 1e3 * walls[1] / len(rates),
    }


def run_probes(layers, seed, scale, workdir):
    """Every probe, on every workload's traced pass (they are cheap:
    about 3 s together), so each probe metric can be read beside the
    workload it is predicted to move."""
    layers.guarded(ALLOC_PROBES, "allocator probe",
                   lambda: probe_allocators(seed))
    layers.guarded(("network.channel.send_receive_ns",), "channel probe",
                   probe_channel)
    layers.guarded(("network.build_ms_k8", "network.build_ms_k32"),
                   "build probe", lambda: probe_build(seed))
    layers.guarded(STATE_PROBES, "state probe",
                   lambda: probe_state(seed, scale, workdir))
    layers.guarded(SERVE_PROBES, "serve probe",
                   lambda: probe_serve(seed, scale, workdir))


# ---------------------------------------------------------------------------
# the traced pass

def layers_pass(workload, seed, seconds, scale, workdir):
    """Per-layer metrics of one workload, then the probes.

    Wrapped units are a third the length of the timed ones; the
    multi-process workloads carry no wrappers (their results' own
    timers are read), so they run the end-to-end unit.
    """
    inputs = workload.inputs(
        seed, scale / 3.0 if workload.single_process else scale)
    layers = Layers()
    info = {}
    window = seconds * 2.0 / 3.0  # the probes get the rest
    workload.run_unit(workload.inputs(seed, scale * 0.1), workdir)
    if workload.single_process:
        ops, failures, spans = traced_rounds(
            workload, inputs, window, workdir, layers, info)
    else:
        ops, failures, spans = timer_rounds(
            workload, inputs, window, workdir, layers)
    run_probes(layers, seed, scale, workdir)
    failed = min(len(failures), ops)
    return {
        "inputs": workload.describe(inputs),
        "ops": ops, "failed_ops": failed,
        "failed_share": failed / ops if ops else 1.0,
        "failures": failures, "info": info, "spans": spans,
        "layers": layers,
    }


def traced_rounds(workload, inputs, window, workdir, layers, info):
    """Rounds of (untraced, traced, profiled) units of one workload.

    Reports the round whose traced total is the median, so the spans
    still add up exactly; overheads compare medians over the rounds.
    """

    def one_round():
        start = time.perf_counter()
        plain = workload.run_unit(inputs, workdir)
        plain_s = time.perf_counter() - start
        start = time.perf_counter()
        log, result, counters, module = traced_unit(workload, inputs)
        traced_s = time.perf_counter() - start
        profiled_s, phases, why = profiled_unit(workload, inputs)
        return {"plain": plain, "plain_s": plain_s, "log": log,
                "result": result, "counters": counters, "module": module,
                "traced_s": traced_s, "profiled_s": profiled_s,
                "phases": phases, "why": why}

    rounds = [r for _, r in timed_units(one_round, window, 1)]
    ops, failures = 0, []
    for r in rounds:
        ops += 2
        failures += r["plain"].failures
        if [sim_record(r["result"], workload.name)] != r["plain"].records:
            failures.append("traced unit simulated different results than "
                            "run_simulation from identical inputs")
    rounds.sort(key=lambda r: r["log"].total("sim.runner"))
    mid = rounds[len(rounds) // 2]
    log = mid["log"]
    span_layers(layers, log)
    simulated_layers(
        layers, mid["result"], mid["counters"],
        packets=sum(rec[0] for (name, parent), rec in log.agg.items()
                    if name == "network.inject" and parent == "sim.runner"),
    )
    router_s = (log.total("router.step") or 0) + (
        log.total("router.receive") or 0)
    layers.put("router.us_per_flit_hop",
               _scaled(_ratio(router_s, layers.values["router.flit_hops"]),
                       1e6),
               "no flit hops counted")
    plain_s = statistics.median(r["plain_s"] for r in rounds)
    traced_s = statistics.median(r["traced_s"] for r in rounds)
    layers.put("sim.runner.trace_overhead_pct",
               100.0 * (traced_s / plain_s - 1.0))
    profiled = [r["profiled_s"] for r in rounds if r["profiled_s"]]
    phase_layers(layers, mid["phases"], mid["why"],
                 statistics.median(profiled) if profiled else None, plain_s)
    info["router.impl"] = mid["module"]
    info["rounds"] = len(rounds)
    return ops, failures, log.to_rows()


def timer_rounds(workload, inputs, window, workdir, layers):
    """Multi-process workloads: no wrappers, the results' own timers."""
    sharded = isinstance(workload, Shard)

    def unit():
        registry = None
        if sharded:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        outcome = workload.run_unit(inputs, workdir, metrics=registry)
        if registry is not None:
            outcome.raw["counters"] = flat_counters(registry)
        return outcome

    units = timed_units(unit, window, 1)
    ops, failures = collect_failures(units)
    by_wall = sorted(units, key=lambda u: u[0])
    wall_s, outcome = by_wall[len(by_wall) // 2]
    if not sharded:
        sweep_layers(layers, outcome, wall_s)
        return ops, failures, []
    oracle_ops, oracle_failures, oracle_s = workload.oracle(
        inputs, units[0][1], workdir)
    shard_layers(layers, outcome, wall_s, oracle_s)
    if "result" in outcome.raw:
        simulated_layers(layers, outcome.raw["result"],
                         outcome.raw["counters"])
    return ops + oracle_ops, failures + oracle_failures, []
