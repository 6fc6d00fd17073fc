"""Observability overhead guarantees.

The trace bus promises zero overhead when disabled: every emission
site guards on ``bus.active``, which is False both for the shared
NULL_TRACE and for an enabled bus with no sinks attached. This bench
measures the same simulation three ways — no bus, enabled bus with no
sinks, and a bus with an in-memory sink actually collecting — and
asserts the no-sink configuration stays within 5% of the baseline
(DESIGN.md's disabled-by-default guarantee).

The network-state sampler makes the analogous promise: a run without
probes pays one due-cycle compare per cycle (inside the baseline), and
a sampler probe at the default 100-cycle period stays within 5% of the
unsampled baseline while never perturbing simulation results.
"""

import time

from conftest import once, sim_cycles

from repro.network.config import mesh_config
from repro.obs import MemorySink, NetworkSampler, TraceBus
from repro.proc import BeatProbe, Heartbeat
from repro.sim.runner import run_simulation

CYCLES = sim_cycles(warmup=100, measure=600)
REPEATS = 5


def timed_run(trace, sampler=None, telemetry=None):
    cfg = mesh_config(mesh_k=4, chaining="any_input", seed=11)
    start = time.perf_counter()
    result = run_simulation(
        cfg, rate=0.6, warmup=CYCLES["warmup"], measure=CYCLES["measure"],
        drain=0, trace=trace,
        probes=[p for p in (sampler, telemetry) if p is not None],
    )
    return time.perf_counter() - start, result


def best_of(make_trace, make_sampler=lambda: None,
            make_telemetry=lambda: None):
    """Minimum wall time over REPEATS runs (noise-robust estimator)."""
    times = []
    result = None
    for _ in range(REPEATS):
        elapsed, result = timed_run(
            make_trace(), sampler=make_sampler(),
            telemetry=make_telemetry(),
        )
        times.append(elapsed)
    return min(times), result


def run_experiment():
    base_time, base = best_of(lambda: None)
    nosink_time, nosink = best_of(lambda: TraceBus())

    def traced_bus():
        bus = TraceBus()
        bus.attach(MemorySink())
        return bus

    sink_time, _ = best_of(traced_bus)
    # Identical simulation outcomes: tracing must never perturb results.
    assert nosink.avg_throughput == base.avg_throughput
    assert nosink.chain_stats.total_chains == base.chain_stats.total_chains
    return base_time, nosink_time, sink_time


def test_obs_overhead(benchmark, report):
    base_time, nosink_time, sink_time = once(benchmark, run_experiment)
    overhead = 100 * (nosink_time / base_time - 1)
    full = 100 * (sink_time / base_time - 1)

    rep = report("Trace-bus overhead: disabled guard vs. active sink")
    rep.row("configuration", "seconds", "overhead", widths=[24, 10, 10])
    rep.row("no trace bus", f"{base_time:.3f}", "-", widths=[24, 10, 10])
    rep.row("bus, no sinks", f"{nosink_time:.3f}", f"{overhead:+.1f}%",
            widths=[24, 10, 10])
    rep.row("bus + memory sink", f"{sink_time:.3f}", f"{full:+.1f}%",
            widths=[24, 10, 10])
    rep.line()
    rep.line("guarantee: an attached-but-sinkless bus stays within 5% of "
             "the untraced baseline (bus.active short-circuits emission)")
    rep.save()

    assert nosink_time <= base_time * 1.05, (
        f"sinkless trace bus added {overhead:.1f}% overhead (budget: 5%)"
    )


def run_sampler_experiment():
    base_time, base = best_of(lambda: None)
    sampled_time, sampled = best_of(
        lambda: None, make_sampler=lambda: NetworkSampler(period=100)
    )
    # Sampling is read-only: simulation outcomes must be identical.
    assert sampled.avg_throughput == base.avg_throughput
    assert sampled.chain_stats.total_chains == base.chain_stats.total_chains
    return base_time, sampled_time


def test_sampler_overhead(benchmark, report):
    base_time, sampled_time = once(benchmark, run_sampler_experiment)
    overhead = 100 * (sampled_time / base_time - 1)

    rep = report("Network-state sampler overhead at the default period")
    rep.row("configuration", "seconds", "overhead", widths=[24, 10, 10])
    rep.row("no sampler", f"{base_time:.3f}", "-", widths=[24, 10, 10])
    rep.row("sampler, period=100", f"{sampled_time:.3f}",
            f"{overhead:+.1f}%", widths=[24, 10, 10])
    rep.line()
    rep.line("guarantee: a 100-cycle sampler stays within 5% of the "
             "unsampled baseline and never perturbs results")
    rep.save()

    assert sampled_time <= base_time * 1.05, (
        f"sampler at period=100 added {overhead:.1f}% overhead (budget: 5%)"
    )


def run_telemetry_experiment(tmp_path):
    base_time, base = best_of(lambda: None)
    hb = tmp_path / "bench.hb.json"

    def make_telemetry():
        # The beat probe as `repro run --heartbeat FILE` builds it.
        hb.unlink(missing_ok=True)
        return BeatProbe(Heartbeat(str(hb), "run", 1))

    tele_time, with_tele = best_of(
        lambda: None, make_telemetry=make_telemetry
    )
    # Heartbeats are host-side only: results must be identical.
    assert with_tele.avg_throughput == base.avg_throughput
    assert with_tele.chain_stats.total_chains == base.chain_stats.total_chains
    return base_time, tele_time


def test_telemetry_overhead(benchmark, report, tmp_path):
    base_time, tele_time = once(
        benchmark, lambda: run_telemetry_experiment(tmp_path)
    )
    overhead = 100 * (tele_time / base_time - 1)

    rep = report("Heartbeat overhead: the repro run --heartbeat beat probe")
    rep.row("configuration", "seconds", "overhead", widths=[24, 10, 10])
    rep.row("no heartbeat", f"{base_time:.3f}", "-", widths=[24, 10, 10])
    rep.row("beat probe, 0.2 s", f"{tele_time:.3f}",
            f"{overhead:+.1f}%", widths=[24, 10, 10])
    rep.line()
    rep.line("guarantee: the beat probe, due every cycle and writing at "
             "most one heartbeat per 0.2 s of wall time, stays within 5% "
             "of the baseline (a cycle between writes pays one due "
             "compare, one dict update and one time.monotonic())")
    rep.save()

    assert tele_time <= base_time * 1.05, (
        f"the beat probe added {overhead:.1f}% overhead (budget: 5%)"
    )
