"""Experiment-service dispatch overhead guarantee.

``repro serve`` buys crash tolerance — a fsynced job journal, one
supervised process per attempt, heartbeat leases, and atomic
content-addressed cache publication — and all of that costs wall time
that a bare fork ``multiprocessing.Pool.map`` over
:func:`repro.sim.runner.run_simulation` does not pay. ``parallel_sweep``
and ``parallel_matrix`` run on the service, so this is also the tax
every sweep pays. The guarantee gated here: for a realistic fleet the
whole tax stays under 5% of the bare pool's wall time, so there is no
performance excuse to run long sweeps outside the service.

Both sides run the identical fleet (same rates, phases, seed, worker
count) and the repeats interleave bare/serve so slow host drift hits
both about equally; min-of-N is the noise-robust estimator. Every
serve repeat gets a fresh root, so nothing is ever served from cache —
the comparison is simulate-vs-simulate, with the service's journal,
fork, supervision, and artifact costs riding on top of one side.

No CI job runs this bench.
"""

import multiprocessing
import shutil
import tempfile
import time

from conftest import once, sim_cycles

from repro.network.config import mesh_config
from repro.serve import ExperimentService
from repro.serve.spec import spec_for
from repro.sim.runner import run_simulation

CYCLES = sim_cycles(warmup=600, measure=1200)
RATES = [0.05, 0.15, 0.25, 0.30, 0.35, 0.40]
WORKERS = 2
REPEATS = 3
CONFIG = mesh_config(mesh_k=4)


def simulate(rate):
    return run_simulation(CONFIG, rate=rate, **CYCLES)


def timed_bare():
    start = time.perf_counter()
    with multiprocessing.get_context("fork").Pool(WORKERS) as pool:
        results = pool.map(simulate, RATES)
    elapsed = time.perf_counter() - start
    assert len(results) == len(RATES)
    return elapsed


def timed_serve():
    root = tempfile.mkdtemp(prefix="repro-bench-serve-")
    try:
        start = time.perf_counter()
        with ExperimentService(root, workers=WORKERS) as svc:
            for rate in RATES:
                svc.submit(spec_for(CONFIG, rate=rate, label=f"r{rate:g}",
                                    **CYCLES))
            svc.run(once=True, max_seconds=600, install_signals=False)
            records = svc.jobs
        elapsed = time.perf_counter() - start
        done = [r for r in records.values() if r.state == "done"]
        assert len(done) == len(RATES), \
            [(r.state, r.error) for r in records.values()]
        assert all(not r.cached for r in done)  # fresh root: no hits
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return elapsed


def run_experiment():
    bare_times, serve_times = [], []
    for _ in range(REPEATS):
        bare_times.append(timed_bare())
        serve_times.append(timed_serve())
    return min(bare_times), min(serve_times)


def test_serve_overhead(benchmark, report):
    bare_time, serve_time = once(benchmark, run_experiment)
    overhead = 100 * (serve_time / bare_time - 1)

    rep = report("Experiment-service dispatch overhead vs a bare pool")
    rep.row("configuration", "seconds", "overhead", widths=[24, 10, 10])
    rep.row("multiprocessing.Pool", f"{bare_time:.3f}", "-",
            widths=[24, 10, 10])
    rep.row("repro serve", f"{serve_time:.3f}", f"{overhead:+.1f}%",
            widths=[24, 10, 10])
    rep.line()
    rep.line(f"fleet: {len(RATES)} jobs x "
             f"{CYCLES['warmup'] + CYCLES['measure']} cycles on mesh-4, "
             f"{WORKERS} workers; serve side pays journal fsyncs, "
             f"per-attempt forks, heartbeat leases, and atomic cache "
             f"publication")
    rep.line("guarantee: the crash-tolerance tax stays under 5% of the "
             "bare pool's wall time")
    rep.save()

    assert overhead <= 5.0, (
        f"service dispatch costs {overhead:.1f}% over a bare "
        f"multiprocessing.Pool (budget: 5%)"
    )
