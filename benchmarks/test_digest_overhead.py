"""State-digest overhead guarantees.

The DigestRecorder (``--digest`` / ``--digest-every``) hashes the whole
network's canonical ``state_dict`` state every N cycles. Two guarantees
back its "leave it on in CI" positioning:

- off by default is free: a run without probes pays one due-cycle
  compare per cycle (inside the baseline measured here), and attaching
  a recorder never perturbs simulation results — digesting is read-only;
- at the default 64-cycle stride the whole-run wall-clock overhead
  stays under 5% of the digest-free baseline.

The 64-stride overhead (~4%) is smaller than shared-runner timing
noise (±10% between back-to-back identical runs), so measuring it
directly would gate on luck. Instead the bench *amplifies* the signal:
it measures at ``digest_every=4`` — 16x the digests, an overhead far
above the noise floor — and scales by 16 to get the per-64-cycle
figure (digest cost per run is inversely proportional to the stride;
per-digest cost is stride-independent since periodic records hash only
simulation state, whose size does not grow with run length).

No CI job runs this bench.
"""

import time

from conftest import once, sim_cycles

import repro.network.flit as flitmod
from repro.network.config import mesh_config
from repro.obs.digest import DigestRecorder
from repro.sim.runner import run_simulation

CYCLES = sim_cycles(warmup=100, measure=600)
REPEATS = 5

#: Measurement stride and the factor scaling its overhead to the
#: default 64-cycle stride (64 / MEASURE_EVERY).
MEASURE_EVERY = 4
AMPLIFICATION = 64 // MEASURE_EVERY


def timed_run(digest_every):
    # Fresh pid stream per run so digested state (which includes packet
    # ids) is reproducible and the on/off results comparable.
    flitmod.set_next_packet_id(0)
    cfg = mesh_config(mesh_k=4, chaining="any_input", seed=11)
    start = time.perf_counter()
    result = run_simulation(
        cfg, rate=0.6, warmup=CYCLES["warmup"], measure=CYCLES["measure"],
        drain=0,
        probes=[DigestRecorder(every=digest_every)] if digest_every else (),
    )
    return time.perf_counter() - start, result


def run_experiment():
    # Repeats interleave the two configurations so slow host drift
    # (shared runners, background load) hits both sides of each repeat
    # pair about equally; min-of-N is the noise-robust estimator.
    base_times, digest_times = [], []
    base = digested = None
    for _ in range(REPEATS):
        elapsed, base = timed_run(None)
        base_times.append(elapsed)
        elapsed, digested = timed_run(MEASURE_EVERY)
        digest_times.append(elapsed)
    base_time, digest_time = min(base_times), min(digest_times)
    # Digesting is read-only: simulation outcomes must be identical.
    assert digested.avg_throughput == base.avg_throughput
    assert digested.chain_stats.total_chains == base.chain_stats.total_chains
    assert digested.packet_latency == base.packet_latency
    return base_time, digest_time


def test_digest_overhead(benchmark, report):
    base_time, digest_time = once(benchmark, run_experiment)
    amplified = 100 * (digest_time / base_time - 1)
    derived = amplified / AMPLIFICATION

    rep = report("State-digest overhead at the default 64-cycle stride")
    rep.row("configuration", "seconds", "overhead", widths=[24, 10, 10])
    rep.row("no digests", f"{base_time:.3f}", "-", widths=[24, 10, 10])
    rep.row(f"digest_every={MEASURE_EVERY}", f"{digest_time:.3f}",
            f"{amplified:+.1f}%", widths=[24, 10, 10])
    rep.row("digest_every=64", "(derived)", f"{derived:+.1f}%",
            widths=[24, 10, 10])
    rep.line()
    rep.line(f"guarantee: hierarchical SHA-256 digests every 64 cycles "
             f"stay within 5% of the digest-free baseline and never "
             f"perturb simulation results (measured at "
             f"digest_every={MEASURE_EVERY} to lift the signal above "
             f"host timing noise, scaled by {AMPLIFICATION}x)")
    rep.save()

    assert derived <= 5.0, (
        f"digests at every=64 cost {derived:.1f}% "
        f"({amplified:.1f}% at every={MEASURE_EVERY}; budget: 5%)"
    )
