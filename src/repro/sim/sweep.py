"""Saturation search over the injection rate."""

from repro.sim.runner import run_simulation


def find_saturation(config_factory, lo=0.05, hi=1.0, tol=0.02, **run_kwargs):
    """Binary-search the saturation injection rate.

    ``config_factory`` is a zero-argument callable returning a *fresh*
    NetworkConfig (router/allocator state must not leak between runs).
    Saturation is declared when accepted throughput falls short of the
    offered rate by more than 5% (the network cannot absorb the load).
    Returns (saturation_rate, accepted_throughput_at_saturation).
    """
    best_rate, best_tp = lo, 0.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        result = run_simulation(config_factory(), rate=mid, **run_kwargs)
        if result.avg_throughput >= 0.95 * mid:
            best_rate, best_tp = mid, result.avg_throughput
            lo = mid
        else:
            hi = mid
    return best_rate, best_tp
