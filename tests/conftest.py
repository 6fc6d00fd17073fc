"""Shared test configuration."""

import os
import signal

import pytest
from hypothesis import HealthCheck, settings

# Simulation-backed property tests have irregular per-example runtimes
# (cycle loops, cache warmup); wall-clock deadlines only produce flakes
# on loaded machines.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Manual / CI soak of the generated differential tests (hundreds of
# fresh whole-network examples instead of tier-1's derandomised slice):
# ``pytest --hypothesis-profile soak tests/test_fastcore_equivalence.py``
# (and ``tests/test_shard.py -k generated``).
settings.register_profile(
    "soak", settings.get_profile("repro"), max_examples=300,
)
settings.load_profile("repro")

# Per-test wall-clock budget, so one hung simulation cannot wedge the
# whole suite (CI runs with a job timeout; this localizes the failure
# to the guilty test). SIGALRM only exists on POSIX; elsewhere the
# budget is simply not enforced.
TEST_TIMEOUT = int(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if TEST_TIMEOUT <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded the {TEST_TIMEOUT}s per-test timeout"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
