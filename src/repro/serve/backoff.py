"""Deterministic jittered exponential backoff.

The experiment service's job scheduler waits between attempts of a
job that just failed; sweeps (``parallel_sweep``/``parallel_matrix``)
are service jobs, so this is the one retry scheme. The delay schedule
here is the usual exponential-with-jitter, but the jitter is
*deterministic*: it is drawn from a :class:`random.Random` seeded from
the job's spec hash and the attempt number, so a re-run of the same
sweep (or a restarted service replaying the same job) produces
byte-for-byte the same retry timeline. Determinism is a
repository-wide invariant — retries must not be the one place wall
behaviour depends on a process-global RNG.

Jitter still does its real job (decorrelating many items retrying at
once) because different keys seed different streams.
"""

import hashlib
import random
from dataclasses import dataclass


def _jitter_rng(key, attempt):
    seed = int.from_bytes(
        hashlib.sha256(f"{key}|{attempt}".encode("utf-8")).digest()[:8],
        "big",
    )
    return random.Random(seed)


@dataclass(frozen=True)
class RetryPolicy:
    """Delay schedule for retrying one failed unit of work.

    ``delay(key, attempt)`` is the seconds to wait before retry number
    ``attempt`` (1 = the first retry) of the item identified by
    ``key``: ``base * factor**(attempt-1)`` capped at ``cap``, scaled
    by a deterministic jitter factor uniform in
    ``[1 - jitter, 1 + jitter]`` seeded from ``(key, attempt)``.
    """

    base: float = 0.1
    factor: float = 2.0
    cap: float = 30.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.base < 0 or self.cap < 0:
            raise ValueError("base and cap must be >= 0")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, key, attempt):
        """Seconds to wait before retry ``attempt`` (>= 1) of ``key``."""
        if attempt < 1:
            raise ValueError("attempt numbering starts at 1")
        raw = min(self.cap, self.base * self.factor ** (attempt - 1))
        if raw <= 0:
            return 0.0
        span = 2.0 * self.jitter * _jitter_rng(key, attempt).random()
        return raw * (1.0 - self.jitter + span)

    def schedule(self, key, retries):
        """The full delay sequence for ``retries`` retry attempts."""
        return [self.delay(key, attempt) for attempt in range(1, retries + 1)]


#: Default policy of the experiment service (and so of every sweep).
DEFAULT_RETRY_POLICY = RetryPolicy()
