"""Process-supervision primitives shared by repro.serve and repro.parallel.

Extracted from ``repro.serve.supervisor`` so any subsystem that runs
supervised child processes — the experiment service's job workers, the
sharded-simulation shard workers — uses one implementation of the
file-based signalling pattern:

- **PDEATHSIG** (:func:`die_with_parent`): children die with their
  supervisor instead of orphaning (Linux, best effort).
- **Confirmed kill** (:func:`confirmed_kill`): SIGTERM → grace →
  SIGKILL → join, so a lease/window is only re-queued after its worker
  is provably gone and two attempts never overlap.
- **Atomic outcomes** (:func:`write_outcome` / :func:`read_outcome`):
  the child's last act is one ``atomic_write`` of a JSON dict; present
  and ``ok`` means success, present and not ``ok`` carries the
  diagnostic, absent after process exit means the child died hard.
- **Liveness probes** (:func:`alive_pid`, :func:`file_age`): a
  heartbeat file's mtime age is the lease signal. A lease needs to be
  fresh, not durable — nothing reads it after a host crash — so shard
  heartbeats are renamed into place without an fsync.
- **Event-driven reaping** (:func:`wait_for_exit`): supervisors sleep
  on their workers' process sentinels, not on a timer.
"""

import errno
import json
import os
import signal
import sys
import time


def die_with_parent():
    """Arm PR_SET_PDEATHSIG so this process dies with its parent.

    Best effort and Linux-only: on other platforms (or sandboxed
    processes) children may orphan on supervisor SIGKILL, which is safe
    for both users — cache publication and exchange-file publication
    are atomic and idempotent.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, int(signal.SIGKILL), 0, 0, 0)  # PR_SET_PDEATHSIG
    except Exception:
        pass


def confirmed_kill(process, grace=2.0):
    """Ensure ``process`` is dead before returning (escalate to SIGKILL).

    The supervision invariant hangs off this: a lease is only re-queued
    after its worker is *confirmed* gone, so two attempts of one job
    can never run concurrently. SIGTERM first (grace seconds), then
    SIGKILL — which cannot be caught — then a blocking join.
    """
    if process.is_alive():
        try:
            process.terminate()
        except OSError as exc:  # already reaped elsewhere
            if exc.errno != errno.ESRCH:
                raise
        process.join(grace)
    if process.is_alive():
        process.kill()
        process.join()
    else:
        process.join()


def alive_pid(pid):
    """True when ``pid`` names a live process (used for lock takeover)."""
    if pid is None or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def read_outcome(path):
    """The worker's outcome dict, or None if absent/unreadable.

    Outcomes are written with ``atomic_write``, so an existing file is
    always complete; unreadable covers only foreign debris.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def write_outcome(path, **fields):
    """Atomically (and durably) publish a worker outcome file."""
    from repro.obs.artifacts import atomic_write

    with atomic_write(path) as fh:
        json.dump(fields, fh, separators=(",", ":"))
        fh.write("\n")


def file_age(path, now=None):
    """Seconds since ``path`` was last touched, or None if unreadable."""
    try:
        mtime = os.stat(path).st_mtime
    except OSError:
        return None
    return (time.time() if now is None else now) - mtime


def wait_for_exit(processes, timeout):
    """Sleep up to ``timeout`` seconds, waking early when any of
    ``processes`` exits: a finished worker is reaped when it exits, not
    at the next poll, and the supervisor idles between events instead of
    stealing CPU from the simulations (which matters on small hosts).
    """
    sentinels = [process.sentinel for process in processes]
    if not sentinels:
        time.sleep(timeout)
        return
    from multiprocessing.connection import wait

    wait(sentinels, timeout=timeout)
