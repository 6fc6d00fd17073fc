"""One supervised attempt: the process primitive of repro.serve and
repro.parallel.

A supervisor — the experiment service running a job, the shard
coordinator running a shard — forks one process per *attempt* and talks
to it only through two files under ``<root>/hb/``, named by
:func:`attempt_paths`; there is no pipe or queue to lose when either
side is SIGKILLed:

- ``<name>.a<N>.hb.json`` — the :class:`Heartbeat`. Its mtime is the
  lease; its small JSON body tells a person reading the directory where
  the attempt is; a simulation beats it through :class:`BeatProbe`
  (``repro run --heartbeat`` writes the same file). A lease needs to be
  fresh, not durable (nothing reads it after a host crash), so it is
  renamed into place without an fsync.
- ``<name>.a<N>.out.json`` — the outcome (:func:`write_outcome`), the
  child's last act, written with ``atomic_write``: present and ``ok``
  means success, present and not ``ok`` carries the diagnostic, absent
  after the process exited means the child died hard.

The attempt number in both names keeps a straggling old attempt from
being mistaken for the current one.

Parent side: :func:`spawn_attempt` forks and returns an :class:`Attempt`
handle. Its :meth:`~Attempt.reap` is the one verdict: outcome present,
died without an outcome, or lease expired under the one rule
(:meth:`~Attempt.lease_age`), in which case the process is
:func:`confirmed_kill`-ed so two attempts of one unit never overlap.
Child side: :func:`run_attempt` is the one entry wrapper
(:func:`die_with_parent`, default SIGTERM/SIGINT, any exception turned
into a not-``ok`` outcome, ``os._exit`` when forked). Each supervisor
keeps only its policy: serve its journal, retries, dead-lettering and
cache; the coordinator its restart-from-checkpoint. Supervisors sleep
on their attempts' process sentinels (:func:`wait_for_exit`), not on a
timer.

The lease must exceed the attempt's longest beat-free section (DESIGN.md
§11 has the measured ones).
"""

import errno
import json
import os
import signal
import sys
import time

from repro.obs.artifacts import atomic_write

HB_DIR = "hb"


def attempt_paths(root, name, attempt):
    """``(heartbeat, outcome)`` paths of attempt ``attempt`` of ``name``."""
    stem = os.path.join(root, HB_DIR, f"{name}.a{attempt}")
    return stem + ".hb.json", stem + ".out.json"


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
    with atomic_write(path) as fh:
        json.dump(fields, fh, separators=(",", ":"))
        fh.write("\n")


def file_age(path, now=None):
    """Seconds since ``path`` was last touched, or None if unreadable.

    Clamped at 0, so a file written after ``now`` was sampled never
    reports a negative age.
    """
    try:
        mtime = os.stat(path).st_mtime
    except OSError:
        return None
    return max(0.0, (time.time() if now is None else now) - mtime)


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


class Heartbeat:
    """Atomic single-file heartbeat: mtime is the lease, the JSON body
    (name, attempt, pid, plus whatever the attempt reports — state,
    window, cycle, awaiting) tells a person reading the run directory
    where the attempt is.

    Published by rename without an fsync — nothing reads a lease after
    a host crash, and the rename alone keeps readers from seeing a
    partial file — and throttled to ``min_interval``, so a per-cycle
    beat costs an in-memory field update, not a disk write. A ``path``
    of None keeps the throttle and writes nothing (``repro run
    --progress`` without ``--heartbeat``).
    """

    def __init__(self, path, name, attempt, min_interval=0.2):
        self.path = path
        self.min_interval = min_interval
        self._last = 0.0
        self._fields = {"name": name, "attempt": attempt,
                        "pid": os.getpid()}

    def beat(self, force=False, **fields):
        """Record ``fields``; publish them unless the throttle holds
        this beat back. Returns True when the beat was published."""
        self._fields.update(fields)
        now = time.monotonic()
        if not force and now - self._last < self.min_interval:
            return False
        self._last = now
        if self.path is not None:
            with atomic_write(self.path, fsync=False) as fh:
                json.dump(dict(self._fields, t=time.time()), fh)
        return True


class BeatProbe:
    """The one beat probe: a run probe (``repro.sim.runner.Probe``) due
    every cycle that offers each cycle to a :class:`Heartbeat`, whose
    wall-time throttle decides which beats reach the disk. Every serve
    attempt and ``repro run --progress/--heartbeat`` run one.

    ``start`` beats ``state`` and ``total_cycles`` (the phase schedule;
    the drain may end early), each cycle ``cycle`` and ``phase``, and
    ``finish`` a forced beat naming how the run ended (``done``,
    ``killed`` or ``failed``), so the artifact write and cache publish
    that follow a serve attempt's run start on a fresh lease. With a
    ``console`` each published beat also redraws one status line there
    (cycle/total, cycles/sec and ETA since ``start``), ended by a
    newline at ``finish``.
    """

    def __init__(self, heartbeat, console=None):
        self.heartbeat = heartbeat
        self.console = console
        self._origin = None  # (monotonic time, cycle) at start

    def start(self, run):
        cycle = run.network.cycle
        self.total_cycles = run.warmup + run.measure + run.drain
        self._origin = (time.monotonic(), cycle)
        self.heartbeat.beat(state="running", total_cycles=self.total_cycles)
        self.due = cycle + 1

    def on_cycle(self, run):
        cycle = run.network.cycle
        self.due = cycle + 1
        if (self.heartbeat.beat(cycle=cycle, phase=run.phase)
                and self.console is not None):
            self._draw(cycle)

    def finish(self, run, status, result):
        cycle = run.network.cycle
        self.heartbeat.beat(force=True, state=status, cycle=cycle)
        # A probe listed before this one can fail in start, before ours.
        if self.console is not None and self._origin is not None:
            self._draw(cycle)
            self.console.write("\n")
            self.console.flush()

    def _draw(self, cycle):
        started, first = self._origin
        elapsed = time.monotonic() - started
        rate = (cycle - first) / elapsed if elapsed > 0 else 0.0
        eta = f"{(self.total_cycles - cycle) / rate:.0f}s" if rate else "-"
        self.console.write(f"\rcycle {cycle}/{self.total_cycles}"
                           f"  {rate:.0f} cycles/sec  eta {eta}  ")
        self.console.flush()


class Attempt:
    """Supervisor-side handle of one forked attempt."""

    def __init__(self, process, root, name, attempt, spawned):
        self.process = process
        self.name = name
        self.attempt = attempt
        self.hb_path, self.out_path = attempt_paths(root, name, attempt)
        #: Wall-clock spawn time: the lease counts from here until the
        #: first beat.
        self.spawned = spawned

    @property
    def pid(self):
        return self.process.pid

    def alive(self):
        return self.process.is_alive()

    def outcome(self):
        return read_outcome(self.out_path)

    def lease_age(self, now=None):
        """Seconds since the later of the attempt's spawn and its last
        beat: the one lease rule.

        ``now`` is wall-clock (``time.time``) seconds, the domain of
        heartbeat mtimes. Counting from the spawn covers an attempt that
        wedges before its first beat, and a heartbeat file older than
        the spawn (left at the same path by a killed run, whose attempts
        were numbered from 1 too) is not a lease.
        """
        now = time.time() if now is None else now
        age = now - self.spawned
        beat = file_age(self.hb_path, now=now)
        return age if beat is None else min(age, beat)

    def reap(self, lease_timeout, now=None, grace=2.0):
        """The attempt's verdict, or None while it is running and beating.

        ``("outcome", dict)`` — the outcome file is present;
        ``("died", None)`` — the process exited without one (its exit
        code is ``process.exitcode``); ``("expired", None)`` — no beat
        for ``lease_timeout`` seconds, and the process is confirmed
        killed. The process is joined in every case.
        """
        # Liveness first: a process already dead here wrote whatever
        # outcome it ever will, so the read below cannot miss one.
        alive = self.alive()
        outcome = self.outcome()
        if outcome is not None:
            # The outcome is the attempt's last act; let it finish exiting.
            self.process.join()
            return "outcome", outcome
        if not alive:
            self.process.join()
            return "died", None
        if self.lease_age(now) > lease_timeout:
            confirmed_kill(self.process, grace=grace)
            return "expired", None
        return None


def spawn_attempt(mp_context, root, name, attempt, target, args,
                  spawned=None):
    """Fork ``target(*args)`` as attempt ``attempt`` of ``name``; returns
    its :class:`Attempt`. ``target`` calls :func:`run_attempt`."""
    process = mp_context.Process(
        target=target, args=args, name=f"repro-{name}-a{attempt}",
        daemon=True,
    )
    process.start()
    return Attempt(process, root, name, attempt,
                   time.time() if spawned is None else spawned)


def run_attempt(root, name, attempt, body, hard_exit=True):
    """Child-side entry of one attempt: ``body(heartbeat, outcome_path)``.

    Arms :func:`die_with_parent` and restores the default SIGTERM/SIGINT
    (a fork inherits the supervisor's handlers; a signal ends the
    attempt like any crash). Beats before ``body`` runs and once more,
    forced, after it, naming how the attempt ended (``done`` or
    ``failed``). An exception from ``body`` becomes a not-``ok`` outcome;
    ``body`` writes its own ``ok`` one. Returns True on success.

    ``hard_exit`` ends the process with ``os._exit``: a forked attempt
    has nothing of its own to finalize, and interpreter teardown would
    walk the copy-on-write heap inherited from the supervisor — CPU
    stolen from sibling attempts on small hosts. Tests pass False to run
    an attempt in-process.
    """
    die_with_parent()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    started = time.monotonic()
    hb_path, out_path = attempt_paths(root, name, attempt)
    os.makedirs(os.path.dirname(hb_path), exist_ok=True)
    heartbeat = Heartbeat(hb_path, name, attempt)
    heartbeat.beat(force=True, state="constructing")
    try:
        body(heartbeat, out_path)
        ok = True
    except Exception as exc:
        import traceback

        write_outcome(out_path, ok=False,
                      error=f"{type(exc).__name__}: {exc}",
                      traceback=traceback.format_exc(),
                      wall_time=time.monotonic() - started)
        ok = False
    # The throttle can swallow every beat of a short attempt; the forced
    # last one says how it ended instead of "constructing" forever.
    heartbeat.beat(force=True, state="done" if ok else "failed")
    if hard_exit:
        os._exit(0 if ok else 1)
    return ok
