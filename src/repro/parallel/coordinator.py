"""Shard-run coordinator: spawn, supervise, restart, assemble.

``shard_run()`` is the sharded counterpart of
:func:`repro.sim.runner.run_simulation`: same traffic/run parameters,
same SimResult out — but the network is partitioned into row-band
shards, each stepped by a supervised worker process (repro.parallel.
worker). The coordinator never touches simulation state; all protocol
state lives in the run directory, so a killed coordinator (or a worker
SIGKILLed mid-window) resumes by re-invoking ``shard_run`` with the
same ``out_dir``.

Supervision mirrors repro.serve: a worker holds a lease via its
heartbeat file's mtime, and a *barrier watchdog* additionally requires
window/cycle progress whenever the heartbeat claims to be running — a
worker that heartbeats but stops advancing (wedged) is confirmed-killed
and restarted from its last checkpoint within one ``window_timeout``.
Workers legitimately blocked on a peer's exchange file report
``state="waiting"`` and are exempt from the progress check (the peer's
restart is what unblocks them).

The coordinator also owns the wake pipes (hints, never data — see
repro.parallel.exchange): one per reader shard, made before the first
spawn and held open at both ends until the run ends, so every attempt
of every shard inherits the same fds through ``fork``.
"""

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.checkpoint import (
    canonical_json,
    canonical_run_spec,
    config_hash,
)
from repro.obs.artifacts import atomic_write
from repro.parallel.exchange import EXCH_DIR
from repro.parallel.merge import assemble_result
from repro.parallel.partition import ShardPlan
from repro.parallel.worker import (
    CKPT_DIR,
    CKPT_SCHEMA,
    CONTROL_DIR,
    END_STATES,
    FINAL_DIR,
    HB_DIR,
    _FINAL_MAGIC,
    drain_flag_path,
    final_path,
    heartbeat_path,
    load_payload_gz,
    outcome_path,
    run_shard_worker,
)
from repro.proc import confirmed_kill, file_age, read_outcome, wait_for_exit
from repro.traffic.injection import FixedLength

_RUN_MAGIC = "repro-shard-run"


class ShardRunError(RuntimeError):
    """The sharded run cannot proceed (bad directory, restart budget
    exhausted, or inconsistent shard output)."""


@dataclass
class ShardRunResult:
    """Outcome of one ``shard_run`` invocation.

    ``status`` is ``"done"`` (``result``/``digest_root`` populated) or
    ``"drained"`` (graceful shutdown — every shard checkpointed its
    window-start state; re-invoke with the same ``out_dir`` to resume).
    """

    status: str
    shards: int
    window: int
    out_dir: str
    result: object = None
    digest_root: str = None
    cycles: int = None
    restarts: int = 0
    timers: dict = field(default_factory=dict)


def _journal_append(path, event, **fields):
    record = {"t": time.time(), "event": event}
    record.update(fields)
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def _load_final(out_dir, shard, expected_hash):
    """The shard's final payload if present and valid, else None."""
    path = final_path(out_dir, shard)
    if not os.path.exists(path):
        return None
    try:
        payload = load_payload_gz(path)
    except (OSError, EOFError, json.JSONDecodeError):
        return None
    if (payload.get("magic") != _FINAL_MAGIC
            or payload.get("schema") != CKPT_SCHEMA
            or payload.get("config_hash") != expected_hash
            or payload.get("shard") != shard):
        return None
    return payload


def single_process_run(config, pattern="uniform", rate=0.2, packet_length=1,
                       lengths=None, warmup=1000, measure=3000, drain=2000,
                       seed=None):
    """Single-process run of the same parameters, returning
    ``(SimResult, digest_root)`` — the equivalence oracle for
    :func:`shard_run`. Resets the global packet-id counter first, as a
    fresh worker process would."""
    import random as _random

    from repro.network.flit import set_next_packet_id
    from repro.network.network import build_network
    from repro.obs.digest import digest_network
    from repro.sim.runner import SimulationRun
    from repro.traffic.injection import BernoulliInjector
    from repro.traffic.patterns import build_pattern

    if seed is not None:
        from dataclasses import replace

        config = replace(config, seed=seed)
    dist = lengths if lengths is not None else FixedLength(packet_length)
    set_next_packet_id(0)
    net = build_network(config)
    traffic_rng = _random.Random(config.seed + 0x5EED)
    pattern_obj = build_pattern(pattern, net.num_terminals, traffic_rng)
    injector = BernoulliInjector(net.num_terminals, pattern_obj, rate, dist,
                                 traffic_rng)
    run = SimulationRun(net, injector, warmup, measure, drain)
    result = run.execute()
    return result, digest_network(net, injector, observers=True)["root"]


def shard_run(config, pattern="uniform", rate=0.2, packet_length=1,
              lengths=None, warmup=1000, measure=3000, drain=2000,
              seed=None, shards=2, out_dir=None, window=None,
              checkpoint_windows=None, max_restarts=3, lease_timeout=15.0,
              window_timeout=60.0, poll=0.02, grace=2.0, chaos=None,
              metrics=None):
    """Run one experiment sharded across supervised worker processes.

    Returns a :class:`ShardRunResult` whose SimResult, metrics export,
    and digest root are bit-identical to the single-process
    ``run_simulation`` of the same parameters. ``out_dir`` holds all
    protocol state (exchange files, checkpoints, finals, journal); a
    fresh temporary directory is created when omitted. Re-invoking with
    an existing ``out_dir`` resumes: shards with valid finals are
    skipped, the rest restart from their newest checkpoints.

    ``chaos`` maps shard id to a fault-injection dict (see
    repro.parallel.worker) applied on that shard's first attempt only —
    test/CI plumbing for the restart path.
    """
    if seed is not None:
        from dataclasses import replace

        config = replace(config, seed=seed)
    dist = lengths if lengths is not None else FixedLength(packet_length)
    plan = ShardPlan(config, shards)
    win = plan.window_for(window)
    run_spec = canonical_run_spec(pattern, rate, dist, warmup, measure, drain)
    expected_hash = config_hash(config, run_spec)
    chaos = {int(k): dict(v) for k, v in (chaos or {}).items()}

    if out_dir is None:
        import tempfile

        out_dir = tempfile.mkdtemp(prefix="repro-shard-")
    for sub in (CKPT_DIR, FINAL_DIR, HB_DIR, CONTROL_DIR):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    # A drain request addresses one invocation; a flag left by a
    # previous (drained) run must not stop the resume immediately.
    try:
        os.unlink(drain_flag_path(out_dir))
    except OSError:
        pass
    for i in range(shards):
        os.makedirs(os.path.join(out_dir, EXCH_DIR, f"s{i}"), exist_ok=True)

    run_meta_path = os.path.join(out_dir, "run.json")
    run_meta = {
        "magic": _RUN_MAGIC,
        "config": config.to_dict(),
        "run_spec": run_spec,
        "config_hash": expected_hash,
        "shards": shards,
        "window": win,
        "plan": plan.describe(),
    }
    if os.path.exists(run_meta_path):
        with open(run_meta_path) as fh:
            existing = json.load(fh)
        for key in ("config_hash", "shards", "window"):
            if existing.get(key) != run_meta[key]:
                raise ShardRunError(
                    f"out_dir {out_dir} belongs to a different run: "
                    f"{key} is {existing.get(key)!r}, expected "
                    f"{run_meta[key]!r}"
                )
    else:
        with atomic_write(run_meta_path) as fh:
            fh.write(canonical_json(run_meta))
            fh.write("\n")
    journal = os.path.join(out_dir, "journal.jsonl")

    import multiprocessing

    # The simulation core is imported (through repro.parallel.worker)
    # before the first fork: workers of every attempt inherit it
    # instead of each compiling its own copy.
    ctx = multiprocessing.get_context("fork")
    config_dict = config.to_dict()
    attempts = {i: 0 for i in range(shards)}
    handles = {}
    finals = {}
    restarts_total = 0

    pending = set()
    for i in range(shards):
        payload = _load_final(out_dir, i, expected_hash)
        if payload is not None:
            finals[i] = payload
            _journal_append(journal, "resume_skip", shard=i)
        else:
            pending.add(i)

    def spawn(i):
        attempts[i] += 1
        options = {
            "shards": shards,
            "window": win,
            "checkpoint_windows": checkpoint_windows,
            "chaos": chaos.get(i) if attempts[i] == 1 else None,
            "wake_fd": wake[i][0],
            "peer_wake_fds": [w for j, (_r, w) in enumerate(wake) if j != i],
        }
        proc = ctx.Process(
            target=run_shard_worker,
            args=(out_dir, config_dict, run_spec, i, attempts[i], options),
            daemon=True,
        )
        proc.start()
        now = time.monotonic()
        handles[i] = {"proc": proc, "attempt": attempts[i], "spawned": now,
                      "progress": None, "progress_t": now}
        _journal_append(journal, "spawn", shard=i, attempt=attempts[i],
                        pid=proc.pid)

    def restart(i, reason):
        nonlocal restarts_total
        restarts_total += 1
        _journal_append(journal, "restart", shard=i,
                        attempt=attempts[i], reason=reason)
        if attempts[i] > max_restarts:
            for other in pending:
                proc = handles.get(other, {}).get("proc")
                if proc is not None and proc.is_alive():
                    confirmed_kill(proc, grace=grace)
            raise ShardRunError(
                f"shard {i} exceeded max_restarts={max_restarts} "
                f"(last failure: {reason})"
            )
        spawn(i)

    def drain_requested():
        return os.path.exists(drain_flag_path(out_dir))

    previous_sigterm = None
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        def _request_drain(*_args):
            flag = drain_flag_path(out_dir)
            with atomic_write(flag) as fh:
                fh.write("drain\n")

        previous_sigterm = signal.signal(signal.SIGTERM, _request_drain)

    drained_mode = False
    wake = [os.pipe() for _ in range(shards)]  # (read, write) per reader
    wake_fds = [fd for pair in wake for fd in pair]
    try:
        for fd in wake_fds:
            os.set_blocking(fd, False)
        for i in sorted(pending):
            spawn(i)
        while pending:
            if not drained_mode and drain_requested():
                drained_mode = True
                _journal_append(journal, "drain_begin")
                for i in pending:
                    proc = handles[i]["proc"]
                    if proc.is_alive():
                        try:
                            proc.terminate()  # SIGTERM: graceful drain
                        except (OSError, ValueError):
                            pass
            for i in sorted(pending):
                info = handles[i]
                proc = info["proc"]
                if not proc.is_alive():
                    proc.join()
                    out = read_outcome(
                        outcome_path(out_dir, i, info["attempt"])
                    )
                    if out is not None and out.get("ok"):
                        payload = _load_final(out_dir, i, expected_hash)
                        if payload is not None:
                            finals[i] = payload
                            pending.discard(i)
                            _journal_append(journal, "finalized", shard=i,
                                            attempt=info["attempt"],
                                            cycle=out.get("cycle"))
                            continue
                        reason = "ok outcome but final payload missing"
                    elif out is not None and out.get("drained"):
                        if drained_mode:
                            pending.discard(i)
                            _journal_append(journal, "drained", shard=i,
                                            attempt=info["attempt"],
                                            window=out.get("window"))
                            continue
                        reason = "drain exit without a drain request"
                    elif out is not None:
                        reason = out.get("error", "worker error")
                    else:
                        reason = f"hard death (exit code {proc.exitcode})"
                    if drained_mode:
                        # Shutting down anyway: the shard's checkpoints
                        # carry the resume; don't respawn.
                        pending.discard(i)
                        _journal_append(journal, "died_during_drain",
                                        shard=i, reason=reason)
                        continue
                    restart(i, reason)
                    continue
                # Lease: the heartbeat file's mtime is the liveness claim.
                hb_path = heartbeat_path(out_dir, i, info["attempt"])
                age = file_age(hb_path)
                if age is None:
                    age = time.monotonic() - info["spawned"]
                if age > lease_timeout:
                    confirmed_kill(proc, grace=grace)
                    restart(i, "lease_expired")
                    continue
                # Barrier watchdog: the pulse thread keeps the lease
                # fresh even in a wedged worker, so stall detection is
                # positional — a worker must advance its (window,
                # cycle, state) within window_timeout. Only waiting on
                # a peer's exchange file is exempt: that stall is the
                # *peer's* fault, and restarting the peer unblocks it.
                # An attempt that published its end state is past
                # stalling; only the lease bounds how long it may linger.
                hb = read_outcome(hb_path) or {}
                blocked_on_peer = (
                    hb.get("state") == "waiting"
                    and hb.get("awaiting") is not None
                    and not os.path.exists(
                        os.path.join(out_dir, hb["awaiting"]))
                )
                ended = hb.get("state") in END_STATES.values()
                if hb.get("state") is None or blocked_on_peer or ended:
                    info["progress_t"] = time.monotonic()
                else:
                    position = (hb.get("window"), hb.get("cycle"),
                                hb.get("state"))
                    if position != info["progress"]:
                        info["progress"] = position
                        info["progress_t"] = time.monotonic()
                    elif time.monotonic() - info["progress_t"] > window_timeout:
                        confirmed_kill(proc, grace=grace)
                        restart(i, "wedged")
                        continue
            if pending:
                wait_for_exit([handles[i]["proc"] for i in pending], poll)
    finally:
        for fd in wake_fds:
            os.close(fd)
        if on_main_thread and previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)

    if drained_mode:
        _journal_append(journal, "drain_complete")
        return ShardRunResult(status="drained", shards=shards, window=win,
                              out_dir=out_dir, restarts=restarts_total)

    payloads = []
    for i in range(shards):
        payload = finals.get(i) or _load_final(out_dir, i, expected_hash)
        if payload is None:
            raise ShardRunError(f"shard {i} completed without a valid final")
        payloads.append(payload)
    result, digest_root, net, _injector = assemble_result(
        config, run_spec, plan, payloads, metrics=metrics
    )

    timers = {}
    for payload in payloads:
        for key, value in (payload.get("timers") or {}).items():
            timers[key] = timers.get(key, 0.0) + value
    _journal_append(journal, "assembled", cycle=net.cycle,
                    digest_root=digest_root, restarts=restarts_total)
    summary_path = os.path.join(out_dir, "result.json")
    with atomic_write(summary_path) as fh:
        fh.write(canonical_json({
            "digest_root": digest_root,
            "cycles": net.cycle,
            "drained": result.drained,
            "drain_cycles": result.drain_cycles,
            "avg_throughput": result.avg_throughput,
            "min_throughput": result.min_throughput,
            "avg_packet_latency": result.packet_latency.mean,
            "restarts": restarts_total,
            "timers": timers,
        }))
        fh.write("\n")
    return ShardRunResult(
        status="done", shards=shards, window=win, out_dir=out_dir,
        result=result, digest_root=digest_root, cycles=net.cycle,
        restarts=restarts_total, timers=timers,
    )
