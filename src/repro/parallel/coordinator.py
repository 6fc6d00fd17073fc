"""Shard-run coordinator: spawn, supervise, restart, assemble.

``shard_run()`` is the sharded counterpart of
:func:`repro.sim.runner.run_simulation`: same traffic/run parameters,
same SimResult out — but the network is partitioned into row-band
shards, each stepped by a supervised worker process (repro.parallel.
worker). The coordinator never touches simulation state; all protocol
state lives in the run directory, so a killed coordinator resumes by
re-invoking ``shard_run`` with the same ``out_dir``: shards with a
valid final are done, and every other shard replays from cycle 0.

Each shard attempt is one supervised attempt of :mod:`repro.proc`, the
primitive repro.serve's jobs use too: one spawn, one heartbeat lease,
one reap verdict. A worker that dies, fails, or stops beating for
``lease_timeout`` is confirmed-killed; the coordinator's own policy is
to restart it, replaying from cycle 0, up to ``max_restarts`` times,
and to accept an ``ok`` outcome only with a valid final payload. A
worker blocked on a peer's exchange file keeps beating while it waits,
so only the peer's lease runs out. There is no graceful stop: SIGTERM or Ctrl-C
kills the run, and rerunning on the same ``out_dir`` is the one way
to resume.

The coordinator also owns the wake pipes (hints, never data — see
repro.parallel.exchange): one per reader shard, made before the first
spawn and held open at both ends until the run ends, so every attempt
of every shard inherits the same fds through ``fork``.
"""

import json
import os
import time
from dataclasses import dataclass, field

from repro.checkpoint import canonical_json, config_hash
from repro.network.flit import set_next_packet_id
from repro.obs.artifacts import atomic_write
from repro.obs.digest import digest_network
from repro.obs.trace import append_jsonl
from repro.parallel.exchange import EXCH_DIR
from repro.parallel.merge import assemble_result
from repro.parallel.partition import ShardPlan
from repro.parallel.worker import (
    FINAL_DIR,
    FINAL_SCHEMA,
    _FINAL_MAGIC,
    final_path,
    load_payload_gz,
    run_shard_worker,
)
from repro.proc import confirmed_kill, spawn_attempt, wait_for_exit
from repro.sim.runner import build_run, config_and_spec

_RUN_MAGIC = "repro-shard-run"


class ShardRunError(RuntimeError):
    """The sharded run cannot proceed (bad directory, restart budget
    exhausted, or inconsistent shard output)."""


@dataclass
class ShardRunResult:
    """Outcome of one completed ``shard_run`` invocation.

    ``status`` is always ``"done"``: a run that cannot finish raises
    :class:`ShardRunError`, and a killed one is resumed by re-invoking
    ``shard_run`` with the same ``out_dir``.
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
            or payload.get("schema") != FINAL_SCHEMA
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
    config, run_spec = config_and_spec(config, seed, pattern, rate,
                                       packet_length, lengths, warmup,
                                       measure, drain)
    set_next_packet_id(0)
    run = build_run(config, run_spec)
    result = run.execute()
    root = digest_network(run.network, run.injector, observers=True)["root"]
    return result, root


def shard_run(config, pattern="uniform", rate=0.2, packet_length=1,
              lengths=None, warmup=1000, measure=3000, drain=2000,
              seed=None, shards=2, out_dir=None, window=None,
              max_restarts=3, lease_timeout=15.0, poll=0.02, grace=2.0,
              chaos=None, metrics=None):
    """Run one experiment sharded across supervised worker processes.

    Returns a :class:`ShardRunResult` whose SimResult, metrics export,
    and digest root are bit-identical to the single-process
    ``run_simulation`` of the same parameters. ``out_dir`` holds all
    protocol state (exchange files, finals, journal); a fresh temporary
    directory is created when omitted. Re-invoking with an existing
    ``out_dir`` resumes: shards with valid finals are skipped, the rest
    replay from cycle 0 against the exchange files already published.

    ``lease_timeout`` must exceed a worker's longest beat-free section
    (DESIGN.md §11 has the measured ones).

    ``chaos`` maps shard id to a fault-injection dict (see
    repro.parallel.worker) applied on that shard's first attempt only —
    test/CI plumbing for the restart path.
    """
    config, run_spec = config_and_spec(config, seed, pattern, rate,
                                       packet_length, lengths, warmup,
                                       measure, drain)
    plan = ShardPlan(config, shards)
    win = plan.window_for(window)
    expected_hash = config_hash(config, run_spec)
    chaos = {int(k): dict(v) for k, v in (chaos or {}).items()}

    if out_dir is None:
        import tempfile

        out_dir = tempfile.mkdtemp(prefix="repro-shard-")
    os.makedirs(os.path.join(out_dir, FINAL_DIR), exist_ok=True)
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
            append_jsonl(journal, {"t": time.time(), "event": "resume_skip",
                                   "shard": i})
        else:
            pending.add(i)

    def spawn(i):
        attempts[i] += 1
        options = {
            "shards": shards,
            "window": win,
            "chaos": chaos.get(i) if attempts[i] == 1 else None,
            "wake_fd": wake[i][0],
            "peer_wake_fds": [w for j, (_r, w) in enumerate(wake) if j != i],
        }
        handles[i] = spawn_attempt(
            ctx, out_dir, f"s{i}", attempts[i], run_shard_worker,
            (out_dir, config_dict, run_spec, i, attempts[i], options),
        )
        append_jsonl(journal, {"t": time.time(), "event": "spawn", "shard": i,
                               "attempt": attempts[i],
                               "pid": handles[i].pid})

    def restart(i, reason):
        nonlocal restarts_total
        restarts_total += 1
        append_jsonl(journal, {"t": time.time(), "event": "restart",
                               "shard": i, "attempt": attempts[i],
                               "reason": reason})
        if attempts[i] > max_restarts:
            for other in pending:
                if other in handles and handles[other].alive():
                    confirmed_kill(handles[other].process, grace=grace)
            raise ShardRunError(
                f"shard {i} exceeded max_restarts={max_restarts} "
                f"(last failure: {reason})"
            )
        spawn(i)

    wake = [os.pipe() for _ in range(shards)]  # (read, write) per reader
    wake_fds = [fd for pair in wake for fd in pair]
    try:
        for fd in wake_fds:
            os.set_blocking(fd, False)
        for i in sorted(pending):
            spawn(i)
        while pending:
            for i in sorted(pending):
                handle = handles[i]
                verdict = handle.reap(lease_timeout, grace=grace)
                if verdict is None:
                    continue
                kind, out = verdict
                if kind == "outcome" and out.get("ok"):
                    payload = _load_final(out_dir, i, expected_hash)
                    if payload is not None:
                        finals[i] = payload
                        pending.discard(i)
                        append_jsonl(journal, {
                            "t": time.time(), "event": "finalized",
                            "shard": i, "attempt": handle.attempt,
                            "cycle": out.get("cycle")})
                        continue
                    reason = "ok outcome but final payload missing"
                elif kind == "outcome":
                    reason = out.get("error", "worker error")
                elif kind == "died":
                    code = handle.process.exitcode
                    reason = f"hard death (exit code {code})"
                else:
                    reason = "lease_expired"
                restart(i, reason)
            if pending:
                wait_for_exit([handles[i].process for i in pending], poll)
    finally:
        for fd in wake_fds:
            os.close(fd)

    payloads = []
    for i in range(shards):
        payload = finals.get(i) or _load_final(out_dir, i, expected_hash)
        if payload is None:
            raise ShardRunError(f"shard {i} completed without a valid final")
        payloads.append(payload)
    result, digest_root = assemble_result(config, run_spec, plan, payloads,
                                          metrics=metrics)

    timers = {}
    for payload in payloads:
        for key, value in (payload.get("timers") or {}).items():
            timers[key] = timers.get(key, 0.0) + value
    append_jsonl(journal, {"t": time.time(), "event": "assembled",
                           "cycle": result.cycles_run,
                           "digest_root": digest_root,
                           "restarts": restarts_total})
    summary_path = os.path.join(out_dir, "result.json")
    with atomic_write(summary_path) as fh:
        fh.write(canonical_json({
            "digest_root": digest_root,
            "cycles": result.cycles_run,
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
        result=result, digest_root=digest_root, cycles=result.cycles_run,
        restarts=restarts_total, timers=timers,
    )
