"""Versioned, deterministic checkpoint/restore of simulation state.

A checkpoint is one compressed JSON document capturing *everything* the
simulation needs to continue bit-identically: every router's VC
buffers, credit counters, connection/chaining registers and arbiter
pointers; every channel's in-flight flits and credits; terminal
sources/sinks; the StatsCollector; and every RNG stream
(``random.Random.getstate()`` round-tripped through JSON). Packets are
interned in a single table keyed by pid so the object graph (flits of
one packet share one Packet; a VC's ``active_packet`` is the same
object its flits reference) is rebuilt with identity intact.

The file carries a schema version and a config hash covering both the
NetworkConfig and the run spec (pattern, rate, lengths, phases); a
resume against a different configuration is refused rather than
silently producing a hybrid experiment. Checkpoints are taken *between*
cycles, so resuming re-executes exactly the cycles the killed process
lost — the restored run's SimResult, metrics export, and trace-event
stream are bit-identical to an uninterrupted run's (the chaos tests in
tests/test_resume_equivalence.py enforce this).

Deliberately excluded from snapshots (see DESIGN.md):

- fault injection and the reliable transport — refused, not dropped;
- observers (trace, profiler, invariants, the run's probes) — they
  attach to a restored run after the restore, as to a fresh one;
- wall-clock timing (``SimResult.timing``) — not deterministic anyway.
"""

import gzip
import hashlib
import json
import os

from repro.network.flit import (
    Flit,
    Packet,
    peek_next_packet_id,
    set_next_packet_id,
)
from repro.obs.artifacts import atomic_write
from repro.routing.torus_dor import TorusRouteState
from repro.routing.ugal import UGALState

#: Bump on any incompatible change to the checkpoint layout.
#: 2: routers serialize per-allocator request/grant counters
#:    (``alloc_counters``).
SCHEMA_VERSION = 2

_MAGIC = "repro-checkpoint"


# One shared encoder: json.dumps with keyword options builds a fresh
# JSONEncoder per call, which the per-cycle digest path would pay tens
# of thousands of times per run.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj):
    """The repository-wide canonical JSON encoding.

    Key-sorted, whitespace-free ``json.dumps`` — the one encoding used
    for checkpoint files, config hashes, and the per-component state
    digests in :mod:`repro.obs.digest`, so a hash of canonical JSON is
    stable across processes and dict insertion orders.
    """
    return _CANONICAL_ENCODER.encode(obj)


def canonical_sha256(obj):
    """Hex SHA-256 of an object's canonical JSON encoding."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


class CheckpointError(RuntimeError):
    """A checkpoint cannot be taken, read, or applied."""


class SimulationKilled(RuntimeError):
    """Raised by the chaos kill switch (:class:`repro.sim.runner.KillAt`).

    Used by the resume-equivalence tests and the CI smoke job to
    simulate a crash at an arbitrary cycle; the run dies *after* the
    given cycle completed, exactly as a SIGKILL between cycles would.
    """

    def __init__(self, cycle):
        super().__init__(f"simulation killed at cycle {cycle}")
        self.cycle = cycle


def refuse_unsnapshotable(faults, transport):
    """Refuse checkpoint/resume of a run with faults or a transport."""
    if faults is not None or transport is not None:
        raise CheckpointError(
            "checkpoint/resume does not support fault injection or a "
            "reliable transport (their state is not snapshotable)"
        )


# ---------------------------------------------------------------------------
# packet / flit / route-state serialization


def _route_state_to_json(state):
    if state is None:
        return None
    if isinstance(state, UGALState):
        return {
            "kind": "ugal",
            "phase": state.phase,
            "intermediate": state.intermediate,
            "minimal": state.minimal,
        }
    if isinstance(state, TorusRouteState):
        return {
            "kind": "torus",
            "crossed_dateline": state.crossed_dateline,
            "in_y": state.in_y,
        }
    if isinstance(state, tuple) and len(state) == 2 and state[0] == "y_detour":
        return {"kind": "y_detour", "port": state[1]}
    raise CheckpointError(
        f"cannot serialize route state {state!r} ({type(state).__name__})"
    )


def _route_state_from_json(data):
    if data is None:
        return None
    kind = data["kind"]
    if kind == "ugal":
        state = UGALState(data["minimal"], data["intermediate"])
        state.phase = data["phase"]
        return state
    if kind == "torus":
        state = TorusRouteState()
        state.crossed_dateline = data["crossed_dateline"]
        state.in_y = data["in_y"]
        return state
    if kind == "y_detour":
        return ("y_detour", data["port"])
    raise CheckpointError(f"unknown route state kind {kind!r}")


class SnapshotContext:
    """Interns shared Packet objects (by pid) while components serialize.

    Components call :meth:`flit` / :meth:`packet_ref`; the packet table
    accumulated in ``packets`` goes into the checkpoint once, however
    many flits or queue slots reference each packet.

    ``packet_cache`` shares the *serialized* packet dicts between
    several contexts taken at the same instant (the per-component
    digest path serializes each in-flight packet once per component
    that sees it); callers must not reuse a cache across simulated
    cycles — packets mutate between cycles.
    """

    def __init__(self, packet_cache=None):
        self.packets = {}
        self._cache = packet_cache

    def packet_ref(self, packet):
        pid = packet.pid
        if pid in self.packets:
            return pid
        if self._cache is not None:
            cached = self._cache.get(pid)
            if cached is not None:
                self.packets[pid] = cached
                return pid
        payload = packet.payload
        if payload is not None and not isinstance(
            payload, (bool, int, float, str)
        ):
            raise CheckpointError(
                f"packet {pid} carries a non-JSON payload "
                f"({type(payload).__name__}); checkpointing supports "
                f"scalar payloads only"
            )
        serialized = {
            "src": packet.src,
            "dest": packet.dest,
            "size": packet.size,
            "vc_class": packet.vc_class,
            "priority": packet.priority,
            "time_created": packet.time_created,
            "time_injected": packet.time_injected,
            "time_ejected": packet.time_ejected,
            "route_state": _route_state_to_json(packet.route_state),
            "blocked_cycles": packet.blocked_cycles,
            "payload": payload,
            "killed": packet.killed,
            "corrupted": packet.corrupted,
        }
        self.packets[pid] = serialized
        if self._cache is not None:
            self._cache[pid] = serialized
        return pid

    def flit(self, flit):
        return {
            "pid": self.packet_ref(flit.packet),
            "idx": flit.index,
            "out_port": flit.out_port,
            "vc_class": flit.vc_class,
            "vc": flit.vc,
        }


class RestoreContext:
    """Rebuilds Packets lazily from the checkpoint's packet table.

    Each pid is materialized once and cached, so every flit and
    ``active_packet`` reference resolves to the same object — restoring
    the identity relationships the router relies on (e.g. the
    ``flit.packet is not packet`` desync check while streaming).
    """

    def __init__(self, packet_table):
        self._table = packet_table
        self._cache = {}

    def record(self, pid):
        """The table's serialized fields for ``pid`` (JSON or int keys)."""
        return self._table[str(pid)] if str(pid) in self._table else self._table[pid]

    def packet(self, pid):
        pid = int(pid)
        if pid not in self._cache:
            data = self.record(pid)
            packet = Packet(
                data["src"], data["dest"], data["size"], data["time_created"],
                vc_class=data["vc_class"], priority=data["priority"],
                payload=data["payload"],
            )
            packet.pid = pid
            packet.time_injected = data["time_injected"]
            packet.time_ejected = data["time_ejected"]
            packet.route_state = _route_state_from_json(data["route_state"])
            packet.blocked_cycles = data["blocked_cycles"]
            packet.killed = data["killed"]
            packet.corrupted = data["corrupted"]
            self._cache[pid] = packet
        return self._cache[pid]

    def flit(self, data):
        packet = self.packet(data["pid"])
        idx = data["idx"]
        flit = Flit(packet, idx, idx == 0, idx == packet.size - 1)
        flit.out_port = data["out_port"]
        flit.vc_class = data["vc_class"]
        flit.vc = data["vc"]
        return flit


# ---------------------------------------------------------------------------
# run spec and config hashing


def lengths_spec(dist):
    """A packet-length distribution as a JSON spec (and back, below)."""
    from repro.traffic.injection import BimodalLength, FixedLength

    if isinstance(dist, FixedLength):
        return {"kind": "fixed", "length": dist.length}
    if isinstance(dist, BimodalLength):
        return {
            "kind": "bimodal",
            "short": dist.short,
            "long": dist.long,
            "short_fraction": dist.short_fraction,
        }
    raise CheckpointError(
        f"cannot checkpoint length distribution {type(dist).__name__}"
    )


def lengths_from_spec(spec):
    from repro.traffic.injection import BimodalLength, FixedLength

    kind = spec["kind"]
    if kind == "fixed":
        return FixedLength(spec["length"])
    if kind == "bimodal":
        return BimodalLength(spec["short"], spec["long"], spec["short_fraction"])
    raise CheckpointError(f"unknown length distribution kind {kind!r}")


def canonical_run_spec(pattern, rate, lengths, warmup, measure, drain):
    """The canonical run-spec dict covered by :func:`config_hash`.

    One layout shared by every consumer of the hash: checkpoint files,
    resume verification, and the experiment service's content-addressed
    result cache (``repro.serve``) — so a cache entry produced by the
    service is keyed identically to a checkpoint of the same
    experiment. ``lengths`` may be a distribution object, an
    already-serialized spec dict, or None (a distribution with no spec).
    """
    if lengths is not None and not isinstance(lengths, dict):
        lengths = lengths_spec(lengths)
    return {
        "pattern": pattern,
        "rate": rate,
        "lengths": lengths,
        "warmup": warmup,
        "measure": measure,
        "drain": drain,
    }


def config_hash(config, run_spec):
    """sha256 over the canonical JSON of (NetworkConfig, run spec)."""
    return canonical_sha256({"config": config.to_dict(), "run": run_spec})


# ---------------------------------------------------------------------------
# whole-run capture / restore


def capture_run(run, config, run_spec):
    """Snapshot a :class:`~repro.sim.runner.SimulationRun` into a payload."""
    ctx = SnapshotContext()
    network_state = run.network.snapshot(ctx)
    return {
        "magic": _MAGIC,
        "schema": SCHEMA_VERSION,
        "config": config.to_dict(),
        "config_hash": config_hash(config, run_spec),
        "run_spec": run_spec,
        "runner": {"phase": run.phase, "drain_cycles": run.drain_cycles_done},
        "cycle": run.network.cycle,
        "next_pid": peek_next_packet_id(),
        "packets": ctx.packets,
        "network": network_state,
        "injector": run.injector.state_dict(),
    }


def restore_run(run, payload):
    """Apply a checkpoint payload to a freshly built SimulationRun."""
    ctx = RestoreContext(payload["packets"])
    run.network.restore(payload["network"], ctx)
    run.injector.load_state(payload["injector"])
    run.phase = payload["runner"]["phase"]
    run.drain_cycles_done = payload["runner"]["drain_cycles"]
    # Restoring packets consumed counter values; pin the counter to the
    # snapshot's so future pids continue exactly where the killed run's
    # would have.
    set_next_packet_id(payload["next_pid"])


# ---------------------------------------------------------------------------
# file I/O


def save_checkpoint(path, payload):
    """Atomically write a checkpoint (gzip-compressed for ``.gz`` paths)."""
    data = canonical_json(payload).encode("utf-8")
    if str(path).endswith(".gz"):
        # mtime=0 keeps same-state checkpoints byte-identical.
        data = gzip.compress(data, mtime=0)
    with atomic_write(path, "wb") as fh:
        fh.write(data)


def load_checkpoint(path):
    """Read and validate a checkpoint file; returns the payload dict."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"\x1f\x8b":  # gzip magic, regardless of extension
        data = gzip.decompress(data)
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"not a checkpoint file: {path} ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise CheckpointError(f"not a checkpoint file: {path}")
    if payload.get("schema") != SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema {payload.get('schema')!r} is not supported "
            f"(this build reads schema {SCHEMA_VERSION})"
        )
    return payload


class Checkpointer:
    """Run probe (``repro.sim.runner.Probe``): periodic checkpoints.

    Saves after every cycle that is a multiple of ``every`` (default
    1000), with the config and run spec read from the run; ``save`` can
    be called directly for a final checkpoint. Writes are atomic, so a
    crash mid-save leaves the previous checkpoint intact.
    """

    def __init__(self, path, every=None):
        if every is not None and every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self.path = os.fspath(path)
        self.every = every or 1000
        #: Cycle of the last checkpoint written, or None.
        self.last_cycle = None
        #: Checkpoints written so far.
        self.saves = 0

    def start(self, run):
        refuse_unsnapshotable(run.network.faults, run.network.transport)
        lengths_spec(run.injector.lengths)  # refuses lengths with no spec
        cycle = run.network.cycle
        self.due = cycle - cycle % self.every + self.every

    def on_cycle(self, run):
        self.save(run)
        self.due = run.network.cycle + self.every

    def finish(self, run, status, result):
        pass

    def save(self, run):
        save_checkpoint(
            self.path, capture_run(run, run.network.config, run.spec)
        )
        self.last_cycle = run.network.cycle
        self.saves += 1


def verify_resumable(payload, config, run_spec):
    """Refuse a checkpoint that does not match this config/run spec."""
    expected = config_hash(config, run_spec)
    if payload["config_hash"] != expected:
        raise CheckpointError(
            "checkpoint was taken under a different configuration or run "
            "spec (config hash mismatch); refusing to resume"
        )
