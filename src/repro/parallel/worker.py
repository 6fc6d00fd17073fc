"""Shard worker process: windowed stepping and drain consensus.

One worker owns one shard of the partition and advances it window by
window (window = conservative lookahead, bounded by the minimum
boundary channel latency):

1. *(drain region)* snapshot the window-start state in memory, before
   the imports — the state a drain replay rewinds to.
2. Import every neighbor's exchange file for the previous window
   (gather all files first, then absorb; a drain replay re-absorbs
   the same records).
3. Step the window. The full-network injector runs in every shard for
   pid/RNG determinism; only packets sourced at local terminals are
   actually injected.
4. Serialize boundary exports and publish the window's exchange file
   (atomic, immutable, skip-if-already-published), then drop a wake-up
   token into every peer's pipe — a hint only; step 2 of the peer's
   next window still finds the data by reading the file.
5. In the drain region, run the quiescence decision from published
   in-flight histograms — a pure function of the exchange files, so
   every shard (including one restarted mid-drain) reaches the same
   verdict. Quiescence strictly inside the window rewinds to the
   window-start snapshot and re-steps to the stop position.
6. Either finalize (publish the shard's end-state payload) or clear
   the exported boundary channels and continue.

A worker keeps no checkpoint: every attempt starts at cycle 0. A
restarted attempt replays its shard from the peers' immutable exchange
files, and its own publishes are skipped because the files already
exist and it would regenerate them byte for byte. There is no graceful
stop either: SIGTERM/SIGINT kill a worker like any other crash, and a
later run on the same directory replays every shard without a final.

Each attempt of a shard is one supervised attempt of :mod:`repro.proc`
named ``s<shard>``: :func:`run_shard_worker` enters through
:func:`~repro.proc.run_attempt` and beats a :class:`~repro.proc.Heartbeat`.
Everything a rerun reads (exchange files, finals, outcomes) is fsynced
before it becomes visible; the heartbeat, a lease whose only meaning is
its mtime, is not. The lease must outlast the longest beat-free section
— building the network, capturing the window-start state, encoding and
gzipping the final payload — so the worker beats between them.
"""

import gzip
import json
import os
import signal
import time

from repro.checkpoint import SnapshotContext, canonical_json, config_hash
from repro.network.flit import peek_next_packet_id, set_next_packet_id
from repro.obs.artifacts import atomic_write
from repro.parallel.exchange import (
    EXCH_DIR,
    ArenaContext,
    PacketArena,
    make_exchange,
    publish_exchange,
    wait_for_exchange,
    wake_peers,
)
from repro.parallel.partition import ShardPlan
from repro.proc import Heartbeat, attempt_paths, run_attempt, write_outcome
from repro.sim.runner import build_run
from repro.stats import StatsCollector

FINAL_DIR = "final"

FINAL_SCHEMA = 1
_FINAL_MAGIC = "repro-shard-final"

EXIT_OK = 0
EXIT_FAILED = 1


def final_path(root, shard):
    return os.path.join(root, FINAL_DIR, f"s{shard}.json.gz")


def window_schedule(main_cycles, drain_cycles, window):
    """Window spans ``[(a, b), ...]`` covering main then drain cycles.

    Region edges never share a window: the main→drain transition is a
    window boundary, so the last main window's exchange file carries
    the in-flight count at the drain decision's first candidate
    position.
    """
    spans = []
    for start, end in ((0, main_cycles),
                      (main_cycles, main_cycles + drain_cycles)):
        a = start
        while a < end:
            b = min(a + window, end)
            spans.append((a, b))
            a = b
    return spans


def save_payload_gz(path, payload, beat):
    """Gzip + atomically publish a JSON payload; immutable once written
    (restarted shards regenerate byte-identical payloads and skip).

    ``beat`` runs between the encode and the gzip: at 64x64 each takes
    seconds, and back to back they can outlast half the lease
    (DESIGN.md §11).
    """
    if os.path.exists(path):
        return False
    text = canonical_json(payload).encode("utf-8")
    beat()
    blob = gzip.compress(text, mtime=0)
    with atomic_write(path, mode="wb") as fh:
        fh.write(blob)
    return True


def load_payload_gz(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


class ShardStatsCollector(StatsCollector):
    """StatsCollector that keys every latency sample for merging.

    Single-process sample order is global sink-step order: ascending
    cycle, then ascending sink terminal within a cycle (a sink ejects
    at most one flit per cycle, so ``(cycle, dest)`` is unique). Each
    shard records that key alongside its samples; the merge sorts the
    concatenated samples by key to reproduce the reference append
    order exactly.
    """

    def reset(self):
        super().reset()
        self.eject_keys = []

    def record_ejected(self, packet, cycle):
        before = len(self.packet_latencies)
        super().record_ejected(packet, cycle)
        if len(self.packet_latencies) > before:
            self.eject_keys.append([cycle, packet.dest])

    def state_dict(self):
        state = super().state_dict()
        state["eject_keys"] = [list(key) for key in self.eject_keys]
        return state

    def load_state(self, state):
        super().load_state(state)
        self.eject_keys = [list(key) for key in state.get("eject_keys", [])]


class _ShardWorker:
    def __init__(self, root, config, run_spec, shard, attempt, options,
                 heartbeat=None):
        self.root = root
        self.config = config
        self.run_spec = run_spec
        self.shard = shard
        self.attempt = attempt
        self.plan = ShardPlan(config, options["shards"])
        self.window = int(options["window"])
        self.M = run_spec["warmup"] + run_spec["measure"]
        self.drain = run_spec["drain"]
        self.schedule = window_schedule(self.M, self.drain, self.window)
        # Chaos only ever fires on a shard's first attempt: restarts
        # must replay the lost windows cleanly.
        self.chaos = dict(options.get("chaos") or {}) if attempt == 1 else {}
        self.hash = config_hash(config, run_spec)
        self.hb = heartbeat or Heartbeat(
            attempt_paths(root, f"s{shard}", attempt)[0], f"s{shard}",
            attempt)
        self.timers = {"step_seconds": 0.0, "wait_seconds": 0.0,
                       "publish_seconds": 0.0}
        # Wake pipes inherited from the coordinator through fork; absent
        # (in-process runs) the exchange wait just polls.
        self.wake_fd = options.get("wake_fd")
        self.peer_wake_fds = options.get("peer_wake_fds", ())

        # The full network and the full traffic, built as the
        # single-process run builds them, so every shard draws the
        # identical packet stream (and pid sequence); the network is
        # masked to the shard (the exchange carries channel state).
        self.stats = ShardStatsCollector(self.plan.topology.num_terminals)
        run = build_run(config, run_spec, stats=self.stats)
        self.net, self.inj = run.network, run.injector
        self.net.apply_shard_mask(self.plan.routers_of(shard),
                                  self.plan.terminals_of(shard))
        self.local_terminals = frozenset(self.plan.terminals_of(shard))
        self.exports = self.plan.exports_of(shard)
        self.stats.set_window(run_spec["warmup"], self.M)
        set_next_packet_id(0)
        self.arena = PacketArena()
        self.hist_cache = {}

        # Which window's exchange file records each in-flight position
        # (position p is produced by stepping cycle p-1). Only drain
        # decision candidates (p >= M) are ever looked up.
        self.recorder = {}
        for j, (a, b) in enumerate(self.schedule):
            for pos in range(max(a + 1, self.M), b + 1):
                self.recorder[pos] = j

    # ------------------------------------------------------------------

    def _beat_waiting(self, awaiting):
        # Names the awaited file, so a reader of the run directory can
        # tell a shard blocked on a dead peer from one that is stuck.
        self.hb.beat(state="waiting", awaiting=awaiting)

    # ------------------------------------------------------------------

    def _capture(self):
        ctx = SnapshotContext()
        return {
            "network": self.net.snapshot(ctx),
            "packets": ctx.packets,
            "injector": self.inj.state_dict(),
            "next_pid": peek_next_packet_id(),
        }


    def _restore_state(self, payload):
        """Load a window-start snapshot into the live network (fresh
        arena: a wholesale restore replaces every live reference)."""
        self.arena = PacketArena()
        ctx = ArenaContext(payload["packets"], self.arena)
        self.net.restore(payload["network"], ctx)
        self.inj.load_state(payload["injector"])
        set_next_packet_id(payload["next_pid"])

    # ------------------------------------------------------------------

    def _gather_imports(self, window_index):
        """All neighbor exchange files for the previous window, read but
        not yet applied."""
        if window_index == 0:
            return []
        records = []
        t0 = time.perf_counter()
        try:
            for src in self.plan.import_sources(self.shard):
                records.append(wait_for_exchange(
                    self.root, src, window_index - 1,
                    heartbeat=self._beat_waiting, wake_fd=self.wake_fd,
                ))
        finally:
            self.timers["wait_seconds"] += time.perf_counter() - t0
        return records

    def _absorb_imports(self, records):
        # Packet construction bumps the global pid counter; imported
        # packets are *re*-materializations, not new traffic, so the
        # counter must come out untouched (pid determinism across
        # shards is what makes the merge possible).
        saved_pid = peek_next_packet_id()
        for record in records:
            ctx = ArenaContext(record["packets"], self.arena)
            for spec in self.plan.imports_of(self.shard):
                if spec["writer"] != record["shard"]:
                    continue
                channel = ShardPlan.resolve_channel(self.net, spec)
                channel.absorb_state(record["channels"][spec["key"]], ctx)
        set_next_packet_id(saved_pid)

    def _step_window(self, a, b, record_hist=True):
        """Step cycles [a, b); returns the in-flight histogram entries
        this window contributes to the drain decision."""
        assert self.net.cycle == a, (self.net.cycle, a)
        hist = {}
        net, inj = self.net, self.inj
        kill_at = self.chaos.get("sigkill_at_cycle")
        t0 = time.perf_counter()
        for c in range(a, b):
            if c < self.M:
                # Full-network injection for pid/RNG determinism; only
                # local packets enter the (masked) network.
                for packet in inj.generate(c):
                    if packet.src in self.local_terminals:
                        net.inject(packet)
            elif inj.enabled:
                # Main→drain transition, as the reference runner does it.
                inj.enabled = False
            net.step()
            pos = net.cycle
            if record_hist and self.drain > 0 and pos >= self.M:
                hist[pos] = net.in_flight_flits()
            if kill_at is not None and pos >= kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
            self.hb.beat(state="running", cycle=pos)
        self.timers["step_seconds"] += time.perf_counter() - t0
        return hist

    def _publish_window(self, window_index, a, b, hist):
        """Serialize boundary exports (keeping the live copies — they
        are only cleared once the shard commits to the next window) and
        publish the window's immutable exchange file."""
        t0 = time.perf_counter()
        ctx = SnapshotContext()
        channels = {
            spec["key"]: ShardPlan.resolve_channel(self.net, spec)
            .state_dict(ctx)
            for spec in self.exports
        }
        record = make_exchange(self.shard, window_index, a, b,
                               channels, ctx.packets, hist)
        if self.chaos.get("sigkill_on_publish_window") == window_index:
            # Die "mid-publish": leave writer-temp debris next to the
            # exchange file, then vanish without publishing. The atomic
            # rename means readers never see a partial file.
            debris = os.path.join(
                self.root, EXCH_DIR, f"s{self.shard}",
                f".w{window_index:08d}.json.chaos-tmp",
            )
            with open(debris, "w") as fh:
                fh.write('{"partial": true')
            os.kill(os.getpid(), signal.SIGKILL)
        publish_exchange(self.root, self.shard, window_index, record)
        wake_peers(self.peer_wake_fds)
        self.timers["publish_seconds"] += time.perf_counter() - t0

    def _clear_exports(self):
        for spec in self.exports:
            channel = ShardPlan.resolve_channel(self.net, spec)
            # The published record took these packets' blocked-cycle
            # counts across; whatever this shard still counts for them
            # (body flits stuck behind a departed head) is a fresh delta.
            if spec["kind"] == "flit":
                for flit in channel.items():
                    flit.packet.blocked_cycles = 0
            channel.load_state({"items": []}, None)

    # ------------------------------------------------------------------

    def _decide(self, window_index, b):
        """Global quiescence decision after a drain-region window.

        Reads every shard's published in-flight histogram (own file
        included — the decision is a pure function of published files,
        so restarted shards recompute the identical verdict) and
        returns the earliest position ``t`` in ``[M, b]`` where the
        global in-flight count is zero, or None if the network is still
        busy.
        """
        candidates = range(self.M, b + 1)
        needed = sorted({self.recorder[pos] for pos in candidates if pos > 0})
        t0 = time.perf_counter()
        try:
            for j in needed:
                for s in range(self.plan.num_shards):
                    if (s, j) in self.hist_cache:
                        continue
                    record = wait_for_exchange(
                        self.root, s, j,
                        heartbeat=self._beat_waiting, wake_fd=self.wake_fd,
                    )
                    self.hist_cache[(s, j)] = record["inflight"]
        finally:
            self.timers["wait_seconds"] += time.perf_counter() - t0
        for pos in candidates:
            if pos == 0:
                return 0  # an un-stepped network is trivially quiescent
            total = sum(
                int(self.hist_cache[(s, self.recorder[pos])][str(pos)])
                for s in range(self.plan.num_shards)
            )
            if total == 0:
                return pos
        return None

    def _replay(self, snapshot, records, a, t):
        """Rewind to the window-start snapshot and re-step to the
        quiescence position (strictly inside the window)."""
        self._restore_state(snapshot)
        self._absorb_imports(records)
        self._step_window(a, t, record_hist=False)

    # ------------------------------------------------------------------

    def _finalize(self, position, drained):
        self.inj.enabled = False  # the runner's main→drain transition
        assert self.net.cycle == position, (self.net.cycle, position)
        state = self._capture()
        # Between the capture and the encode (DESIGN.md §11).
        self.hb.beat(state="finalizing", cycle=position)
        payload = {
            "magic": _FINAL_MAGIC,
            "schema": FINAL_SCHEMA,
            "config_hash": self.hash,
            "shard": self.shard,
            "num_shards": self.plan.num_shards,
            "window_index": None,
            "cycle": state["network"]["cycle"],
            "next_pid": state["next_pid"],
            "packets": state["packets"],
            "network": state["network"],
            "injector": state["injector"],
            "finalize": {
                "position": position,
                "drain_cycles": position - self.M if self.drain > 0 else 0,
                "drained": drained,
            },
            "timers": self.timers,
        }
        save_payload_gz(final_path(self.root, self.shard), payload,
                        self.hb.beat)
        write_outcome(
            attempt_paths(self.root, f"s{self.shard}", self.attempt)[1],
            ok=True, shard=self.shard, attempt=self.attempt,
            cycle=position, drained=drained, timers=self.timers,
        )
        return EXIT_OK

    # ------------------------------------------------------------------

    def run(self):
        if not self.schedule:
            return self._finalize(0, None)  # zero-cycle run
        for index, (a, b) in enumerate(self.schedule):
            in_drain = self.drain > 0 and a >= self.M
            self.hb.beat(state="running", window=index, cycle=a,
                         phase="drain" if in_drain else "main")
            if self.chaos.get("wedge_at_window") == index:
                # Chaos: stall without beating until killed; only lease
                # expiry can catch this worker.
                while True:
                    signal.pause()
            # Window-start snapshot, before imports (see module docs).
            snapshot = self._capture() if in_drain else None
            records = self._gather_imports(index)
            self._absorb_imports(records)
            hist = self._step_window(a, b)
            self._publish_window(index, a, b, hist)
            if in_drain:
                verdict = self._decide(index, b)
                if verdict is not None:
                    if verdict < b:
                        self._replay(snapshot, records, a, verdict)
                    return self._finalize(verdict, True)
            if index == len(self.schedule) - 1:
                # Budget exhausted with flits still in flight (drain
                # requested), or no drain requested at all. Boundary
                # exports stay live: the merge needs the sender copies.
                return self._finalize(b, False if self.drain > 0 else None)
            self._clear_exports()
        raise AssertionError("unreachable: schedule exhausted without finalize")


def run_shard_worker(root, config_dict, run_spec, shard, attempt, options,
                     hard_exit=True):
    """Process entry point for one shard worker (multiprocessing target).

    One :func:`~repro.proc.run_attempt` named ``s<shard>``; returns
    ``EXIT_OK`` or ``EXIT_FAILED`` when ``hard_exit`` is False (tests
    run a worker in-process that way).
    """
    from repro.network.config import NetworkConfig

    def body(heartbeat, _out_path):
        config = NetworkConfig.from_dict(config_dict)
        _ShardWorker(root, config, run_spec, shard, attempt, options,
                     heartbeat=heartbeat).run()

    ok = run_attempt(root, f"s{shard}", attempt, body, hard_exit=hard_exit)
    return EXIT_OK if ok else EXIT_FAILED
