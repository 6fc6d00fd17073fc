"""Wake-pipe, fd-hygiene and fsync-budget tests for repro.parallel.

The shard hot path is event-driven: a publisher drops a token into its
peers' wake pipes and a waiter blocks in ``select`` on its own. Tokens
are hints — the exchange file is the only data path — so these tests
pin both halves: a token ends the wait at once, and *every* way a token
can go missing or stale (never written, pipe full, left over) degrades
to the old poll, never to a hang, an early return or an exception.
They also pin what the change must not spend: file descriptors, fsyncs
on heartbeats, and heartbeat writes proportional to the window count.
"""

import gc
import json
import os
import signal
import threading
import time

import pytest

from repro import proc
from repro.checkpoint import canonical_run_spec
from repro.network.config import NetworkConfig
from repro.parallel import ShardRunError, shard_run
from repro.parallel import worker as worker_mod
from repro.parallel.exchange import (
    EXCH_DIR,
    exchange_path,
    make_exchange,
    publish_exchange,
    wait_for_exchange,
    wake_peers,
)
from repro.traffic.injection import FixedLength

SMALL = dict(warmup=20, measure=60, drain=400)


def config_for(seed=1):
    return NetworkConfig(topology="mesh", mesh_k=4, routing="dor",
                         allocator="islip1", pc_allocator="islip1",
                         chaining="disabled", seed=seed)


@pytest.fixture
def wake_pipe():
    r, w = os.pipe()
    os.set_blocking(r, False)
    os.set_blocking(w, False)
    yield r, w
    os.close(r)
    os.close(w)


def fill(fd):
    """Write tokens until the non-blocking pipe reports EAGAIN."""
    written = 0
    try:
        while True:
            written += os.write(fd, b"\0" * 4096)
    except BlockingIOError:
        return written


class Enough(Exception):
    """Raised from a test's heartbeat to end an unbounded wait."""


def publish(root, shard=1, window=3):
    os.makedirs(os.path.join(root, EXCH_DIR, f"s{shard}"), exist_ok=True)
    record = make_exchange(shard, window, 6, 8, {}, {}, {})
    assert publish_exchange(root, shard, window, record)
    return record


class TestWaitForExchange:
    def test_token_ends_a_long_wait_at_once(self, tmp_path, wake_pipe):
        """With a 5 s poll the only way home in time is the token."""
        root, (r, w) = str(tmp_path), wake_pipe
        waiting = threading.Event()

        def peer():
            assert waiting.wait(10)
            publish(root)
            wake_peers([w])

        helper = threading.Thread(target=peer)
        helper.start()
        start = time.monotonic()
        record = wait_for_exchange(root, 1, 3, poll=5, max_poll=5,
                                   heartbeat=lambda _p: waiting.set(),
                                   wake_fd=r)
        elapsed = time.monotonic() - start
        helper.join(10)
        assert not helper.is_alive()
        assert record["window"] == 3 and record["shard"] == 1
        assert elapsed < 2.5

    def test_lost_token_falls_back_to_the_poll(self, tmp_path, wake_pipe):
        root, (r, _w) = str(tmp_path), wake_pipe
        waiting = threading.Event()

        def peer():
            assert waiting.wait(10)
            publish(root)  # and never a token

        helper = threading.Thread(target=peer)
        helper.start()
        record = wait_for_exchange(root, 1, 3, poll=0.02, max_poll=0.02,
                                   heartbeat=lambda _p: waiting.set(),
                                   wake_fd=r)
        helper.join(10)
        assert not helper.is_alive()
        assert record["window"] == 3

    def test_no_wake_fd_is_the_same_loop(self, tmp_path):
        root = str(tmp_path)
        publish(root)
        assert wait_for_exchange(root, 1, 3)["window"] == 3
        calls = []

        def heartbeat(_awaiting):
            calls.append(1)
            if len(calls) >= 3:
                raise Enough

        with pytest.raises(Enough):
            wait_for_exchange(root, 1, 4, poll=0.001, heartbeat=heartbeat)
        assert len(calls) == 3

    def test_stale_tokens_never_stand_in_for_the_file(self, tmp_path,
                                                      wake_pipe):
        """A pipe full of leftover tokens and no file: the waiter keeps
        waiting (each token costs one re-check), drains the pipe, and
        keeps beating, naming the file it awaits."""
        root, (r, w) = str(tmp_path), wake_pipe
        assert fill(w) > 0
        beats = []

        def heartbeat(awaiting):
            beats.append(awaiting)
            if len(beats) >= 6:
                raise Enough

        with pytest.raises(Enough):
            wait_for_exchange(root, 1, 3, poll=0.001, max_poll=0.001,
                              heartbeat=heartbeat, wake_fd=r)
        assert beats == [os.path.join(EXCH_DIR, "s1", "w00000003.json")] * 6
        with pytest.raises(BlockingIOError):
            os.read(r, 1)  # drained

    def test_full_pipe_does_not_stop_a_publish(self, tmp_path, wake_pipe):
        root, (_r, w) = str(tmp_path), wake_pipe
        fill(w)
        record = publish(root)
        wake_peers([w])  # EAGAIN swallowed: a wake-up is already pending
        with open(exchange_path(root, 1, 3)) as fh:
            assert json.load(fh) == record


# ---------------------------------------------------------------------------
# one worker, in this process


def run_worker_here(root, monkeypatch, measure=180, window=2, **options):
    """``run_shard_worker`` for a 1-shard run inside the test process.

    Returns ``(exit_code, windows_published)``. PDEATHSIG is not armed
    on the test runner and its signal handlers are put back.
    """
    for sub in (worker_mod.FINAL_DIR, proc.HB_DIR,
                os.path.join(EXCH_DIR, "s0")):
        os.makedirs(os.path.join(root, sub))
    monkeypatch.setattr(proc, "die_with_parent", lambda: None)
    config = config_for()
    run_spec = canonical_run_spec("uniform", 0.25, FixedLength(1), 20,
                                  measure, 400)
    options = dict({"shards": 1, "window": window, "chaos": None},
                   **options)
    saved = {sig: signal.getsignal(sig)
             for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        code = worker_mod.run_shard_worker(root, config.to_dict(), run_spec,
                                           0, 1, options, hard_exit=False)
    finally:
        for sig, handler in saved.items():
            signal.signal(sig, handler)
    return code, len(os.listdir(os.path.join(root, EXCH_DIR, "s0")))


class TestFsyncBudget:
    def test_heartbeats_are_off_the_fsync_path(self, tmp_path, monkeypatch):
        """fsyncs == files a resume reads; heartbeat writes track wall
        time, not the window count."""
        root = str(tmp_path)
        fsyncs, hb_writes = [], []
        real_fsync, real_replace = os.fsync, os.replace

        def counting_fsync(fd):
            fsyncs.append(fd)
            return real_fsync(fd)

        def counting_replace(src, dst, **kwargs):
            if str(dst).endswith(".hb.json"):
                hb_writes.append(dst)
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        monkeypatch.setattr(os, "replace", counting_replace)
        start = time.monotonic()
        code, windows = run_worker_here(root, monkeypatch)
        elapsed = time.monotonic() - start
        monkeypatch.undo()

        assert code == worker_mod.EXIT_OK
        assert windows >= 100  # 200 main cycles / 2, plus drain windows
        assert len(fsyncs) == windows + 2  # + final + outcome
        # Throttle (0.2 s) + the forced "constructing" and final beats —
        # nowhere near `windows`.
        assert len(hb_writes) <= elapsed / 0.2 + 3
        assert len(hb_writes) < windows / 4
        # The final beat is not throttled: however fast the worker ran,
        # the lease file ends up saying how the attempt ended.
        with open(proc.attempt_paths(root, "s0", 1)[0]) as fh:
            assert json.load(fh)["state"] == "done"

    def test_full_peer_pipe_does_not_stop_the_worker(self, tmp_path,
                                                     monkeypatch, wake_pipe):
        _r, w = wake_pipe
        fill(w)
        code, windows = run_worker_here(str(tmp_path), monkeypatch,
                                        measure=60, peer_wake_fds=[w])
        assert code == worker_mod.EXIT_OK
        assert windows >= 40

    def test_heartbeat_file_is_always_whole_json(self, tmp_path):
        """No fsync, but still tmp + rename: a concurrent reader sees a
        complete record or the previous one, never a torn file."""
        path = str(tmp_path / "s0.a1.hb.json")
        hb = proc.Heartbeat(path, 0, 1)
        hb.beat(force=True, n=-1)
        done = threading.Event()
        seen, torn = [], []

        def reader():
            while not done.is_set():
                try:
                    with open(path) as fh:
                        seen.append(json.load(fh)["n"])
                except ValueError as exc:
                    torn.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for n in range(5000):
                hb.beat(force=True, n=n, padding="x" * (n % 97))
                if n >= 300 and len(seen) >= 100:
                    break
        finally:
            done.set()
            thread.join(10)
        assert not thread.is_alive()
        assert not torn
        assert seen and seen == sorted(seen)
        assert not [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]


class TestFinalHeartbeat:
    """The last beat is forced and names how the attempt ended."""

    def final_state(self, root):
        with open(proc.attempt_paths(root, "s0", 1)[0]) as fh:
            return json.load(fh)["state"]

    def test_failed_attempt_says_so(self, tmp_path, monkeypatch):
        def boom(_self):
            raise RuntimeError("boom")

        monkeypatch.setattr(worker_mod._ShardWorker, "run", boom)
        code, _windows = run_worker_here(str(tmp_path), monkeypatch,
                                         measure=60)
        assert code == worker_mod.EXIT_FAILED
        assert self.final_state(str(tmp_path)) == "failed"


# ---------------------------------------------------------------------------
# the coordinator gives back every fd it opened


def open_fds():
    gc.collect()  # Process objects close their sentinel when collected
    return len(os.listdir("/proc/self/fd"))


def run_sharded(out_dir, **kwargs):
    return shard_run(config_for(), pattern="uniform", rate=0.25, seed=1,
                     shards=2, out_dir=str(out_dir), **SMALL, **kwargs)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
class TestFdHygiene:
    def test_clean_run_leaks_nothing(self, tmp_path):
        before = open_fds()
        assert run_sharded(tmp_path / "s").status == "done"
        assert open_fds() == before

    def test_restart_leaks_nothing(self, tmp_path):
        before = open_fds()
        run = run_sharded(tmp_path / "s",
                          chaos={0: {"sigkill_at_cycle": 37}})
        assert run.status == "done" and run.restarts >= 1
        del run
        assert open_fds() == before

    def test_error_path_leaks_nothing(self, tmp_path):
        before = open_fds()

        def failing_run():
            # The exception (and with it shard_run's frame) must be gone
            # before fds are counted, hence the helper.
            try:
                run_sharded(tmp_path / "s",
                            chaos={0: {"sigkill_at_cycle": 5}},
                            max_restarts=0)
            except ShardRunError as exc:
                return str(exc)
            return None

        assert "max_restarts" in failing_run()
        assert open_fds() == before
