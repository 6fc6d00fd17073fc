"""Window-stamped exchange files and cross-window packet identity.

Each shard publishes one exchange file per completed window:
``<root>/exch/s<shard>/w<window>.json`` holding the serialized contents
of every boundary channel the shard writes (flits interned through the
checkpoint layer's :class:`~repro.checkpoint.SnapshotContext`), plus
the shard's per-cycle in-flight counts for the drain-decision protocol.
Files are written atomically and fsynced (``atomic_write``) and are
**immutable once published**: a restarted shard that re-simulates a
window skips the publish when the file already exists, so no window's
output is ever published twice.

Wake-ups are hints, files are truth: after publishing, a shard drops
one byte into every peer's wake pipe (:func:`wake_peers`) and
:func:`wait_for_exchange` blocks in ``select`` on its own pipe instead
of sleeping. A token carries no data and is never trusted — the waiter
re-checks the file — so a lost token costs one poll interval and a
stale one costs one ``stat``.

Packet identity across imports: flits of one packet may cross a
boundary in different windows (wormhole packets span windows), and a
drain replay rebuilds earlier flits from the window-start snapshot.
Both paths must yield the *same* Packet object per pid inside one
worker — the router's streaming desync check compares object identity.
The :class:`PacketArena` is that per-worker identity map; snapshot
restores and exchange imports both materialize packets through an
:class:`ArenaContext` bound to it.
"""

import json
import os
import select

from repro.checkpoint import RestoreContext, canonical_json
from repro.obs.artifacts import atomic_write

EXCH_DIR = "exch"

#: Bump on any incompatible change to the exchange-file layout.
EXCHANGE_SCHEMA = 1

_MAGIC = "repro-shard-exchange"


class ExchangeError(RuntimeError):
    """An exchange file is missing, foreign, or inconsistent."""


def exchange_path(root, shard, window):
    return os.path.join(root, EXCH_DIR, f"s{shard}", f"w{window:08d}.json")


def publish_exchange(root, shard, window, record):
    """Atomically publish a window's exchange file; returns False when
    the file already exists (a restarted shard re-simulating the window
    must not re-publish — published output is immutable)."""
    path = exchange_path(root, shard, window)
    if os.path.exists(path):
        return False
    with atomic_write(path) as fh:
        fh.write(canonical_json(record))
        fh.write("\n")
    return True


def read_exchange(path, shard, window):
    """Load and validate one exchange file."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ExchangeError(f"unreadable exchange file {path}: {exc}") from exc
    if (
        not isinstance(record, dict)
        or record.get("magic") != _MAGIC
        or record.get("shard") != shard
        or record.get("window") != window
    ):
        raise ExchangeError(f"foreign or mismatched exchange file: {path}")
    return record


def make_exchange(shard, window, cycle_start, cycle_end, channels, packets,
                  inflight):
    return {
        "magic": _MAGIC,
        "schema": EXCHANGE_SCHEMA,
        "shard": shard,
        "window": window,
        "cycle_start": cycle_start,
        "cycle_end": cycle_end,
        "channels": channels,
        "packets": packets,
        # Per-position local in-flight counts (drain decisions only;
        # empty for windows that end before the measurement phase does).
        "inflight": {str(pos): n for pos, n in inflight.items()},
    }


def wake_peers(wake_fds):
    """Hint every peer that a file was just published: one byte into
    each non-blocking wake pipe. A full pipe (``EAGAIN``) already holds
    a pending wake-up, so the token is simply dropped."""
    for fd in wake_fds:
        try:
            os.write(fd, b"\0")
        except BlockingIOError:
            pass


def wait_for_exchange(root, shard, window, heartbeat=None, poll=0.01,
                      max_poll=0.2, wake_fd=None):
    """Block until another shard's window file appears, then load it.

    The wait is unbounded by design — liveness of the peer is the
    coordinator's job (lease expiry restarts the peer; PDEATHSIG reaps
    us if the coordinator dies). ``heartbeat`` is called with the
    awaited path on every poll, so the waiter's own lease stays fresh.
    A token on ``wake_fd`` (this shard's wake pipe) only cuts the
    back-off sleep short; with no fd the ``select`` is a plain sleep.
    """
    path = exchange_path(root, shard, window)
    wake = [] if wake_fd is None else [wake_fd]
    delay = poll
    while True:
        if os.path.exists(path):
            return read_exchange(path, shard, window)
        if heartbeat is not None:
            heartbeat(os.path.relpath(path, root))
        if select.select(wake, [], [], delay)[0]:
            os.read(wake_fd, 65536)
        delay = min(max_poll, delay * 1.5)


# ---------------------------------------------------------------------------
# packet identity across snapshot restores and window imports


class PacketArena:
    """Per-worker pid → Packet identity map.

    One arena spans one worker's lifetime of restores and imports, so a
    flit imported in window ``k+1`` references the same Packet object
    as its siblings restored from a snapshot or imported in window
    ``k``. A drain replay rewinds into a *fresh* arena (the restored
    snapshot replaces every live reference wholesale).
    """

    def __init__(self):
        self.packets = {}


class ArenaContext(RestoreContext):
    """RestoreContext whose pid cache is a shared :class:`PacketArena`.

    An unknown pid materializes from this context's record table and
    joins the arena. A pid already present resolves to the existing
    object, which is at least as current as the record (that froze at
    the packet's head crossing) in every field but one: body flits
    blocked behind a head that has left keep counting
    ``blocked_cycles`` on the *writer's* copy. The writer zeroes its
    count whenever it hands flits over (``_ShardWorker._clear_exports``),
    so a record's value for a known pid is a delta, added here once.
    """

    def __init__(self, packet_table, arena):
        super().__init__(packet_table)
        self._cache = arena.packets
        self._credited = set()

    def packet(self, pid):
        pid = int(pid)
        known = pid in self._cache
        packet = super().packet(pid)
        if pid not in self._credited:
            self._credited.add(pid)
            if known:
                packet.blocked_cycles += self.record(pid)["blocked_cycles"]
        return packet
