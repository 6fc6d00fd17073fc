"""Per-cycle hierarchical state digests over ``state_dict()`` state.

Every component that already knows how to checkpoint itself (routers —
whose state nests their VCs, channels, allocators and arbiters —
terminal sources/sinks, the StatsCollector, the traffic injector, and
the network RNG) gains a cheap rolling digest: a SHA-256 over the
*canonical JSON* of its ``state_dict()`` output, using exactly the
encoding checkpoints use (:func:`repro.checkpoint.canonical_json`), so
the digest of a component is stable across processes and dict
insertion orders.

The hierarchy is Merkle-style:

- **field** — one entry inside a component's ``state_dict()``;
- **component digest** — SHA-256 of the canonical JSON of
  ``{"state": state_dict, "packets": interned packet table}`` (each
  component gets a private
  :class:`~repro.checkpoint.SnapshotContext`, so drift in a packet
  field surfaces in the digest of the component holding that packet);
- **network root** — SHA-256 of the canonical JSON of the
  ``{path: component digest}`` map;
- **run fingerprint** — rolling SHA-256 over the ``cycle:root`` lines
  of every digest record taken during a run.

A mismatch at any level descends: unequal fingerprints → first record
with unequal roots → component paths whose digests differ →
:func:`state_diff` on the two components' states names the exact
fields. To find where two runs (two commits, two configs) first differ,
record both with ``repro run … --digest FILE --digest-every 1``, walk
the two :func:`read_digest_stream` results cycle by cycle to the first
unequal root, and diff :func:`network_states` of both sides at that
cycle.

:class:`DigestRecorder` streams records as JSONL alongside the
existing telemetry/trace streams (``.gz`` paths compress) and is a run
probe: ``run_simulation(probes=[DigestRecorder(...)])``.

Periodic records hash *simulation* state only (routers, terminals,
RNGs, injector): the StatsCollector is a derived observer whose every
divergence is caused by a simulation-state divergence at the same
cycle, and its state grows linearly with the run — hashing it each
stride would make the digest tax grow with run length. The final
record (``"final": true``) covers observers too, so the whole-run
fingerprint still seals the complete end state.
"""

import hashlib
from collections import deque

from repro.checkpoint import SnapshotContext, canonical_json, canonical_sha256
from repro.core.serialization import rng_state_to_json
from repro.obs.trace import open_text_write, read_jsonl

#: Bump on any incompatible change to the digest-stream layout.
DIGEST_SCHEMA = 1

#: Sentinel in :func:`state_diff` entries for "key absent on this side".
MISSING = "<missing>"


def component_state(component, needs_ctx=True, packet_cache=None):
    """A component's canonical state blob: state_dict + interned packets.

    Each component gets a *fresh* :class:`SnapshotContext`, so its blob
    is self-contained: a packet referenced from two components appears
    in (and is hashed into) both, and a drifting packet field is
    attributed to every component that can see it. ``packet_cache``
    shares the serialized packet dicts between components digested at
    the same instant (a per-record cost saving; the per-component
    tables still list exactly the packets each component sees).
    """
    ctx = SnapshotContext(packet_cache=packet_cache)
    state = component.state_dict(ctx) if needs_ctx else component.state_dict()
    return {"state": state, "packets": ctx.packets}


def component_digest(component, needs_ctx=True):
    """Hex SHA-256 of a component's canonical state blob."""
    return canonical_sha256(component_state(component, needs_ctx))


#: Component paths that are derived observers rather than simulation
#: state; periodic digest records skip them (see the module docstring).
OBSERVER_PATHS = ("stats",)


def network_states(network, injector=None, observers=True):
    """Full canonical state blobs for every component, keyed by path.

    Paths are stable identifiers (``router[3]``, ``source[0]``,
    ``sink[5]``, ``stats``, ``injector``, ``rng``) used by digest
    records. The expensive sibling of :func:`network_digests` — used
    only when a divergence needs field-level drilling.
    ``observers=False`` skips the derived-observer paths
    (:data:`OBSERVER_PATHS`).
    """
    cache = {}
    out = {}
    for i, router in enumerate(network.routers):
        out[f"router[{i}]"] = component_state(router, packet_cache=cache)
    for i, source in enumerate(network.sources):
        out[f"source[{i}]"] = component_state(source, packet_cache=cache)
    for i, sink in enumerate(network.sinks):
        out[f"sink[{i}]"] = component_state(sink, packet_cache=cache)
    out["rng"] = {"state": rng_state_to_json(network.rng), "packets": {}}
    if observers:
        out["stats"] = component_state(network.stats, needs_ctx=False)
    if injector is not None:
        out["injector"] = component_state(injector, needs_ctx=False)
    return out


def network_digests(network, injector=None, observers=True):
    """Leaf digests for every component, keyed by the same paths."""
    return {
        path: canonical_sha256(blob)
        for path, blob in network_states(network, injector,
                                         observers=observers).items()
    }


def merkle_root(digests):
    """Network-root digest over a ``{path: component digest}`` map."""
    return canonical_sha256(digests)


def digest_network(network, injector=None, observers=True):
    """One hierarchical digest: component leaves plus the network root."""
    components = network_digests(network, injector, observers=observers)
    return {"root": merkle_root(components), "components": components}


# ---------------------------------------------------------------------------
# field-level state diff


def _diff_walk(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}.{key}" if path else str(key)
            _diff_walk(a.get(key, MISSING), b.get(key, MISSING), sub, out)
        return
    if isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            av = a[i] if i < len(a) else MISSING
            bv = b[i] if i < len(b) else MISSING
            _diff_walk(av, bv, f"{path}[{i}]", out)
        return
    if a != b:
        out.append({"key": path, "a": a, "b": b})


def state_diff(a, b, limit=None):
    """Field-level diff of two state structures (dicts/lists/scalars).

    Returns ``[{"key": "credits[1][2]", "a": ..., "b": ...}, ...]`` in
    deterministic key order; ``limit`` caps the list (reports stay
    bounded even if two states disagree everywhere). Values absent on
    one side appear as :data:`MISSING`.
    """
    out = []
    _diff_walk(a, b, "", out)
    return out if limit is None else out[:limit]


# ---------------------------------------------------------------------------
# recorder / stream


class DigestRecorder:
    """Periodic digest taker + JSONL stream + rolling run fingerprint.

    A run probe (see :class:`repro.sim.runner.Probe`): :meth:`start`
    writes the header, :meth:`on_cycle` takes a digest after every
    cycle that is a multiple of ``every``, and :meth:`finish` of a
    completed run takes a final digest even off the stride, so the
    fingerprint always covers the end state.
    """

    def __init__(self, every=64, path=None, keep=None):
        if every < 1:
            raise ValueError(f"digest interval must be >= 1, got {every}")
        self.every = int(every)
        self.path = path
        self._fh = open_text_write(path) if path is not None else None
        #: Digest records taken, newest last (bounded if ``keep`` set).
        self.records = deque(maxlen=keep)
        self._rolling = hashlib.sha256()
        self.digests_taken = 0
        self._closed = False

    def start(self, run):
        """Stream the header record (config identity for later replay)."""
        header = {"kind": "header", "schema": DIGEST_SCHEMA,
                  "every": self.every, "observers": "final-only",
                  "config": run.network.config.to_dict()}
        if run.spec is not None:
            header["run_spec"] = run.spec
        self._write(header)
        cycle = run.network.cycle
        self.due = cycle - cycle % self.every + self.every

    def on_cycle(self, run):
        cycle = run.network.cycle
        self.record(run.network, run.injector, cycle)
        self.due = cycle + self.every

    def finish(self, run, status, result):
        """Completed run: final digest (off-stride included) + trailer."""
        if status == "done":
            self.record(run.network, run.injector, run.network.cycle,
                        final=True)
            self._write({
                "kind": "fingerprint",
                "fingerprint": self.fingerprint,
                "digests": self.digests_taken,
            })
        self.close()

    def record(self, network, injector, cycle, final=False):
        """Take one digest now; returns the record.

        Periodic records hash simulation state only; the ``final``
        record also covers observers (stats). A final record on a
        stride cycle is taken anyway — it carries the observer
        coverage the periodic record at the same cycle skipped.
        """
        snapshot = digest_network(network, injector, observers=final)
        record = {
            "kind": "digest",
            "cycle": cycle,
            "root": snapshot["root"],
            "components": snapshot["components"],
        }
        if final:
            record["final"] = True
        self.records.append(record)
        self._rolling.update(f"{cycle}:{snapshot['root']}\n".encode("ascii"))
        self._write(record)
        self.digests_taken += 1
        return record

    @property
    def fingerprint(self):
        """Whole-run fingerprint: rolling hash over all records so far."""
        return self._rolling.hexdigest()

    def _write(self, obj):
        if self._fh is not None:
            self._fh.write(canonical_json(obj))
            self._fh.write("\n")

    def close(self):
        if self._fh is not None and not self._closed:
            self._fh.close()
        self._closed = True


class DigestStream:
    """A recorded digest stream read back from JSONL.

    ``header``/``fingerprint`` may be None for truncated streams (a
    killed run never writes its trailer); ``records`` maps cycle →
    digest record, for comparison against another stream or a live run.
    """

    def __init__(self, header, records, fingerprint):
        self.header = header
        self.records = records
        self.fingerprint = fingerprint

    @property
    def every(self):
        return (self.header or {}).get("every")

    def cycles(self):
        return sorted(self.records)


def read_digest_stream(path):
    """Load a :class:`DigestRecorder` JSONL file into a DigestStream.

    :func:`~repro.obs.trace.read_jsonl` discards a torn final line (a
    run killed mid-write) and loads a ``.gz`` stream cut short up to
    where it ends; the intact records before either load.
    """
    header = None
    fingerprint = None
    records = {}
    for obj in read_jsonl(path):
        kind = obj.get("kind")
        if kind == "header":
            header = obj
        elif kind == "digest":
            records[obj["cycle"]] = obj
        elif kind == "fingerprint":
            fingerprint = obj["fingerprint"]
    return DigestStream(header, records, fingerprint)
