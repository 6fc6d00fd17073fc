"""Observability for the simulation core: tracing, metrics, profiling,
spans, sampling, and run artifacts.

Instruments, all zero-overhead when unused:

- :mod:`repro.obs.trace` — a typed event bus (``TraceBus``) the router,
  terminals, and injectors emit structured per-cycle events into, with
  JSONL (plain or gzip) and in-memory sinks and per-event filtering;
- :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms with JSON export;
- :mod:`repro.obs.profiler` — per-epoch wall-clock timing of the router
  pipeline phases and allocator calls, reporting cycles/sec
  (``--profile``);
- :mod:`repro.obs.spans` — per-packet lifecycle reconstruction from a
  trace: the latency decomposition (queueing vs allocation vs
  serialization) behind the paper's headline claim, with Chrome
  trace-event / Perfetto export (``repro spans``);
- :mod:`repro.obs.sampler` — periodic whole-network state snapshots
  (buffer occupancy, credits, held connections, link utilization) in a
  bounded ring buffer, with JSONL export, the hottest links and ASCII
  heatmaps;
- :mod:`repro.obs.artifacts` — the run-artifact flight recorder
  (``--artifacts DIR``);
- :mod:`repro.obs.digest` — per-cycle hierarchical SHA-256 state
  digests over ``state_dict()`` state, streamed as JSONL with a
  whole-run fingerprint (``--digest``/``--digest-every``); two streams
  compared record by record name the first divergent cycle and
  component, and :func:`~repro.obs.digest.state_diff` the fields.

:mod:`repro.obs.report` summarizes a trace file (chain-length
distribution, port contention, top-blocked packets) for ``repro
report``.
"""

from repro.obs.artifacts import write_run_artifacts
from repro.obs.metrics import (
    CHAIN_LENGTH_EDGES,
    LATENCY_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiler import PHASES, PhaseProfiler
from repro.obs.report import (
    TraceSummary,
    format_report,
    summarize_trace,
)
from repro.obs.sampler import SAMPLE_FIELDS, NetworkSampler
from repro.obs.spans import (
    SPAN_COMPONENTS,
    PacketSpan,
    SpanSet,
    build_spans,
    format_spans_report,
)
from repro.obs.trace import (
    EVENT_TYPES,
    NULL_TRACE,
    JsonlSink,
    MemorySink,
    RingSink,
    TraceBus,
    TraceFilter,
    open_text_read,
    open_text_write,
    read_jsonl,
)

__all__ = [
    "TraceBus",
    "TraceFilter",
    "JsonlSink",
    "MemorySink",
    "RingSink",
    "NULL_TRACE",
    "EVENT_TYPES",
    "read_jsonl",
    "open_text_read",
    "open_text_write",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_EDGES",
    "CHAIN_LENGTH_EDGES",
    "PhaseProfiler",
    "PHASES",
    "TraceSummary",
    "summarize_trace",
    "format_report",
    "SpanSet",
    "PacketSpan",
    "SPAN_COMPONENTS",
    "build_spans",
    "format_spans_report",
    "NetworkSampler",
    "SAMPLE_FIELDS",
    "write_run_artifacts",
    "DIGEST_SCHEMA",
    "DigestRecorder",
    "DigestStream",
    "component_digest",
    "digest_network",
    "merkle_root",
    "network_digests",
    "network_states",
    "read_digest_stream",
    "state_diff",
]

# digest sits *above* the simulation core (it imports the checkpoint
# layer, which itself imports repro.obs.trace), so it loads lazily to
# keep this package import-cycle-free.
_LAZY_EXPORTS = {
    name: "repro.obs.digest"
    for name in (
        "DIGEST_SCHEMA", "DigestRecorder", "DigestStream",
        "component_digest", "digest_network", "merkle_root",
        "network_digests", "network_states", "read_digest_stream",
        "state_diff",
    )
}


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        import importlib

        value = getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
