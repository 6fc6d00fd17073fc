"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Components publish into a :class:`MetricsRegistry` (gem5-stats style:
the producer owns the numbers, the registry owns naming and export).
``to_dict()`` / ``save_json()`` export nested JSON: the CLI's
``--metrics`` and ``--json`` output and an artifact's ``metrics.json``,
which ``repro diff`` reads.

Histogram bucket edges are fixed at construction; values land in the
first bucket whose upper edge is >= the value, with an implicit +Inf
overflow bucket.
"""

import bisect
import json

#: Default latency bucket upper edges (cycles).
LATENCY_EDGES = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
#: Default chain-length bucket upper edges (packets per connection).
CHAIN_LENGTH_EDGES = (1, 2, 3, 4, 6, 8, 12, 16, 32)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_value(self):
        return self.value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value):
        self.value = value

    def to_value(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram with sum/count."""

    __slots__ = ("name", "help", "edges", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name, edges, help=""):
        edges = tuple(sorted(edges))
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        self.name = name
        self.help = help
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value, n=1):
        self.counts[bisect.bisect_left(self.edges, value)] += n
        self.sum += value * n
        self.count += n

    def to_value(self):
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Named metric instruments with get-or-create semantics."""

    def __init__(self):
        self._metrics = {}

    def _get(self, cls, name, *args, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, *args, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name, help=""):
        return self._get(Counter, name, help=help)

    def gauge(self, name, help=""):
        return self._get(Gauge, name, help=help)

    def histogram(self, name, edges, help=""):
        return self._get(Histogram, name, edges, help=help)

    def __iter__(self):
        return iter(self._metrics.values())

    def __contains__(self, name):
        return name in self._metrics

    def get(self, name):
        return self._metrics.get(name)

    # --- export -----------------------------------------------------------

    def to_dict(self):
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self._metrics.values():
            out[metric.kind + "s"][metric.name] = metric.to_value()
        return out

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
