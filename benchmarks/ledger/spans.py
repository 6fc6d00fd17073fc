"""Outside-in spans: wrap bound public methods on live instances.

The ledger measures each layer from outside, by timing the calls into
its public functions. A :class:`SpanLog` installs a timing closure as
an *instance* attribute over a bound method (``router.step``,
``net.inject``, ...), so the class — and every other instance — is
untouched and removal is a ``delattr``. Spans are aggregated in memory
by ``(name, parent)`` as ``[calls, total seconds]``; a layer's self
time is its total minus the totals of the spans it is the parent of.

A hook that no longer exists (API drift) is not an error: ``wrap``
records a one-line reason under the span's name and the metrics
derived from that span come out ``null``.
"""

import time
from contextlib import contextmanager


_ABSENT = object()


class SpanLog:
    """In-memory span aggregate plus the wrappers that feed it."""

    def __init__(self):
        #: (name, parent name or None) -> [calls, total seconds]
        self.agg = {}
        #: span name -> why it could not be installed
        self.missing = {}
        self._current = [None]
        self._installed = []  # (obj, attr, previous instance attr or _ABSENT)

    # --- installing / removing wrappers -----------------------------------

    def wrap(self, obj, attr, name):
        """Time ``obj.attr(...)`` as span ``name``; False if absent."""
        fn = getattr(obj, attr, None)
        if not callable(fn):
            self.missing.setdefault(
                name, f"{type(obj).__name__} has no callable {attr!r}"
            )
            return False
        try:
            previous = vars(obj).get(attr, _ABSENT)
            setattr(obj, attr, self._timed(fn, name))
        except (AttributeError, TypeError) as exc:  # __slots__ / read-only
            self.missing.setdefault(
                name, f"cannot wrap {type(obj).__name__}.{attr}: {exc}"
            )
            return False
        self._installed.append((obj, attr, previous))
        return True

    def wrap_path(self, obj, path, name):
        """``wrap`` through a dotted path (``"switch_alloc.allocate"``)."""
        *owners, attr = path.split(".")
        for owner in owners:
            obj = getattr(obj, owner, None)
            if obj is None:
                self.missing.setdefault(name, f"no attribute {owner!r}")
                return False
        return self.wrap(obj, attr, name)

    def unwrap_all(self):
        """Remove every installed wrapper (idempotent)."""
        while self._installed:
            obj, attr, previous = self._installed.pop()
            if previous is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)

    def _timed(self, fn, name):
        agg, current, clock = self.agg, self._current, time.perf_counter

        def span(*args, **kwargs):
            parent = current[0]
            current[0] = name
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                current[0] = parent
                record = agg.get((name, parent))
                if record is None:
                    agg[(name, parent)] = [1, elapsed]
                else:
                    record[0] += 1
                    record[1] += elapsed

        return span

    @contextmanager
    def span(self, name):
        """A span around a block (the root ``sim.runner`` span)."""
        parent = self._current[0]
        self._current[0] = name
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._current[0] = parent
            record = self.agg.setdefault((name, parent), [0, 0.0])
            record[0] += 1
            record[1] += elapsed

    # --- reading the aggregate --------------------------------------------

    def calls(self, name):
        """Calls of ``name`` under any parent, or None if never wrapped."""
        if name in self.missing:
            return None
        return sum(rec[0] for (n, _), rec in self.agg.items() if n == name)

    def total(self, name):
        """Seconds inside ``name`` under any parent (None if missing)."""
        if name in self.missing:
            return None
        return sum(rec[1] for (n, _), rec in self.agg.items() if n == name)

    def children_total(self, name):
        """Seconds inside spans whose parent is ``name``."""
        return sum(rec[1] for (_, p), rec in self.agg.items() if p == name)

    def self_time(self, name):
        """``total(name)`` minus the part its child spans cover."""
        total = self.total(name)
        if total is None:
            return None
        return total - self.children_total(name)

    def names(self):
        return sorted({n for n, _ in self.agg})

    def to_rows(self):
        """``[{name, parent, calls, total_s}]`` for the JSON output."""
        return [
            {"name": n, "parent": p, "calls": rec[0], "total_s": rec[1]}
            for (n, p), rec in sorted(
                self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            )
        ]
