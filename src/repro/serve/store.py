"""Durable job store: an append-only, fsynced journal of job events.

The service's single source of truth is ``<root>/jobs.jsonl``. Every
job state transition is appended as one JSON line and fsynced before
the transition is acted on, so the scheduler's state is reconstructible
after a crash at any instant: fold the journal, keep the latest state
per job. Lines are written with :func:`repro.obs.trace.append_jsonl`
and read with :func:`repro.obs.trace.read_jsonl`, which discards a torn
final line (SIGKILL mid-append) — the corresponding transition simply
re-happens.

Job lifecycle (the state machine DESIGN §10 documents)::

    submitted ──> leased ──> running ──> done
        ^            │           │
        │            └────┬──────┘
        │                 v
        └─ requeued    retry ──(attempts exhausted)──> dead

``retry`` carries the deterministic backoff delay and the wall-clock
``not_before`` gate; ``requeued`` is the restart path for jobs whose
lease died with the previous server process. ``done`` records whether
the result came from the cache (``cached``) and where the artifact
directory lives — the journal plus the cache index is enough to audit
that no experiment hash was ever simulated twice.
"""

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import append_jsonl, read_jsonl

JOURNAL = "jobs.jsonl"

#: States a job can be observed in after folding the journal.
ACTIVE_STATES = ("submitted", "leased", "running", "retry")
TERMINAL_STATES = ("done", "dead")


@dataclass
class JobRecord:
    """Folded view of one job: the latest state plus its history tally."""

    job_id: str
    spec: Dict[str, Any] = field(default_factory=dict)
    hash: Optional[str] = None
    priority: int = 0
    label: str = ""
    rate: Optional[float] = None
    state: str = "submitted"
    #: Lease attempts started so far (1 = first execution).
    attempts: int = 0
    error: Optional[str] = None
    #: Wall-clock gate before the next attempt may be leased.
    not_before: float = 0.0
    worker: Optional[int] = None
    cached: Optional[bool] = None
    #: Artifact directory, relative to the service root.
    artifact: Optional[str] = None
    wall_time: Optional[float] = None
    submitted_t: Optional[float] = None
    finished_t: Optional[float] = None
    retry_delays: List[float] = field(default_factory=list)

    @property
    def terminal(self):
        return self.state in TERMINAL_STATES

    def diagnostic(self):
        """PointError-style dict for dead-letter reporting."""
        return {
            "label": self.label,
            "rate": self.rate,
            "error": self.error,
            "attempts": self.attempts,
        }


def read_events(path):
    """Every intact journal line, in order; torn tail discarded."""
    if not os.path.exists(path):
        return []
    return [event for event in read_jsonl(path)
            if "ev" in event and "job" in event]


def fold_events(events):
    """``{job_id: JobRecord}`` in submission order.

    Unknown event types are skipped (forward compatibility); events for
    jobs with no ``submitted`` record create the record on the fly so a
    journal truncated at the front still folds.
    """
    jobs = {}
    for ev in events:
        job_id = ev["job"]
        rec = jobs.get(job_id)
        if rec is None:
            rec = jobs[job_id] = JobRecord(job_id)
        kind = ev["ev"]
        if kind == "submitted":
            spec = ev.get("spec") or {}
            rec.spec = spec
            rec.hash = ev.get("hash")
            rec.priority = ev.get("priority", 0)
            rec.label = spec.get("label", "")
            rec.rate = spec.get("rate")
            rec.submitted_t = ev.get("t")
            rec.state = "submitted"
        elif kind == "leased":
            rec.state = "leased"
            rec.attempts = ev.get("attempt", rec.attempts + 1)
            rec.worker = ev.get("worker")
        elif kind == "running":
            rec.state = "running"
        elif kind == "retry":
            rec.state = "retry"
            rec.error = ev.get("error")
            rec.not_before = ev.get("not_before", 0.0)
            rec.retry_delays.append(ev.get("delay", 0.0))
            rec.worker = None
        elif kind == "requeued":
            rec.state = "submitted"
            rec.worker = None
        elif kind == "done":
            rec.state = "done"
            rec.cached = ev.get("cached", False)
            rec.artifact = ev.get("artifact")
            rec.wall_time = ev.get("wall_time")
            rec.worker = ev.get("worker", rec.worker)
            rec.finished_t = ev.get("t")
        elif kind == "dead":
            rec.state = "dead"
            rec.error = ev.get("error", rec.error)
            rec.attempts = ev.get("attempts", rec.attempts)
            rec.finished_t = ev.get("t")
    return jobs


class JobStore:
    """Append-only journal writer plus recovery reader for one root."""

    def __init__(self, root):
        os.makedirs(root, exist_ok=True)
        self.root = root
        self.path = os.path.join(root, JOURNAL)

    def append(self, ev, job_id, **fields):
        """Durably append one event; returns the event dict.

        Fsynced per event: an acted-on transition must survive the
        process dying the very next instant, or recovery would disagree
        with what the dead scheduler already did.
        """
        event = {"ev": ev, "job": job_id}
        event.update(fields)
        append_jsonl(self.path, event)
        return event

    def recover(self):
        """Fold the on-disk journal into ``{job_id: JobRecord}``."""
        return fold_events(read_events(self.path))
