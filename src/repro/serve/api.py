"""Client-side helpers for the experiment service.

Submission is a filesystem handshake, not a network protocol: a client
atomically drops ``{"job": id, "spec": {...}}`` into ``<root>/spool/``
and the server journals + executes it. That keeps the service free of
socket dependencies and makes submissions exactly as durable as the
rest of the system — a spool file survives both client and server
crashes until the server has fsynced the submission into its journal.

Results are read back the same way: fold ``jobs.jsonl`` (read-only,
safe while the server is live) and load the ``summary.json`` out of
the journaled artifact directory inside the content-addressed cache.
"""

import json
import os
import time

from repro.obs.artifacts import SUMMARY, atomic_write
from repro.serve.service import STATUS, SPOOL_DIR, spool_path
from repro.serve.spec import new_job_id
from repro.serve.store import JOURNAL, fold_events, read_events


def submit_spec(root, spec, job_id=None):
    """Drop one :class:`JobSpec` into the service spool; returns job id.

    The spool write is atomic, so the server never sees a torn
    submission; the id is assigned client-side so the caller can poll
    for its outcome immediately.
    """
    if job_id is None:
        job_id = new_job_id()
    os.makedirs(os.path.join(root, SPOOL_DIR), exist_ok=True)
    with atomic_write(spool_path(root, job_id)) as fh:
        json.dump({"job": job_id, "spec": spec.to_dict()}, fh, indent=2)
        fh.write("\n")
    return job_id


def job_records(root):
    """Read-only fold of the service journal: ``{job_id: JobRecord}``."""
    return fold_events(read_events(os.path.join(root, JOURNAL)))


def wait_for(root, job_ids, timeout=60.0, poll=0.05,
             clock=time.monotonic, sleep=time.sleep):
    """Block until every job id is terminal; returns their records.

    Raises TimeoutError (listing the stragglers) if the deadline
    passes first — the caller decides whether that means a dead server
    or just a long queue.
    """
    deadline = clock() + timeout
    while True:
        records = job_records(root)
        pending = [j for j in job_ids
                   if j not in records or not records[j].terminal]
        if not pending:
            return {j: records[j] for j in job_ids}
        if clock() >= deadline:
            raise TimeoutError(
                f"jobs not terminal after {timeout:g}s: {pending}"
            )
        sleep(poll)


def load_result(root, record):
    """The :class:`SimResult` of a done job (or an artifact path)."""
    from repro.stats.summary import SimResult

    artifact = record if isinstance(record, str) else record.artifact
    if artifact is None:
        raise ValueError("job has no artifact (not done?)")
    path = artifact if os.path.isabs(artifact) else os.path.join(root,
                                                                 artifact)
    with open(os.path.join(path, SUMMARY)) as fh:
        return SimResult.from_dict(json.load(fh))


def scan_service(root):
    """Offline status: journal fold + last status snapshot, no server.

    Works on a live root (all files are append-only or atomically
    replaced) and on the debris of a SIGKILLed one.
    """
    records = job_records(root)
    by_state = {}
    retries = 0
    for rec in records.values():
        by_state[rec.state] = by_state.get(rec.state, 0) + 1
        retries += len(rec.retry_delays)
    status = None
    try:
        with open(os.path.join(root, STATUS)) as fh:
            status = json.load(fh)
    except (OSError, json.JSONDecodeError):
        pass
    dead = [rec.diagnostic() for rec in records.values()
            if rec.state == "dead"]
    return {
        "jobs": by_state,
        "total": len(records),
        "retries": retries,
        "dead": dead,
        "spool": sum(
            1 for n in os.listdir(os.path.join(root, SPOOL_DIR))
            if n.endswith(".json")
        ) if os.path.isdir(os.path.join(root, SPOOL_DIR)) else 0,
        "server": status,
    }
