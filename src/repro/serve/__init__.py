"""Crash-tolerant experiment service (``repro serve``).

A durable job queue + supervised worker pool + content-addressed
result cache over one root directory. Submit jobs (``submit_spec`` /
the ``repro serve --submit*`` CLI), run the scheduler
(:class:`ExperimentService` / ``repro serve``), kill anything —
workers, the server, both — restart, and the queue completes with
bit-identical results and no duplicated simulation work. See DESIGN
§10 for the lifecycle state machine and the crash-tolerance
invariants.
"""

from repro.serve.api import (
    job_records,
    load_result,
    scan_service,
    submit_spec,
    wait_for,
)
from repro.serve.backoff import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.serve.cache import ResultCache
from repro.serve.service import ExperimentService, ServiceLockError
from repro.serve.spec import JobSpec, new_job_id, spec_for
from repro.serve.store import JobRecord, JobStore, fold_events, read_events

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "ExperimentService",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "ResultCache",
    "RetryPolicy",
    "ServiceLockError",
    "fold_events",
    "job_records",
    "load_result",
    "new_job_id",
    "read_events",
    "scan_service",
    "spec_for",
    "submit_spec",
    "wait_for",
]
