"""Fault-tolerant batch compilation service.

Public surface of the ``repro.service`` package: build tasks
(:func:`load_manifest`, :func:`fuzz_tasks`), run them on isolated
workers with retry/circuit/checkpoint policy (:class:`BatchRunner`) —
per-attempt fork workers or a persistent :class:`WorkerPool` — or run
a single isolated attempt (:func:`run_one`).  The long-running HTTP/JSON
front end (:class:`CompileServer`, ``repro serve``) drives the same
machinery as a service: token-style admission
(:class:`SessionTable`), request coalescing and deadline-aware
dispatch (:class:`JobDispatcher`), and graceful SIGTERM drain.
A self-healing parent (:class:`Supervisor`, ``repro serve
--supervised``) restarts the server on crash/hang with backoff,
a restart budget, and poison-input quarantine, resuming journaled
jobs from the run ledger.
"""

from repro.service.batch import (
    EXIT_BATCH_FAILURES,
    EXIT_BATCH_INPUT,
    EXIT_BATCH_INTERRUPTED,
    EXIT_BATCH_OK,
    BatchRunner,
    BatchSummary,
    RetryPolicy,
    TaskRecord,
)
from repro.service.checkpoint import RunLedger, TERMINAL_STATUSES
from repro.service.circuit import CircuitBreaker
from repro.service.jobs import (
    JOB_DONE,
    JOB_QUEUED,
    JOB_RUNNING,
    STATUS_DEADLINE,
    STATUS_INTERRUPTED,
    Job,
    JobDispatcher,
)
from repro.service.manifest import CompileTask, fuzz_tasks, load_manifest
from repro.service.pool import (
    DEFAULT_IDLE_TIMEOUT,
    DEFAULT_MAX_TASKS_PER_WORKER,
    PoolHandle,
    WorkerPool,
)
from repro.service.server import (
    EXIT_SERVE_OK,
    CompileServer,
)
from repro.service.supervisor import (
    EXIT_SUPERVISOR_GAVE_UP,
    Supervisor,
    audit_exactly_once,
    crash_suspects,
)
from repro.service.session import (
    SHED_CLIENT_QUEUE,
    SHED_DRAINING,
    SHED_QUEUE_FULL,
    SessionTable,
    ShedDecision,
)
from repro.service.worker import WorkerOutcome, run_one

__all__ = [
    "BatchRunner",
    "BatchSummary",
    "CircuitBreaker",
    "CompileServer",
    "CompileTask",
    "EXIT_SERVE_OK",
    "EXIT_SUPERVISOR_GAVE_UP",
    "JOB_DONE",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "Job",
    "JobDispatcher",
    "SHED_CLIENT_QUEUE",
    "SHED_DRAINING",
    "SHED_QUEUE_FULL",
    "STATUS_DEADLINE",
    "STATUS_INTERRUPTED",
    "SessionTable",
    "ShedDecision",
    "Supervisor",
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_MAX_TASKS_PER_WORKER",
    "EXIT_BATCH_FAILURES",
    "EXIT_BATCH_INPUT",
    "EXIT_BATCH_INTERRUPTED",
    "EXIT_BATCH_OK",
    "PoolHandle",
    "RetryPolicy",
    "RunLedger",
    "TERMINAL_STATUSES",
    "TaskRecord",
    "WorkerOutcome",
    "WorkerPool",
    "audit_exactly_once",
    "crash_suspects",
    "fuzz_tasks",
    "load_manifest",
    "run_one",
]
