"""The batch runner: fault-tolerant fan-out over isolated workers.

:class:`BatchRunner` drives a list of :class:`~repro.service.manifest.
CompileTask`\\ s through the hardened driver on a pool of subprocess
workers (:mod:`repro.service.worker`), applying the fleet-level
containment policies the single-compile ladder cannot provide:

* **Isolation** — a crash, OOM, wedged loop, or armed fault inside one
  compile kills one child process, never the batch.
* **Hard timeouts** — every attempt gets a wall-clock deadline enforced
  by the parent with SIGTERM → SIGKILL escalation; the cooperative
  ``--time-budget`` inside the driver is thereby backed by preemption.
* **Retry with backoff** — :class:`RetryPolicy` retries only
  *retryable* failures (worker crash, timeout, worker exception) with
  exponential backoff and deterministic jitter; deterministic driver
  failures (malformed input, exhausted budgets) are never retried.
* **Circuit breaking** — a :class:`~repro.service.circuit.
  CircuitBreaker` keyed per strategy/engine rung opens after
  consecutive failures and routes subsequent tasks straight to the
  degraded reference-engine rung, with half-open probing.
* **Checkpoint/resume** — every terminal outcome is journaled to a
  :class:`~repro.service.checkpoint.RunLedger`; SIGINT/SIGTERM drain
  gracefully (stop dispatching, let in-flight workers finish or hit
  their deadlines, flush the ledger), and a re-run with the same
  ledger skips every journaled task whose input digest is unchanged.

Batch exit codes (surfaced by ``repro batch``):

* ``0`` — every task ok (possibly degraded);
* ``2`` — invalid manifest or arguments (raised as
  :class:`~repro.utils.errors.InputError` before any work starts);
* ``3`` — the batch completed but some tasks failed after retries;
* ``130`` — interrupted (drained after SIGINT/SIGTERM; resume with the
  ledger to finish).
"""

from __future__ import annotations

import random
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _mp_wait
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.cache import CompileCache, compile_cache_key
from repro.machine.presets import ALL_PRESETS
from repro.obs import get_metrics, get_tracer
from repro.pipeline.driver import DriverConfig
from repro.service.checkpoint import RunLedger
from repro.service.circuit import CircuitBreaker
from repro.service.manifest import CompileTask
from repro.service.pool import (
    DEFAULT_IDLE_TIMEOUT,
    DEFAULT_MAX_TASKS_PER_WORKER,
    PoolHandle,
    WorkerPool,
)
from repro.service.worker import (
    WorkerOutcome,
    _kill,
    build_payload,
    reap_worker,
    start_worker,
)
from repro.utils import faults
from repro.utils.errors import InputError

#: Batch process exit codes (``repro batch`` contract).
EXIT_BATCH_OK = 0
EXIT_BATCH_INPUT = 2
EXIT_BATCH_FAILURES = 3
EXIT_BATCH_INTERRUPTED = 130

#: Dispatch rungs.
PRIMARY_RUNG = "primary"
CIRCUIT_RUNG = "circuit-open"
RECHECK_RUNG = "recheck"


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Only *worker-level* failures are retryable: a killed/hung/crashed
    worker may have been unlucky (load spike, armed fault, OOM), but a
    driver that *reported* failure did so deterministically — retrying
    an :class:`~repro.utils.errors.InputError` burns a worker to learn
    nothing.

    Attributes:
        max_retries: Extra attempts after the first (0 disables retry).
        base_delay: Backoff before the first retry, seconds.
        multiplier: Backoff growth factor per retry.
        max_delay: Backoff ceiling, seconds.
        jitter: ± fraction applied to each delay (decorrelates herds).
        seed: Jitter RNG seed — batches are reproducible end to end.
    """

    max_retries: int = 2
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1
    seed: int = 0

    #: Outcome kinds worth retrying.
    RETRYABLE = ("timeout", "crash", "worker-exception")

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise InputError(
                "max_retries must be >= 0, got {}".format(self.max_retries)
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise InputError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise InputError(
                "backoff multiplier must be >= 1, got {}".format(
                    self.multiplier
                )
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise InputError(
                "jitter must be within [0, 1], got {}".format(self.jitter)
            )
        self._rng = random.Random(self.seed)

    def is_retryable(self, kind: str) -> bool:
        return kind in self.RETRYABLE

    def delay(self, failures: int) -> float:
        """Backoff before the next attempt, given *failures* so far
        (>= 1)."""
        exponent = max(0, failures - 1)
        base = min(self.max_delay, self.base_delay * self.multiplier ** exponent)
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return max(0.0, base)


@dataclass
class TaskRecord:
    """Everything the batch observed about one task (summary + ledger
    row source)."""

    task_id: str
    name: str
    digest: str
    status: str = "pending"
    exit_code: Optional[int] = None
    attempts: int = 0
    pids: List[int] = field(default_factory=list)
    duration_s: float = 0.0
    rung: str = ""
    kinds: List[str] = field(default_factory=list)
    resumed: bool = False
    cached: bool = False
    message: str = ""
    metrics: Optional[Dict[str, object]] = None
    notes: List[str] = field(default_factory=list)
    provisional: Optional[Dict[str, object]] = None

    @property
    def terminal(self) -> bool:
        return self.status in ("ok", "degraded", "failed")

    def adopt_prior(self, prior: Dict[str, object]) -> None:
        """Reuse a ledgered outcome on resume (zero recompiles)."""
        self.resumed = True
        self.status = str(prior.get("status", "failed"))
        exit_code = prior.get("exit_code")
        self.exit_code = exit_code if isinstance(exit_code, int) else None
        attempts = prior.get("attempts")
        self.attempts = attempts if isinstance(attempts, int) else 1
        pids = prior.get("pids")
        self.pids = [p for p in pids if isinstance(p, int)] \
            if isinstance(pids, list) else []
        self.rung = str(prior.get("rung", ""))
        kinds = prior.get("kinds")
        self.kinds = [str(k) for k in kinds] if isinstance(kinds, list) else []
        self.message = str(prior.get("message", ""))
        metrics = prior.get("metrics")
        self.metrics = metrics if isinstance(metrics, dict) else None

    def adopt_cached(self, result: Dict[str, object]) -> None:
        """Finalize straight from a compile-cache hit: no worker was
        dispatched, so attempts stay 0 and no pid is recorded.  Only
        clean successes enter the cache, so *result* is an ``ok``."""
        self.cached = True
        self.status = str(result.get("status", "ok"))
        exit_code = result.get("exit_code", 0)
        self.exit_code = exit_code if isinstance(exit_code, int) else 0
        self.rung = "cache"
        metrics = result.get("metrics")
        self.metrics = metrics if isinstance(metrics, dict) else None
        self.message = "compile cache hit"
        self.notes.append("result served from the compile cache")

    def finalize(
        self,
        status: str,
        exit_code: Optional[int],
        message: str = "",
        metrics: Optional[Dict[str, object]] = None,
    ) -> None:
        self.status = status
        self.exit_code = exit_code
        if message:
            self.message = message
        self.metrics = metrics

    def as_entry(
        self, finished_at: Optional[float] = None
    ) -> Dict[str, object]:
        """The ledger row for this record.

        *finished_at* is the batch runner's wall-clock stamp, derived
        from one per-batch ``time.time()`` base plus a monotonic
        offset — never raw ``time.time()`` per record, so an NTP step
        mid-batch cannot make ledger stamps run backwards.
        """
        return {
            "task_id": self.task_id,
            "digest": self.digest,
            "status": self.status,
            "exit_code": self.exit_code,
            "attempts": self.attempts,
            "pids": list(self.pids),
            "rung": self.rung,
            "kinds": list(self.kinds),
            "resumed": self.resumed,
            "cached": self.cached,
            "duration_s": round(self.duration_s, 6),
            "message": self.message,
            "metrics": self.metrics,
            "finished_at": finished_at,
        }

    def as_dict(self) -> Dict[str, object]:
        data = self.as_entry()
        del data["finished_at"]
        data["name"] = self.name
        data["notes"] = list(self.notes)
        return data


@dataclass
class BatchSummary:
    """Final batch accounting."""

    records: List[TaskRecord]
    interrupted: bool = False
    wall_s: float = 0.0
    breaker: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def counts(self) -> Dict[str, int]:
        counts = {
            "total": len(self.records),
            "ok": 0, "degraded": 0, "failed": 0, "pending": 0,
            "resumed": 0, "cached": 0, "compiled": 0,
        }
        for rec in self.records:
            counts[rec.status] = counts.get(rec.status, 0) + 1
            if rec.resumed:
                counts["resumed"] += 1
            elif rec.cached:
                counts["cached"] += 1
            elif rec.terminal:
                counts["compiled"] += 1
        return counts

    @property
    def exit_code(self) -> int:
        if self.interrupted:
            return EXIT_BATCH_INTERRUPTED
        if any(rec.status == "failed" for rec in self.records):
            return EXIT_BATCH_FAILURES
        return EXIT_BATCH_OK

    def as_dict(self) -> Dict[str, object]:
        return {
            "counts": self.counts,
            "exit_code": self.exit_code,
            "interrupted": self.interrupted,
            "wall_s": round(self.wall_s, 6),
            "breaker": self.breaker,
            "tasks": [rec.as_dict() for rec in self.records],
        }


@dataclass
class _Attempt:
    task: CompileTask
    number: int
    rung: str = PRIMARY_RUNG


class BatchRunner:
    """Fault-tolerant batch compilation over subprocess workers.

    Args:
        machine: Machine preset name (validated here; workers rebuild
            the preset by name, so payloads stay primitive).
        registers: r override, forwarded to every worker's driver.
        driver_config: Base :class:`DriverConfig` for every task.
        max_workers: In-flight worker bound.
        task_timeout: Hard per-attempt wall-clock limit, seconds.
        retry_policy: Backoff policy; None uses :class:`RetryPolicy`
            defaults.
        breaker: Circuit breaker; None uses :class:`CircuitBreaker`
            defaults.  The breaker only reroutes when the primary
            engine is the bitset kernel (there is no rung below the
            reference engine).
        ledger_path: JSONL journal to append terminal outcomes to
            (None disables journaling — and therefore resume).
        resume_path: Existing ledger to load; journaled tasks with
            matching digests are skipped.  Implies journaling to the
            same file when *ledger_path* is unset.  ``failed`` records
            whose kinds include a worker-level failure (timeout,
            crash, worker exception) are *not* skipped — a transient
            failure deserves another run.
        retry_failed: On resume, recompile every ``failed`` record —
            even deterministic driver failures (``--retry-failed``).
        recheck_degraded: Re-run tasks that completed *degraded* once
            on the strict reference rung (the retry-on-stricter-rung
            policy): a clean strict run upgrades the task to ``ok``,
            anything else keeps the degraded result.
        kill_grace: SIGTERM→SIGKILL grace for overdue workers, seconds.
        use_pool: Dispatch attempts to a persistent
            :class:`~repro.service.pool.WorkerPool` instead of forking
            one process per attempt.  Containment, retry, circuit, and
            ledger semantics are identical — only the transport (and
            the per-task overhead) changes.  The CLI defaults this on;
            the library default stays off so embedders opt in.
        max_tasks_per_worker: Pool recycling bound (pool mode only).
        worker_idle_timeout: Pool idle recycle, seconds (pool mode
            only; None disables).
        cache: Optional :class:`~repro.cache.CompileCache` consulted
            before dispatch and populated from clean primary-rung
            successes.  Tasks (or batches) with armed faults bypass it
            entirely, in both directions.
    """

    def __init__(
        self,
        machine: str = "two-unit-superscalar",
        registers: Optional[int] = None,
        driver_config: Optional[DriverConfig] = None,
        max_workers: int = 4,
        task_timeout: float = 30.0,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        ledger_path: Optional[str] = None,
        resume_path: Optional[str] = None,
        recheck_degraded: bool = False,
        retry_failed: bool = False,
        kill_grace: float = 0.5,
        use_pool: bool = False,
        max_tasks_per_worker: Optional[int] = DEFAULT_MAX_TASKS_PER_WORKER,
        worker_idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
        cache: Optional[CompileCache] = None,
    ) -> None:
        if machine not in ALL_PRESETS:
            raise InputError(
                "unknown machine {!r}; choose from: {}".format(
                    machine, ", ".join(sorted(ALL_PRESETS))
                )
            )
        if max_workers < 1:
            raise InputError(
                "max_workers must be >= 1, got {}".format(max_workers)
            )
        if task_timeout <= 0:
            raise InputError(
                "task_timeout must be positive seconds, got {}".format(
                    task_timeout
                )
            )
        self.machine = machine
        self.registers = registers
        self.config = driver_config or DriverConfig()
        self.max_workers = max_workers
        self.task_timeout = task_timeout
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.ledger_path = ledger_path or resume_path
        self.resume_path = resume_path
        self.recheck_degraded = recheck_degraded
        self.retry_failed = retry_failed
        self.kill_grace = kill_grace
        self.use_pool = use_pool
        self.max_tasks_per_worker = max_tasks_per_worker
        self.worker_idle_timeout = worker_idle_timeout
        self.cache = cache
        self._pool: Optional[WorkerPool] = None
        self._stop = False
        self._wall_base = 0.0
        self._mono_base = 0.0
        if self.breaker.listener is None:
            self.breaker.listener = self._on_circuit_transition

    def _on_circuit_transition(
        self, key: str, old_state: str, new_state: str
    ) -> None:
        get_tracer().event(
            "circuit.transition", key=key, old=old_state, new=new_state
        )
        get_metrics().counter(
            "circuit.transitions.{}".format(new_state)
        ).inc()

    def _stamp(self) -> float:
        """Wall-clock 'now' derived from the batch's single wall base
        plus a monotonic offset (see :meth:`TaskRecord.as_entry`)."""
        return self._wall_base + (time.monotonic() - self._mono_base)

    # ------------------------------------------------------------------
    # Rung plumbing
    # ------------------------------------------------------------------

    def _config_for(self, rung: str) -> DriverConfig:
        # Degraded rungs run with the region cache off outright: a
        # rung exists because the primary path misbehaved, and the PR 5
        # "only clean primary-rung successes" rule applies at region
        # grain too (the driver's own gates also refuse the reference
        # engine, but the rung config should not rely on that).
        if rung == CIRCUIT_RUNG:
            return replace(
                self.config, engine="reference", region_cache=False
            )
        if rung == RECHECK_RUNG:
            return replace(
                self.config, engine="reference", strict=True,
                paranoid=False, region_cache=False,
            )
        return self.config

    def _breaker_key(self, rung: str) -> str:
        config = self._config_for(rung)
        key = "pinter/" + config.engine
        if rung == RECHECK_RUNG:
            key += "/strict"
        return key

    # ------------------------------------------------------------------
    # Compile cache
    # ------------------------------------------------------------------

    def _cache_key(self, task: CompileTask):
        return compile_cache_key(
            name=task.name,
            text=task.text,
            is_ir=task.is_ir,
            machine=self.machine,
            registers=self.registers,
            config=self.config,
        )

    def _cache_lookup(
        self, task: CompileTask
    ) -> Optional[Dict[str, object]]:
        """The cached result for *task*, or None.  Fault-armed runs
        (per-task specs or parent-armed globals) bypass the cache —
        a fault's whole purpose is to exercise the real transport."""
        if self.cache is None:
            return None
        if task.faults or faults.active_specs():
            return None
        return self.cache.get(self._cache_key(task))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[CompileTask],
        install_signal_handlers: bool = False,
        progress: Optional[Callable[[TaskRecord], None]] = None,
    ) -> BatchSummary:
        """Run every task to exactly one terminal state (or drain on a
        signal) and return the summary.

        Args:
            tasks: Unique-id compile tasks.
            install_signal_handlers: Install SIGINT/SIGTERM graceful-
                drain handlers for the duration of the run (the CLI
                does; library embedders usually should not).
            progress: Optional callback invoked once per task as its
                record becomes terminal (and once per resumed task).
        """
        started = time.monotonic()
        self._mono_base = started
        self._wall_base = time.time()
        tracer = get_tracer()
        tasks = list(tasks)
        ids = [task.task_id for task in tasks]
        if len(set(ids)) != len(ids):
            raise InputError("batch contains duplicate task ids")

        resume_entries = (
            RunLedger.load(self.resume_path) if self.resume_path else {}
        )
        ledger = RunLedger(self.ledger_path) if self.ledger_path else None
        records: Dict[str, TaskRecord] = {}
        pending: Deque[_Attempt] = deque()
        for task in tasks:
            digest = task.digest()
            rec = TaskRecord(
                task_id=task.task_id, name=task.name, digest=digest
            )
            records[task.task_id] = rec
            prior = resume_entries.get(task.task_id)
            if RunLedger.is_reusable(
                prior, digest, retry_failed=self.retry_failed
            ):
                rec.adopt_prior(prior)
                tracer.event(
                    "task.done",
                    task_id=rec.task_id,
                    rung=rec.rung,
                    status=rec.status,
                    attempts=rec.attempts,
                    duration_s=round(rec.duration_s, 6),
                    resumed=True,
                )
                get_metrics().counter("batch.tasks.resumed").inc()
                if progress is not None:
                    progress(rec)
            else:
                if (
                    prior is not None
                    and prior.get("status") == "failed"
                    and prior.get("digest") == digest
                ):
                    # The resume decided to give a failed task another
                    # run — journal why, so the ledger tells the story.
                    kinds = prior.get("kinds")
                    reason = (
                        "--retry-failed" if self.retry_failed
                        else "worker-level failure kinds: {}".format(
                            ", ".join(str(k) for k in kinds)
                            if isinstance(kinds, list) and kinds else "?"
                        )
                    )
                    rec.notes.append(
                        "resume: retrying failed task ({})".format(reason)
                    )
                    tracer.event(
                        "resume.retry_failed",
                        task_id=task.task_id,
                        reason=reason,
                    )
                    get_metrics().counter("batch.resume_retries").inc()
                cached = self._cache_lookup(task)
                if cached is not None:
                    rec.adopt_cached(cached)
                    get_metrics().counter("batch.tasks.cache_hits").inc()
                    self._settle(rec, ledger, progress)
                    continue
                pending.append(_Attempt(task=task, number=1))

        in_flight: List[object] = []
        delayed: List[Tuple[float, _Attempt]] = []
        self._stop = False
        if self.use_pool:
            self._pool = WorkerPool(
                size=self.max_workers,
                kill_grace=self.kill_grace,
                max_tasks_per_worker=self.max_tasks_per_worker,
                idle_timeout=self.worker_idle_timeout,
            )
        try:
            with self._signal_guard(install_signal_handlers), \
                    tracer.span("batch.run", tasks=len(tasks)):
                while pending or delayed or in_flight:
                    now = time.monotonic()
                    if self._stop:
                        # Graceful drain: dispatch nothing further;
                        # in-flight workers finish or hit deadlines.
                        pending.clear()
                        delayed = []
                        if not in_flight:
                            break
                    if self._pool is not None:
                        self._pool.maintain(now)
                    due = [a for t, a in delayed if t <= now]
                    delayed = [(t, a) for t, a in delayed if t > now]
                    pending.extend(due)
                    while pending and len(in_flight) < self.max_workers:
                        self._dispatch(pending.popleft(), records, in_flight)
                    if not in_flight:
                        if delayed:
                            next_ready = min(t for t, _ in delayed)
                            time.sleep(
                                min(0.05, max(0.0, next_ready - time.monotonic()))
                            )
                        continue
                    horizon = min(handle.deadline for handle in in_flight)
                    timeout = max(0.01, min(0.2, horizon - time.monotonic()))
                    _mp_wait(
                        [self._waitable(handle) for handle in in_flight],
                        timeout=timeout,
                    )
                    now = time.monotonic()
                    done = [
                        handle for handle in in_flight
                        if self._handle_done(handle, now)
                    ]
                    for handle in done:
                        in_flight.remove(handle)
                        outcome = self._collect(handle)
                        self._absorb(
                            handle, outcome, records, delayed, ledger,
                            progress,
                        )
        finally:
            for handle in in_flight:  # exception safety net
                if isinstance(handle, PoolHandle):
                    continue  # pool shutdown below reaps these workers
                try:
                    _kill(handle.process, 0.1)
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
            if ledger is not None:
                ledger.close()

        summary = BatchSummary(
            records=[records[task_id] for task_id in ids],
            interrupted=self._stop,
            wall_s=time.monotonic() - started,
            breaker=self.breaker.snapshot(),
        )
        tracer.event(
            "batch.summary",
            interrupted=summary.interrupted,
            wall_s=round(summary.wall_s, 6),
            **{k: v for k, v in summary.counts.items()}
        )
        return summary

    # ------------------------------------------------------------------
    # Transport adapters (fork-per-task vs pool)
    # ------------------------------------------------------------------

    @staticmethod
    def _waitable(handle):
        """What ``multiprocessing.connection.wait`` should block on:
        the process sentinel (fork transport — readable at exit) or the
        result pipe (pool — readable at result arrival *or* EOF)."""
        if isinstance(handle, PoolHandle):
            return handle.waitable
        return handle.sentinel

    @staticmethod
    def _handle_done(handle, now: float) -> bool:
        if isinstance(handle, PoolHandle):
            return handle.is_done(now)
        return not handle.process.is_alive() or now >= handle.deadline

    def _collect(self, handle) -> WorkerOutcome:
        if isinstance(handle, PoolHandle):
            return self._pool.collect(handle)
        return reap_worker(
            handle,
            timed_out=handle.process.is_alive(),
            kill_grace=self.kill_grace,
        )

    # ------------------------------------------------------------------
    # Dispatch / outcome handling
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        attempt: _Attempt,
        records: Dict[str, TaskRecord],
        in_flight: List[object],
    ) -> None:
        rec = records[attempt.task.task_id]
        if (
            attempt.rung == PRIMARY_RUNG
            and self.config.engine == "bitset"
            and not self.breaker.allow(self._breaker_key(PRIMARY_RUNG))
        ):
            attempt.rung = CIRCUIT_RUNG
            rec.notes.append(
                "circuit open for {}: routed to the reference engine".format(
                    self._breaker_key(PRIMARY_RUNG)
                )
            )
        config = self._config_for(attempt.rung)
        payload = build_payload(
            attempt.task, self.machine, self.registers, config
        )
        if self._pool is not None:
            handle = self._pool.dispatch(
                attempt.task,
                payload,
                self.task_timeout,
                attempt=attempt.number,
                rung=attempt.rung,
            )
        else:
            handle = start_worker(
                attempt.task,
                payload,
                self.task_timeout,
                attempt=attempt.number,
                rung=attempt.rung,
            )
        rec.attempts += 1
        rec.pids.append(handle.pid)
        rec.rung = self._breaker_key(attempt.rung)
        in_flight.append(handle)
        get_tracer().event(
            "worker.dispatch",
            task_id=attempt.task.task_id,
            rung=rec.rung,
            attempt=attempt.number,
            pid=handle.pid,
        )
        get_metrics().counter("batch.dispatches").inc()

    def _settle(
        self,
        rec: TaskRecord,
        ledger: Optional[RunLedger],
        progress: Optional[Callable[[TaskRecord], None]],
    ) -> None:
        tracer = get_tracer()
        metrics = get_metrics()
        if ledger is not None:
            ledger.record(rec.as_entry(finished_at=self._stamp()))
            tracer.event(
                "ledger.write", task_id=rec.task_id, status=rec.status
            )
            metrics.counter("ledger.writes").inc()
        tracer.event(
            "task.done",
            task_id=rec.task_id,
            rung=rec.rung,
            status=rec.status,
            attempts=rec.attempts,
            duration_s=round(rec.duration_s, 6),
        )
        metrics.counter("batch.tasks.{}".format(rec.status)).inc()
        if progress is not None:
            progress(rec)

    def _absorb(
        self,
        handle,
        outcome: WorkerOutcome,
        records: Dict[str, TaskRecord],
        delayed: List[Tuple[float, _Attempt]],
        ledger: Optional[RunLedger],
        progress: Optional[Callable[[TaskRecord], None]],
    ) -> None:
        rec = records[handle.task.task_id]
        rec.duration_s += outcome.duration_s
        key = self._breaker_key(handle.rung)
        tracer = get_tracer()
        tracer.event(
            "worker.reap",
            task_id=handle.task.task_id,
            rung=key,
            kind=outcome.kind,
            pid=outcome.pid,
            exitcode=outcome.exitcode,
            duration_s=round(outcome.duration_s, 6),
        )

        result = outcome.result
        if outcome.kind == "result" and isinstance(result, dict):
            # Fold the worker's per-phase wall seconds into the trace
            # as complete spans, tagged with the task and rung — the
            # per-phase table of ``repro stats`` aggregates them next
            # to the parent's own live spans.
            report = result.get("report")
            if isinstance(report, dict):
                phase_seconds = report.get("phase_seconds")
                if isinstance(phase_seconds, dict):
                    for phase, seconds in sorted(phase_seconds.items()):
                        tracer.span_point(
                            "phase.{}".format(phase),
                            seconds,
                            task_id=handle.task.task_id,
                            rung=key,
                        )
        if outcome.kind == "result" and \
                result["status"] != "worker-exception":
            completed_ok = result["exit_code"] == 0
            if completed_ok:
                self.breaker.record_success(key)
                if (
                    self.cache is not None
                    and result["status"] == "ok"
                    and handle.rung == PRIMARY_RUNG
                    and not handle.payload.get("faults")
                ):
                    # Only a clean primary-rung success is replayable;
                    # degraded results and fault-armed runs never enter.
                    self.cache.put(self._cache_key(handle.task), result)
            elif result.get("failure_kind") == "internal":
                # Input failures are the task's own defect and say
                # nothing about the rung's health.
                self.breaker.record_failure(key)

            if handle.rung == RECHECK_RUNG:
                provisional = rec.provisional or {}
                if completed_ok and result["status"] == "ok":
                    rec.finalize(
                        status="ok",
                        exit_code=0,
                        message="degraded result revalidated clean on the "
                        "strict reference rung",
                        metrics=result.get("metrics"),
                    )
                else:
                    rec.finalize(
                        status=str(provisional.get("status", "degraded")),
                        exit_code=provisional.get("exit_code", 0),
                        message="strict recheck did not improve the result",
                        metrics=provisional.get("metrics"),
                    )
                self._settle(rec, ledger, progress)
                return

            if (
                completed_ok
                and result["status"] == "degraded"
                and self.recheck_degraded
                and handle.rung == PRIMARY_RUNG
                and not self._stop
            ):
                rec.provisional = {
                    "status": "degraded",
                    "exit_code": 0,
                    "metrics": result.get("metrics"),
                }
                delayed.append((
                    time.monotonic(),
                    _Attempt(
                        task=handle.task,
                        number=handle.attempt + 1,
                        rung=RECHECK_RUNG,
                    ),
                ))
                return

            rec.finalize(
                status=result["status"] if completed_ok else "failed",
                exit_code=result["exit_code"],
                metrics=result.get("metrics"),
            )
            self._settle(rec, ledger, progress)
            return

        # Worker-level failure: timeout, crash/poison, or an exception
        # inside the worker harness.
        kind = outcome.kind if outcome.kind != "result" else "worker-exception"
        rec.kinds.append(kind)
        rec.message = outcome.message
        self.breaker.record_failure(key)

        if self._stop:
            # Interrupted attempts are not evidence about the task:
            # leave it unledgered so a resume recompiles it.
            rec.status = "pending"
            return
        if handle.rung == RECHECK_RUNG:
            provisional = rec.provisional or {}
            rec.finalize(
                status=str(provisional.get("status", "degraded")),
                exit_code=provisional.get("exit_code", 0),
                message="strict recheck {}; keeping the degraded "
                "result".format(kind),
                metrics=provisional.get("metrics"),
            )
            self._settle(rec, ledger, progress)
            return
        failures = len(rec.kinds)
        if (
            self.retry_policy.is_retryable(kind)
            and handle.attempt <= self.retry_policy.max_retries
        ):
            delay = self.retry_policy.delay(failures)
            tracer.event(
                "batch.retry",
                task_id=handle.task.task_id,
                kind=kind,
                failures=failures,
                delay_s=round(delay, 6),
            )
            get_metrics().counter("batch.retries").inc()
            delayed.append((
                time.monotonic() + delay,
                _Attempt(task=handle.task, number=handle.attempt + 1),
            ))
            return
        rec.finalize(
            status="failed",
            exit_code=1,
            message="failed after {} attempt(s): {}".format(
                rec.attempts, ", ".join(rec.kinds)
            ),
        )
        self._settle(rec, ledger, progress)

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    @contextmanager
    def _signal_guard(self, enabled: bool):
        if (
            not enabled
            or threading.current_thread() is not threading.main_thread()
        ):
            yield
            return

        def handler(signum, frame):  # noqa: ARG001
            self._stop = True

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        try:
            yield
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)
