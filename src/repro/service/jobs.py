"""Jobs and the dispatcher thread behind the compilation server.

The HTTP front end (:mod:`repro.service.server`) admits requests on
the asyncio loop thread; everything that involves a worker happens
here, on one dedicated **dispatcher thread** that owns the warm
:class:`~repro.service.pool.WorkerPool` and multiplexes in-flight
attempts exactly like the batch runner does — ``multiprocessing.
connection.wait`` over the workers' result pipes plus one wake socket
the loop thread pokes after every enqueue.

Per-job policy, in dispatch order:

1. **Deadline** — a job whose per-request deadline already passed is
   settled ``deadline-exceeded`` without burning a worker; otherwise
   the remaining budget is folded into the worker's ``DriverConfig.
   time_budget`` (the existing mid-phase ``check_deadline`` preemption
   path) *and* caps the hard kill timeout.  Either way the deadline
   ends the job as ``deadline-exceeded``: a driver that aborts on that
   budget settles the same as a queue expiry or a hard kill.
2. **Coalescing** — jobs are keyed by the compile-cache key (input
   digest + machine + strategy + config + version).  A job whose key
   matches a queued/running job attaches to it as a *follower*: one
   worker compile, N responses (dogpile protection).  Attachment
   happens at submit time on the loop thread, guarded by the same lock
   the dispatcher settles under.
3. **Cache** — before dispatch, a clean hit in the
   :class:`~repro.cache.CompileCache` settles the job (and all its
   followers) with ``rung="cache"`` and zero attempts.
4. **Circuit breaker** — an open breaker for the primary engine rung
   reroutes the attempt to the reference engine (surfaced in the
   response's ``rung``/``notes``), identical to batch policy.
5. **Retry** — worker-level failures (timeout, crash, worker
   exception) retry with the batch :class:`~repro.service.batch.
   RetryPolicy`; deterministic driver failures never retry.

**Drain** (SIGTERM/SIGINT or ``POST /drain``) reuses the batch
discipline: nothing new is dispatched, in-flight attempts finish or
hit their deadlines, and every still-queued job is settled
``interrupted`` — journaled to the :class:`~repro.service.checkpoint.
RunLedger` with its input digest, so nothing accepted is ever lost:
a non-terminal ledger status is exactly what resume recompiles.  The
pool is then retired through its normal shutdown (SIGTERM → SIGKILL,
full joins — zero orphans) and the ledger is closed.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _mp_wait
from typing import Callable, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.cache import CompileCache, compile_cache_key
from repro.machine.presets import ALL_PRESETS
from repro.obs import get_metrics, get_tracer
from repro.pipeline.driver import DriverConfig
from repro.service.batch import CIRCUIT_RUNG, PRIMARY_RUNG, RetryPolicy
from repro.service.checkpoint import RunLedger
from repro.service.circuit import CircuitBreaker
from repro.service.manifest import CompileTask
from repro.service.pool import PoolHandle, WorkerPool
from repro.service.worker import WorkerOutcome, build_payload
from repro.utils.errors import InputError

#: Job lifecycle states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"

#: Terminal job statuses beyond the driver's ok/degraded/failed:
#: ``deadline-exceeded`` (the per-request budget ran out) and
#: ``interrupted`` (drain cancelled it; journaled as resumable).
STATUS_DEADLINE = "deadline-exceeded"
STATUS_INTERRUPTED = "interrupted"


@dataclass
class Job:
    """One accepted compile request (leader or coalesced follower)."""

    job_id: str
    client: str
    task: CompileTask
    key: str
    deadline: Optional[float] = None  # monotonic, None = no deadline
    submitted: float = field(default_factory=time.monotonic)
    state: str = JOB_QUEUED
    status: Optional[str] = None
    exit_code: Optional[int] = None
    rung: str = ""
    attempts: int = 0
    pids: List[int] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    cached: bool = False
    coalesced_into: Optional[str] = None
    followers: List["Job"] = field(default_factory=list)
    message: str = ""
    notes: List[str] = field(default_factory=list)
    metrics: Optional[Dict[str, object]] = None
    duration_s: float = 0.0
    wait_s: float = 0.0
    callbacks: List[Callable[["Job"], None]] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.state == JOB_DONE

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - (time.monotonic() if now is None else now)

    def as_dict(self) -> Dict[str, object]:
        """The wire form of the job (poll/result responses)."""
        return {
            "job_id": self.job_id,
            "client": self.client,
            "state": self.state,
            "status": self.status,
            "exit_code": self.exit_code,
            "rung": self.rung,
            "attempts": self.attempts,
            "pids": list(self.pids),
            "kinds": list(self.kinds),
            "cached": self.cached,
            "coalesced": self.coalesced_into is not None,
            "coalesced_into": self.coalesced_into,
            "message": self.message,
            "notes": list(self.notes),
            "metrics": self.metrics,
            "duration_s": round(self.duration_s, 6),
            "wait_s": round(self.wait_s, 6),
            "digest": self.task.digest(),
        }

    def queue_entry(self, status: str, recorded_at: float) -> Dict[str, object]:
        """A durable-queue journal row (``accepted``/``dispatched``).

        Carries the full task payload (name/text/is_ir/client) so a
        restarted server can rebuild the job and resubmit it under its
        original id; both statuses are non-terminal, so resume and the
        ledger audit treat them as open work.
        """
        return {
            "task_id": self.job_id,
            "digest": self.task.digest(),
            "status": status,
            "client": self.client,
            "name": self.task.name,
            "text": self.task.text,
            "is_ir": self.task.is_ir,
            "attempts": self.attempts,
            "recorded_at": recorded_at,
        }

    def ledger_entry(self, finished_at: float) -> Dict[str, object]:
        """The run-ledger row: same shape the batch writes, so one
        ledger can journal both surfaces."""
        return {
            "task_id": self.job_id,
            "digest": self.task.digest(),
            "status": self.status,
            "exit_code": self.exit_code,
            "attempts": self.attempts,
            "pids": list(self.pids),
            "rung": self.rung,
            "kinds": list(self.kinds),
            "resumed": False,
            "cached": self.cached,
            "duration_s": round(self.duration_s, 6),
            "message": self.message,
            "metrics": self.metrics,
            "finished_at": finished_at,
        }


@dataclass
class _Attempt:
    job: Job
    number: int
    rung: str = PRIMARY_RUNG


class JobDispatcher:
    """The worker-owning thread: queue → pool → settled jobs.

    Args:
        machine: Machine preset name (validated here).
        registers: Register-count override for every job.
        driver_config: Base :class:`DriverConfig`; per-job deadlines
            tighten its ``time_budget``.
        pool_size: Warm pool worker count (= max in-flight attempts).
        task_timeout: Hard per-attempt wall-clock cap, seconds; a
            tighter per-job deadline lowers it further.
        retry_policy: Worker-level failure retry (None = defaults).
        breaker: Per-rung circuit breaker (None = defaults).
        cache: Optional compile cache, consulted pre-dispatch and
            populated from clean primary-rung successes.
        ledger_path: JSONL run ledger journaling every settled job
            (None disables journaling).
        settle_listener: Called once per settled job (leader *and*
            followers) on the dispatcher thread — the server wires
            token release and waiter wakeups here.
        kill_grace: SIGTERM→SIGKILL grace for overdue workers.
        max_tasks_per_worker: Pool recycling bound.
        worker_idle_timeout: Pool idle recycle, seconds.
        durable: Journal ``accepted``/``dispatched`` rows (with task
            payloads) so a restarted server resubmits queued work —
            requires ``ledger_path``.
        max_segment_bytes: Auto-compact the ledger past this size
            (see :class:`~repro.service.checkpoint.RunLedger`).
    """

    def __init__(
        self,
        machine: str = "two-unit-superscalar",
        registers: Optional[int] = None,
        driver_config: Optional[DriverConfig] = None,
        pool_size: int = 4,
        task_timeout: float = 30.0,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        cache: Optional[CompileCache] = None,
        ledger_path: Optional[str] = None,
        settle_listener: Optional[Callable[[Job], None]] = None,
        kill_grace: float = 0.5,
        max_tasks_per_worker: Optional[int] = 256,
        worker_idle_timeout: Optional[float] = 300.0,
        durable: bool = False,
        max_segment_bytes: Optional[int] = None,
    ) -> None:
        if machine not in ALL_PRESETS:
            raise InputError(
                "unknown machine {!r}; choose from: {}".format(
                    machine, ", ".join(sorted(ALL_PRESETS))
                )
            )
        if pool_size < 1:
            raise InputError(
                "pool_size must be >= 1, got {}".format(pool_size)
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
        self.pool_size = pool_size
        self.task_timeout = task_timeout
        self.retry_policy = retry_policy or RetryPolicy(max_retries=1)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.cache = cache
        self.settle_listener = settle_listener
        self.kill_grace = kill_grace
        if durable and not ledger_path:
            raise InputError(
                "durable mode needs a ledger (pass ledger_path)"
            )
        self.durable = durable

        self._ledger = RunLedger(
            ledger_path, max_segment_bytes=max_segment_bytes
        ) if ledger_path else None
        self._pool = WorkerPool(
            size=pool_size,
            kill_grace=kill_grace,
            max_tasks_per_worker=max_tasks_per_worker,
            idle_timeout=worker_idle_timeout,
        )
        self._lock = threading.Lock()
        self._queue: Deque[_Attempt] = deque()
        self._delayed: List[Tuple[float, _Attempt]] = []
        self._inflight: List[Tuple[PoolHandle, Job]] = []
        self._coalesce: Dict[str, Job] = {}
        self._draining = False
        self._stopped = threading.Event()
        # Wake socket: the loop thread pokes one byte after enqueue /
        # drain so the dispatcher's _mp_wait returns immediately
        # instead of at its poll granularity.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wall_base = time.time()
        self._mono_base = time.monotonic()
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "dispatched": 0,
            "completed": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "retries": 0,
            "deadline_exceeded": 0,
            "interrupted": 0,
        }
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-dispatch", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Loop-thread API
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

    def job_key(self, task: CompileTask) -> str:
        """The coalescing identity of *task*: the compile-cache key
        digest, so "identical" means identical everywhere the result
        could differ (input, machine, strategy, config, version)."""
        return self._cache_key(task).digest()

    def submit(self, job: Job) -> bool:
        """Enqueue an admitted *job*; returns True when it was
        coalesced onto an existing leader instead of queued.

        Jobs carrying per-request fault specs never coalesce (either
        direction) and never touch the cache — a fault drill must
        exercise the real transport.
        """
        tracer = get_tracer()
        with self._lock:
            if self._draining:
                # Admission already refuses during drain; a race that
                # slips one through still settles it safely.
                self._settle_locked(
                    job, STATUS_INTERRUPTED, exit_code=1,
                    message="server drained before dispatch",
                )
                return False
            self.stats["submitted"] += 1
            if self.durable and self._ledger is not None:
                # Durable queue: journal acceptance (with the task
                # payload) before anything can happen to the job, so a
                # crashed server resubmits it on restart.
                self._ledger.record(
                    job.queue_entry("accepted", self._stamp())
                )
            leader = self._coalesce.get(job.key)
            if (
                leader is not None
                and not leader.done
                and not job.task.faults
                and not leader.task.faults
            ):
                job.coalesced_into = leader.job_id
                leader.followers.append(job)
                self.stats["coalesced"] += 1
                get_metrics().counter("serve.coalesced").inc()
                tracer.event(
                    "serve.coalesce",
                    job_id=job.job_id,
                    leader=leader.job_id,
                )
                return True
            self._coalesce[job.key] = job
            self._queue.append(_Attempt(job=job, number=1))
        get_metrics().counter("serve.submitted").inc()
        get_metrics().gauge("serve.queue_depth").set(len(self._queue))
        self._wake()
        return False

    def settle_failed(self, job: Job, message: str) -> None:
        """Settle *job* terminally failed without ever dispatching it
        (quarantined poison input, refused recovery row)."""
        with self._lock:
            self._settle_locked(job, "failed", exit_code=1, message=message)

    def begin_drain(self) -> None:
        """Stop dispatching; settle the backlog as interrupted; let
        in-flight attempts finish; then retire the pool.  Idempotent;
        completion is observable via :meth:`join`."""
        with self._lock:
            self._draining = True
        get_tracer().event("serve.drain")
        self._wake()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the post-drain shutdown to complete."""
        return self._stopped.wait(timeout)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def snapshot(self) -> Dict[str, object]:
        """Dispatcher + pool + breaker state for ``/healthz``."""
        with self._lock:
            queued = len(self._queue) + len(self._delayed)
            inflight = len(self._inflight)
            stats = dict(self.stats)
            draining = self._draining
        return {
            "queued": queued,
            "in_flight": inflight,
            "draining": draining,
            "stats": stats,
            "pool": dict(self._pool.stats),
            "worker_pids": self._pool.worker_pids(),
            "breaker": self.breaker.snapshot(),
            "cache": self.cache.snapshot() if self.cache else None,
        }

    def close_in_workers(self, fds) -> None:
        """Descriptors every future pool worker must close at entry
        (the serve front end registers its listening sockets so a
        SIGKILL'd server's workers never keep the port bound)."""
        self._pool.close_in_children(list(fds))

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except OSError:  # pragma: no cover - shutdown race
            pass

    # ------------------------------------------------------------------
    # Dispatcher thread
    # ------------------------------------------------------------------

    def _stamp(self) -> float:
        """Wall-clock derived from one base + monotonic offset (same
        NTP-step hygiene as the batch ledger)."""
        return self._wall_base + (time.monotonic() - self._mono_base)

    def _config_for(self, rung: str, remaining: Optional[float]):
        config = self.config
        if rung == CIRCUIT_RUNG:
            # Degraded rung: reference engine, region cache off — the
            # "only clean primary-rung successes" rule at region grain.
            config = replace(config, engine="reference", region_cache=False)
        if remaining is not None:
            budget = config.time_budget
            budget = remaining if budget is None else min(budget, remaining)
            config = replace(config, time_budget=max(0.001, budget))
        return config

    def _breaker_key(self, rung: str) -> str:
        engine = "reference" if rung == CIRCUIT_RUNG else self.config.engine
        return "pinter/" + engine

    def _run(self) -> None:
        try:
            self._loop()
        finally:
            self._pool.shutdown()
            if self._ledger is not None:
                self._ledger.close()
            self._stopped.set()
            get_tracer().event("serve.dispatcher_stopped")

    def _loop(self) -> None:
        while True:
            now = time.monotonic()
            with self._lock:
                draining = self._draining
                if draining:
                    backlog = list(self._queue)
                    backlog.extend(a for _, a in self._delayed)
                    self._queue.clear()
                    self._delayed = []
                    for attempt in backlog:
                        self._settle_locked(
                            attempt.job, STATUS_INTERRUPTED, exit_code=1,
                            message="server drained before dispatch "
                            "(resubmit or resume from the ledger)",
                        )
                due = [a for t, a in self._delayed if t <= now]
                self._delayed = [
                    (t, a) for t, a in self._delayed if t > now
                ]
                self._queue.extend(due)
                ready: List[_Attempt] = []
                while self._queue and \
                        len(self._inflight) + len(ready) < self.pool_size:
                    ready.append(self._queue.popleft())
                idle = (
                    not self._inflight
                    and not self._queue
                    and not self._delayed
                )
                if draining and idle and not ready:
                    return
            for attempt in ready:
                try:
                    self._dispatch(attempt)
                except Exception as exc:  # noqa: BLE001
                    # A dispatch defect must never kill the dispatcher
                    # thread — that would wedge every waiting client.
                    # Settle the job failed and keep serving.
                    with self._lock:
                        self._settle_locked(
                            attempt.job, "failed", exit_code=1,
                            message="dispatch error: {}".format(exc),
                        )
                    get_tracer().event(
                        "serve.dispatch_error",
                        job_id=attempt.job.job_id,
                        error=str(exc),
                    )

            with self._lock:
                waitables = [h.waitable for h, _ in self._inflight]
                horizon = min(
                    (h.deadline for h, _ in self._inflight),
                    default=now + 0.2,
                )
                next_delay = min(
                    (t for t, _ in self._delayed), default=horizon
                )
            self._pool.maintain()
            timeout = max(0.01, min(0.25, min(horizon, next_delay) - now))
            _mp_wait(waitables + [self._wake_r], timeout=timeout)
            try:
                while self._wake_r.recv(4096):
                    pass
            except (BlockingIOError, OSError):
                pass

            now = time.monotonic()
            with self._lock:
                done = [
                    (h, j) for h, j in self._inflight if h.is_done(now)
                ]
                for pair in done:
                    self._inflight.remove(pair)
            for handle, job in done:
                outcome = self._pool.collect(handle)
                self._absorb(handle, job, outcome)

    # ------------------------------------------------------------------
    # Dispatch / absorb (dispatcher thread)
    # ------------------------------------------------------------------

    def _dispatch(self, attempt: _Attempt) -> None:
        job = attempt.job
        now = time.monotonic()
        remaining = job.remaining(now)
        if remaining is not None and remaining <= 0:
            self._settle_deadline(
                job,
                "deadline expired before dispatch "
                "({:.3f}s over)".format(-remaining),
            )
            return

        if (
            attempt.number == 1
            and attempt.rung == PRIMARY_RUNG
            and self.cache is not None
            and not job.task.faults
        ):
            cached = self.cache.get(self._cache_key(job.task))
            if cached is not None:
                with self._lock:
                    self.stats["cache_hits"] += 1
                    job.cached = True
                    job.rung = "cache"
                    job.metrics = cached.get("metrics") \
                        if isinstance(cached.get("metrics"), dict) else None
                    self._settle_locked(
                        job, str(cached.get("status", "ok")),
                        exit_code=0, message="compile cache hit",
                    )
                get_metrics().counter("serve.cache_hits").inc()
                return

        rung = attempt.rung
        if (
            rung == PRIMARY_RUNG
            and self.config.engine == "bitset"
            and not self.breaker.allow(self._breaker_key(PRIMARY_RUNG))
        ):
            rung = CIRCUIT_RUNG
            job.notes.append(
                "circuit open for {}: routed to the reference "
                "engine".format(self._breaker_key(PRIMARY_RUNG))
            )

        config = self._config_for(rung, remaining)
        timeout = self.task_timeout
        if remaining is not None:
            # The hard kill backs the cooperative budget: give the
            # worker a short grace past the deadline to degrade
            # cleanly, then the pool kills it.
            timeout = min(timeout, remaining + 0.25)
        payload = build_payload(job.task, self.machine, self.registers, config)
        handle = self._pool.dispatch(
            job.task, payload, timeout,
            attempt=attempt.number, rung=rung,
        )
        with self._lock:
            job.state = JOB_RUNNING
            job.attempts += 1
            if handle.pid is not None:
                job.pids.append(handle.pid)
            job.rung = self._breaker_key(rung)
            self._inflight.append((handle, job))
            self.stats["dispatched"] += 1
            if self.durable and self._ledger is not None:
                # The "dispatched" marker is the poison-detection
                # breadcrumb: a job whose *last* row is still
                # "dispatched" when the server dies was in flight at
                # the crash — the supervisor counts repeats per digest.
                self._ledger.record(
                    job.queue_entry("dispatched", self._stamp())
                )
        get_metrics().counter("serve.dispatches").inc()
        get_tracer().event(
            "serve.dispatch",
            job_id=job.job_id,
            rung=job.rung,
            attempt=attempt.number,
            pid=handle.pid,
        )

    def _settle_deadline(self, job: Job, message: str) -> None:
        with self._lock:
            self.stats["deadline_exceeded"] += 1
            self._settle_locked(
                job, STATUS_DEADLINE, exit_code=1, message=message
            )
        get_metrics().counter("serve.deadline_exceeded").inc()

    def _absorb(
        self, handle: PoolHandle, job: Job, outcome: WorkerOutcome
    ) -> None:
        job.duration_s += outcome.duration_s
        key = self._breaker_key(handle.rung)
        result = outcome.result
        if outcome.kind == "result" and isinstance(result, dict) and \
                result.get("status") != "worker-exception":
            completed_ok = result.get("exit_code") == 0
            if completed_ok:
                self.breaker.record_success(key)
                if (
                    self.cache is not None
                    and result.get("status") == "ok"
                    and handle.rung == PRIMARY_RUNG
                    and not handle.payload.get("faults")
                ):
                    self.cache.put(self._cache_key(job.task), result)
            elif result.get("failure_kind") == "internal":
                remaining = job.remaining()
                if remaining is not None and remaining <= 0:
                    # The worker's time_budget carried this deadline:
                    # the driver ran out of the request's time, which
                    # is no engine defect for the breaker to count.
                    self._settle_deadline(
                        job, "compile aborted at the request deadline"
                    )
                    return
                self.breaker.record_failure(key)
            status = str(result.get("status", "failed")) if completed_ok \
                else "failed"
            message = ""
            if not completed_ok:
                report = result.get("report")
                if isinstance(report, dict):
                    message = str(report.get("error", ""))
            metrics = result.get("metrics")
            with self._lock:
                job.metrics = metrics if isinstance(metrics, dict) else None
                self._settle_locked(
                    job, status,
                    exit_code=result.get("exit_code", 1)
                    if isinstance(result.get("exit_code"), int) else 1,
                    message=message,
                )
            return

        # Worker-level failure: timeout, crash/poison, or an exception
        # inside the worker harness.
        kind = outcome.kind if outcome.kind != "result" else \
            "worker-exception"
        job.kinds.append(kind)
        self.breaker.record_failure(key)
        remaining = job.remaining()
        if kind == "timeout" and remaining is not None and remaining <= 0:
            self._settle_deadline(
                job, "worker preempted at the request deadline"
            )
            return
        with self._lock:
            draining = self._draining
        if draining:
            with self._lock:
                self._settle_locked(
                    job, STATUS_INTERRUPTED, exit_code=1,
                    message="worker {} during drain".format(kind),
                )
            return
        if (
            self.retry_policy.is_retryable(kind)
            and handle.attempt <= self.retry_policy.max_retries
        ):
            delay = self.retry_policy.delay(len(job.kinds))
            with self._lock:
                self.stats["retries"] += 1
                self._delayed.append((
                    time.monotonic() + delay,
                    _Attempt(job=job, number=handle.attempt + 1),
                ))
            get_metrics().counter("serve.retries").inc()
            get_tracer().event(
                "serve.retry",
                job_id=job.job_id,
                kind=kind,
                delay_s=round(delay, 6),
            )
            return
        with self._lock:
            self._settle_locked(
                job, "failed", exit_code=1,
                message="failed after {} attempt(s): {}".format(
                    job.attempts, ", ".join(job.kinds)
                ),
            )

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------

    def _settle_locked(
        self,
        job: Job,
        status: str,
        exit_code: Optional[int],
        message: str = "",
    ) -> None:
        """Finalize *job* and fan its outcome out to every follower.
        Caller holds ``self._lock``."""
        if job.done:
            return
        job.state = JOB_DONE
        job.status = status
        job.exit_code = exit_code
        if message:
            job.message = message
        job.wait_s = time.monotonic() - job.submitted
        if self._coalesce.get(job.key) is job:
            del self._coalesce[job.key]
        followers, job.followers = job.followers, []
        settled = [job]
        for follower in followers:
            follower.state = JOB_DONE
            follower.status = status
            follower.exit_code = exit_code
            follower.rung = job.rung
            follower.cached = job.cached
            follower.metrics = job.metrics
            follower.message = message or \
                "coalesced with {}".format(job.job_id)
            follower.notes.append(
                "result shared from coalesced job {}".format(job.job_id)
            )
            follower.wait_s = time.monotonic() - follower.submitted
            settled.append(follower)
        finished_at = self._stamp()
        tracer = get_tracer()
        metrics = get_metrics()
        for settled_job in settled:
            if self._ledger is not None:
                self._ledger.record(settled_job.ledger_entry(finished_at))
                metrics.counter("ledger.writes").inc()
            self.stats["completed"] += 1
            if status == STATUS_INTERRUPTED:
                self.stats["interrupted"] += 1
            tracer.event(
                "task.done",
                task_id=settled_job.job_id,
                rung=settled_job.rung,
                status=status,
                attempts=settled_job.attempts,
                duration_s=round(settled_job.duration_s, 6),
            )
            tracer.span_point(
                "serve.job",
                settled_job.wait_s,
                job_id=settled_job.job_id,
                status=status,
            )
            metrics.counter("serve.jobs.{}".format(status)).inc()
        if self.settle_listener is not None:
            for settled_job in settled:
                try:
                    self.settle_listener(settled_job)
                except Exception:  # noqa: BLE001 - listener is advisory
                    pass
        for settled_job in settled:
            callbacks, settled_job.callbacks = settled_job.callbacks, []
            for callback in callbacks:
                try:
                    callback(settled_job)
                except Exception:  # noqa: BLE001 - waiter is advisory
                    pass
