"""Subprocess-isolated compile worker.

One worker process runs exactly one compile attempt and streams one
structured result object back over a pipe.  The isolation is the whole
point: a crash (``os._exit``, a segfault stand-in), an OOM kill, an
infinite loop, or an armed fault inside the compile can take down only
its own process — the parent observes a dead or overdue child and
applies retry/circuit/ledger policy, never a traceback.

Parent-side protocol per attempt:

1. :func:`build_payload` — reduce the task + driver config to a dict of
   primitives (safe under both ``fork`` and ``spawn`` start methods;
   armed fault specs ship inside it so injection is start-method
   agnostic).
2. :func:`start_worker` — fork/spawn the child with the write end of a
   pipe.
3. Wait on ``process.sentinel`` up to the task deadline.
4. :func:`reap_worker` — on exit: read and *validate* the result (a
   poisoned or missing result is classified as a crash); past the
   deadline: escalate SIGTERM → SIGKILL, then classify as a timeout.
   Either way the child is fully joined — no zombies, no orphans.

Worker-level fault actions at the ``service.worker`` trip point
(:mod:`repro.utils.faults`): ``crash`` exits with
:data:`~repro.utils.faults.CRASH_EXIT_CODE` before compiling, ``hang``
sleeps past any reasonable deadline, ``raise`` surfaces as a
``worker-exception`` result, and ``poison-result`` ships a malformed
object in place of the result dict.  Every containment path is
therefore deterministically testable.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.service.manifest import CompileTask
from repro.utils import faults

#: Result schema version (bumped on shape changes; a mismatch is
#: treated as a malformed result, i.e. a crash).
RESULT_VERSION = 1

#: Statuses a well-formed worker result may carry.  The first three
#: mirror :attr:`repro.pipeline.driver.CompileReport.status`;
#: ``worker-exception`` means the compile infrastructure itself blew
#: up (retryable, like a crash, but with a message attached).
RESULT_STATUSES = ("ok", "degraded", "failed", "worker-exception")

#: The malformed object a ``poison-result`` fault ships instead of a
#: result dict.
POISON_PAYLOAD = "<<poisoned-result>>"

#: Grace between SIGTERM and SIGKILL when collecting an overdue worker.
DEFAULT_KILL_GRACE = 0.5


#: Environment variable forcing a multiprocessing start method
#: (``fork``, ``spawn``, or ``forkserver``) for every worker the
#: service starts — both fork-per-task and pool workers.  The payload
#: protocol is primitive-only precisely so that all of them behave
#: identically; the forced-``spawn`` regression test pins that down.
START_METHOD_ENV = "REPRO_START_METHOD"


def _mp_context():
    """``fork`` where available (fast, shares the warm interpreter),
    the platform default elsewhere; ``$REPRO_START_METHOD`` overrides
    both.  The payload protocol keeps every method correct."""
    override = os.environ.get(START_METHOD_ENV)
    if override:
        try:
            return multiprocessing.get_context(override)
        except ValueError:
            from repro.utils.errors import InputError

            raise InputError(
                "unknown start method {!r} in ${} (choose from: {})".format(
                    override, START_METHOD_ENV,
                    ", ".join(multiprocessing.get_all_start_methods()),
                )
            ) from None
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def build_payload(
    task: CompileTask,
    machine: str,
    registers: Optional[int],
    config,
) -> Dict[str, object]:
    """Primitive-only attempt description.

    *config* is a :class:`~repro.pipeline.driver.DriverConfig`; armed
    parent-process faults plus the task's own fault specs are folded
    in (task specs win on point collisions, letting a test target one
    task of a batch)."""
    spec_dicts = [spec.as_dict() for spec in faults.active_specs()]
    spec_dicts.extend(dict(d) for d in task.faults)
    return {
        "v": RESULT_VERSION,
        "task_id": task.task_id,
        "name": task.name,
        "text": task.text,
        "is_ir": task.is_ir,
        "machine": machine,
        "registers": registers,
        "config": dataclasses.asdict(config),
        "faults": spec_dicts,
    }


def detach_worker_process() -> None:
    """One-time child-process setup shared by fork-per-task workers
    and pool workers.

    Installs the worker's own signal dispositions (the parent's drain
    handler must not leak in under ``fork``): SIGTERM kills (the
    parent's timeout escalation relies on it), SIGINT is ignored so an
    interactive Ctrl-C drains the batch gracefully — in-flight
    compiles finish and reach the ledger.

    Also detaches the inherited observability globals: under ``fork``
    the child holds the parent's installed tracer (and its open
    descriptor) and metrics registry.  The trace is the *parent's*
    journal — a worker writing to it would interleave colliding span
    ids from every child — so both are reset; worker phase timings
    travel home inside the result's ``report.phase_seconds`` and the
    parent folds them into the trace as complete spans.
    """
    try:  # pragma: no cover - exercised in subprocesses
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass

    from repro import obs

    obs.set_tracer(None)
    obs.set_metrics(None)


def execute_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one compile attempt described by *payload* and return the
    result dict (primitive-only, schema-checked by the parent via
    :func:`validate_result`).

    Arms exactly the fault specs the payload carries — previously
    armed points are cleared first, so a pool worker running many
    tasks can never leak one task's faults into the next.  Worker-
    level fault actions fire here: ``crash`` exits the process,
    ``hang`` sleeps until the parent kills it, ``raise`` becomes a
    ``worker-exception`` result.
    """
    faults.clear()
    for spec_dict in payload.get("faults", ()):
        faults.install(faults.FaultSpec.from_dict(spec_dict))

    result: Dict[str, object] = {
        "v": RESULT_VERSION,
        "task_id": payload["task_id"],
        "pid": os.getpid(),
    }
    try:
        # Worker-level fault simulations fire before any compile work:
        # crash exits the process here, hang sleeps until killed.
        faults.trip("service.worker")

        from repro.machine.presets import ALL_PRESETS
        from repro.pipeline.driver import CompilationDriver, DriverConfig
        from repro.utils.errors import InputError

        machine_name = payload["machine"]
        if machine_name not in ALL_PRESETS:
            raise InputError("unknown machine {!r}".format(machine_name))
        driver = CompilationDriver(
            ALL_PRESETS[machine_name](),
            num_registers=payload["registers"],
            config=DriverConfig(**payload["config"]),
        )
        outcome = driver.compile_text(
            payload["text"],
            is_ir=payload["is_ir"],
            name=payload["name"],
        )
        report = outcome.report
        result.update(
            status=report.status,
            exit_code=report.exit_code,
            failure_kind=report.failure_kind,
            report=report.as_dict(),
            metrics=outcome.result.as_row() if outcome.ok else None,
        )
    except BaseException as exc:  # noqa: BLE001 - the pipe IS the report
        result.update(
            status="worker-exception",
            exit_code=1,
            failure_kind="internal",
            report={"error": "{}: {}".format(type(exc).__name__, exc)},
            metrics=None,
        )
    return result


def wire_result(result: Dict[str, object]) -> object:
    """What actually goes on the pipe for *result*: the result itself,
    or the poison object when a ``poison-result`` fault is armed."""
    poison = faults.spec_at("service.worker")
    if poison is not None and poison.action == "poison-result":
        return POISON_PAYLOAD
    return result


def worker_main(payload: Dict[str, object], conn) -> None:
    """Child-process entry: compile one task, send one result, exit."""
    detach_worker_process()
    result = execute_payload(payload)
    try:
        conn.send(wire_result(result))
    except (BrokenPipeError, OSError):  # parent already gone
        pass
    finally:
        conn.close()


@dataclass
class WorkerOutcome:
    """What the parent learned from one worker attempt.

    Attributes:
        kind: ``"result"`` (validated result in :attr:`result`),
            ``"timeout"`` (killed at the deadline), or ``"crash"``
            (died, or returned nothing/garbage).
        result: The validated result dict for ``"result"``, else None.
        pid: Worker process id (always known — ledgered so tests can
            assert no orphans).
        exitcode: Child exit code as observed by ``multiprocessing``
            (negative = killed by that signal), None if unknowable.
        duration_s: Wall time of the attempt as seen by the parent.
    """

    kind: str
    result: Optional[Dict[str, object]]
    pid: Optional[int]
    exitcode: Optional[int]
    duration_s: float

    @property
    def message(self) -> str:
        if self.kind == "timeout":
            return "worker killed at task timeout (pid {})".format(self.pid)
        if self.kind == "crash":
            return "worker crashed or returned a malformed result " \
                "(pid {}, exitcode {})".format(self.pid, self.exitcode)
        if self.result is not None and self.result.get("status") == \
                "worker-exception":
            report = self.result.get("report") or {}
            return str(report.get("error", "worker exception"))
        return ""


@dataclass
class WorkerHandle:
    """One in-flight attempt (parent side)."""

    process: object
    conn: object
    task: CompileTask
    attempt: int
    rung: str
    payload: Dict[str, object]
    started: float = field(default_factory=time.monotonic)
    deadline: float = 0.0

    @property
    def sentinel(self) -> int:
        return self.process.sentinel

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid


def start_worker(
    task: CompileTask,
    payload: Dict[str, object],
    timeout: float,
    attempt: int = 1,
    rung: str = "primary",
) -> WorkerHandle:
    """Fork/spawn one worker for *task* and return its handle.  The
    deadline is ``now + timeout``; the caller owns waiting and
    reaping."""
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=worker_main,
        args=(payload, child_conn),
        daemon=True,
        name="repro-worker-{}".format(task.task_id),
    )
    process.start()
    child_conn.close()
    handle = WorkerHandle(
        process=process,
        conn=parent_conn,
        task=task,
        attempt=attempt,
        rung=rung,
        payload=payload,
    )
    handle.deadline = handle.started + timeout
    return handle


def validate_result(obj, task_id: str) -> Optional[Dict[str, object]]:
    """Schema-check a worker result; None means "treat as a crash".

    A compromised or fault-poisoned worker may send anything — the
    parent trusts nothing it cannot type-check."""
    if not isinstance(obj, dict):
        return None
    if obj.get("v") != RESULT_VERSION:
        return None
    if obj.get("task_id") != task_id:
        return None
    if obj.get("status") not in RESULT_STATUSES:
        return None
    if not isinstance(obj.get("pid"), int):
        return None
    if not isinstance(obj.get("exit_code"), int):
        return None
    if not isinstance(obj.get("report"), dict):
        return None
    return obj


def _kill(process, grace: float) -> None:
    """SIGTERM, wait *grace*, SIGKILL, join — never leaves a zombie."""
    process.terminate()
    process.join(grace)
    if process.is_alive():
        process.kill()
        process.join()


def reap_worker(
    handle: WorkerHandle,
    timed_out: bool,
    kill_grace: float = DEFAULT_KILL_GRACE,
) -> WorkerOutcome:
    """Collect a finished or overdue worker into a :class:`WorkerOutcome`.

    Always fully joins the child and closes the pipe, so every path —
    clean exit, crash, poison, kill-on-timeout — leaves zero orphan
    processes and zero open descriptors behind.
    """
    process, conn = handle.process, handle.conn
    pid = process.pid
    try:
        if timed_out:
            _kill(process, kill_grace)
            return WorkerOutcome(
                kind="timeout",
                result=None,
                pid=pid,
                exitcode=process.exitcode,
                duration_s=time.monotonic() - handle.started,
            )
        process.join()
        received = None
        if conn.poll():
            try:
                received = conn.recv()
            except (EOFError, OSError, ValueError):
                received = None
        result = validate_result(received, handle.task.task_id)
        if result is None:
            return WorkerOutcome(
                kind="crash",
                result=None,
                pid=pid,
                exitcode=process.exitcode,
                duration_s=time.monotonic() - handle.started,
            )
        return WorkerOutcome(
            kind="result",
            result=result,
            pid=pid,
            exitcode=process.exitcode,
            duration_s=time.monotonic() - handle.started,
        )
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


def run_one(
    task: CompileTask,
    machine: str = "two-unit-superscalar",
    registers: Optional[int] = None,
    config=None,
    timeout: float = 30.0,
    kill_grace: float = DEFAULT_KILL_GRACE,
) -> WorkerOutcome:
    """Convenience: one isolated attempt, start to reap.  The batch
    runner inlines this sequence to multiplex many workers; tests and
    embedders get the one-shot form."""
    from repro.pipeline.driver import DriverConfig

    payload = build_payload(
        task, machine, registers, config or DriverConfig()
    )
    handle = start_worker(task, payload, timeout)
    handle.process.join(timeout)
    return reap_worker(
        handle, timed_out=handle.process.is_alive(), kill_grace=kill_grace
    )
