"""``repro serve`` — a fault-tolerant async compilation service.

Every robustness rung built so far (retry policy, circuit breakers,
fsynced ledger, warm :class:`~repro.service.pool.WorkerPool`,
:class:`~repro.cache.CompileCache`) terminates in a batch CLI that
exits when its manifest runs dry.  This module turns the same
machinery into a **long-running service**: a stdlib-only asyncio
HTTP/JSON front end that owns one warm pool and keeps compiling until
told to drain.

Layering (one thread each, three lock domains):

* **asyncio loop thread** — hand-rolled HTTP/1.1 over
  ``asyncio.start_server`` (``Connection: close`` per request, JSON
  bodies).  Admission (:class:`~repro.service.session.SessionTable`)
  happens here, before anything is queued: refusals are typed
  429/503 bodies, never silent queueing.
* **dispatcher thread** (:class:`~repro.service.jobs.JobDispatcher`)
  — owns the pool; coalescing, cache, breaker routing, deadline
  propagation, retry, and the run-ledger journal.
* **worker processes** — unchanged from the batch service.

Wire schema (all endpoints return JSON)::

    POST /submit   {"name": ..., "text": ..., "is_ir": false,
                    "client": "...", "deadline_s": 5.0,
                    "wait": false, "faults": "spec,spec"}
        -> 202 {"job_id": ..., "state": ..., "coalesced": ...}
        -> 200 job document              (wait=true, settled)
        -> 429/503 typed shed            (see session.py)
        -> 400/403 on bad input / disabled request faults
    GET  /poll?job=ID    -> 200 job document | 404
    GET  /result?job=ID  -> 200 settled document | 202 still running
    GET  /healthz        -> 200 server/session/dispatcher snapshot
    POST /drain          -> 200 {"draining": true} and begins shutdown

**Graceful drain** (SIGTERM, SIGINT, or ``POST /drain``): admission
flips to shed-everything, the listening socket closes, queued jobs are
journaled ``interrupted`` to the ledger (resumable — a non-terminal
status is exactly what ``--resume`` recompiles), in-flight attempts
finish or hit their deadlines, waiting clients get their final
documents, and the pool retires every worker through the usual
SIGTERM→SIGKILL + join path — zero orphans.  A clean drain exits 0.

A ``service.server`` fault point covers the request path (armed via
``--inject-fault`` or per-request with ``--allow-request-faults``):
``raise`` → typed 500, ``stall``/``hang`` → slow or wedged handler
(that request only; the loop stays live), ``crash`` → the process
dies mid-request, ``poison-result`` → a garbage (non-JSON) response
body, exercising client-side validation.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import signal
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs import get_metrics, get_tracer
from repro.pipeline.driver import DriverConfig
from repro.service.jobs import Job, JobDispatcher
from repro.service.manifest import CompileTask
from repro.service.session import SessionTable, ShedDecision
from repro.utils import faults
from repro.utils.errors import InputError, ReproError

#: ``repro serve`` exit codes: a clean drain is a success.
EXIT_SERVE_OK = 0
EXIT_SERVE_INPUT = 2

#: Request-body ceiling (bytes) — a submit larger than this is a 413.
MAX_BODY_BYTES = 1 << 20

#: Settled jobs retained for /poll + /result, oldest evicted first.
DEFAULT_RESULT_RETENTION = 1024

#: Ceiling on one ``wait=true`` submit, seconds (jobs always settle —
#: the pool kills overdue workers — so this only guards pathologies).
DEFAULT_WAIT_TIMEOUT = 600.0

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class CompileServer:
    """The ``repro serve`` front end.

    Construct, then either :meth:`run` (blocking; installs signal
    handlers; returns the exit code) or :meth:`start_in_thread` (tests:
    serve from a daemon thread, drain via :meth:`request_drain`).

    Args:
        host/port: Bind address; port 0 picks a free port, published
            via :attr:`bound_port` and the startup line.
        machine/registers/driver_config: Compile environment, shared by
            every request (per-request deadlines tighten the config's
            time budget per job).
        pool_size: Warm worker count (= max in-flight compiles).
        task_timeout: Hard per-attempt wall-clock cap, seconds.
        max_queue_depth/per_client_depth: Admission-control bounds
            (see :class:`~repro.service.session.SessionTable`).
        retries: Extra attempts for worker-level failures.
        cache: Optional :class:`~repro.cache.CompileCache`.
        ledger_path: JSONL run ledger (every settled job journals).
        durable: Journal accepted/dispatched rows and resume them on
            startup (requires ``ledger_path``) — the supervised-serve
            exactly-once path.
        poison_path: Poison-task list maintained by the supervisor;
            quarantined input digests are refused with HTTP 403.
        max_segment_bytes: Auto-compact the ledger past this size.
        allow_request_faults: Permit per-request ``faults`` specs
            (drill mode; off by default — a client must not be able to
            crash the fleet unless the operator opted in).
        drain_timeout: Ceiling on waiting for the dispatcher to finish
            draining, seconds.
        result_retention: Settled jobs kept queryable before eviction.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        machine: str = "two-unit-superscalar",
        registers: Optional[int] = None,
        driver_config: Optional[DriverConfig] = None,
        pool_size: int = 4,
        task_timeout: float = 30.0,
        max_queue_depth: int = 64,
        per_client_depth: int = 8,
        retries: int = 1,
        backoff: float = 0.05,
        cache=None,
        ledger_path: Optional[str] = None,
        durable: bool = False,
        poison_path: Optional[str] = None,
        max_segment_bytes: Optional[int] = None,
        allow_request_faults: bool = False,
        drain_timeout: float = 60.0,
        result_retention: int = DEFAULT_RESULT_RETENTION,
        wait_timeout: float = DEFAULT_WAIT_TIMEOUT,
        quiet: bool = False,
    ) -> None:
        if drain_timeout <= 0:
            raise InputError(
                "drain_timeout must be positive seconds, got {}".format(
                    drain_timeout
                )
            )
        if result_retention < 1:
            raise InputError(
                "result_retention must be >= 1, got {}".format(
                    result_retention
                )
            )
        from repro.service.batch import RetryPolicy  # late: heavy module

        self.host = host
        self.port = port
        self.machine = machine
        self.registers = registers
        self.config = driver_config or DriverConfig()
        self.pool_size = pool_size
        self.task_timeout = task_timeout
        self.retry_policy = RetryPolicy(
            max_retries=retries, base_delay=backoff
        )
        self.cache = cache
        self.ledger_path = ledger_path
        if durable and not ledger_path:
            raise InputError("--durable requires --ledger")
        self.durable = durable
        self.poison_path = poison_path
        self.max_segment_bytes = max_segment_bytes
        self._poison: set = set()
        if poison_path:
            from repro.service.supervisor import load_poison

            self._poison = set(load_poison(poison_path)["quarantined"])
        self.recovered = 0
        self.allow_request_faults = allow_request_faults
        self.drain_timeout = drain_timeout
        self.result_retention = result_retention
        self.wait_timeout = wait_timeout
        self.quiet = quiet

        self.session = SessionTable(
            max_queue_depth=max_queue_depth,
            per_client_depth=per_client_depth,
        )
        self.dispatcher: Optional[JobDispatcher] = None

        #: Actual bound port, available once :attr:`ready` is set.
        self.bound_port: Optional[int] = None
        #: Set once the listening socket is up (thread-safe; tests).
        self.ready = threading.Event()
        #: The exit code :meth:`run` returned (after the fact; tests).
        self.exit_code: Optional[int] = None

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._drain_reason = ""
        self._draining = False
        self._jobs: Dict[str, Job] = {}
        self._waiters: Dict[str, asyncio.Event] = {}
        self._done_order: Deque[str] = deque()
        self._job_ids = itertools.count(1)
        self._handler_tasks: set = set()
        self._started = time.monotonic()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def run(self, install_signal_handlers: bool = True) -> int:
        """Serve until drained; returns the process exit code."""
        try:
            code = asyncio.run(self._main(install_signal_handlers))
        finally:
            self.ready.set()  # never leave a waiter hanging on a crash
        self.exit_code = code
        return code

    def start_in_thread(self) -> "CompileServer":
        """Serve from a daemon thread (tests/tools).  Blocks until the
        socket is listening; drain with :meth:`request_drain` and wait
        with :meth:`join`."""
        self._thread = threading.Thread(
            target=self.run, kwargs={"install_signal_handlers": False},
            name="repro-serve", daemon=True,
        )
        self._thread.start()
        self.ready.wait(30.0)
        return self

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def request_drain(self, reason: str = "api") -> None:
        """Thread-safe drain trigger (tests, embedding)."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._begin_drain, reason)
        except RuntimeError:  # loop already closed
            pass

    async def _main(self, install_signal_handlers: bool) -> int:
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        self.dispatcher = JobDispatcher(
            machine=self.machine,
            registers=self.registers,
            driver_config=self.config,
            pool_size=self.pool_size,
            task_timeout=self.task_timeout,
            retry_policy=self.retry_policy,
            cache=self.cache,
            ledger_path=self.ledger_path,
            settle_listener=self._on_settled_dispatcher_thread,
            durable=self.durable,
            max_segment_bytes=self.max_segment_bytes,
        )
        if self.ledger_path:
            self._recover_jobs()
        server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            family=socket.AF_INET,
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        # Workers fork with a copy of this listening socket; unless
        # they close it at entry, killing the server (SIGKILL — no
        # cleanup) leaves the port bound by its orphaned workers and
        # a supervised restart dies with EADDRINUSE.
        self.dispatcher.close_in_workers(
            [sock.fileno() for sock in server.sockets]
        )
        installed_signals: List[int] = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(
                        signum, self._begin_drain,
                        signal.Signals(signum).name,
                    )
                    installed_signals.append(signum)
                except (NotImplementedError, RuntimeError):
                    pass
        if not self.quiet:
            print(
                "repro serve: listening on http://{}:{} "
                "(pool={}, queue={}, per-client={})".format(
                    self.host, self.bound_port, self.pool_size,
                    self.session.max_queue_depth,
                    self.session.per_client_depth,
                ),
                flush=True,
            )
        get_tracer().event(
            "serve.start", host=self.host, port=self.bound_port,
            pool=self.pool_size,
        )
        self.ready.set()
        try:
            await self._drain_requested.wait()
            # Stop accepting; connections already accepted keep
            # handling (their responses drain with the dispatcher).
            server.close()
            await server.wait_closed()
            drained = await self._loop.run_in_executor(
                None, self.dispatcher.join, self.drain_timeout
            )
            if not drained and not self.quiet:
                print(
                    "repro serve: drain timed out after {:.1f}s".format(
                        self.drain_timeout
                    ),
                    flush=True,
                )
            # Let in-flight handlers (wait-mode waiters woken by the
            # drain settlements) write their final bodies.
            pending = [t for t in self._handler_tasks if not t.done()]
            if pending:
                await asyncio.wait(pending, timeout=10.0)
        finally:
            for signum in installed_signals:
                self._loop.remove_signal_handler(signum)
            self.dispatcher.begin_drain()
            self.dispatcher.join(self.drain_timeout)
        get_tracer().event(
            "serve.stop", reason=self._drain_reason,
            uptime_s=round(time.monotonic() - self._started, 3),
        )
        if not self.quiet:
            snap = self.dispatcher.snapshot()
            print(
                "repro serve: drained ({}): {} submitted, {} completed, "
                "{} interrupted, 0 orphans".format(
                    self._drain_reason or "drain",
                    snap["stats"]["submitted"],
                    snap["stats"]["completed"],
                    snap["stats"]["interrupted"],
                ),
                flush=True,
            )
        return EXIT_SERVE_OK

    def _recover_jobs(self) -> None:
        """Resume the durable queue from the ledger.

        Always bumps the job-id counter past every journaled id (so a
        restart can never mint a task id the ledger already used); in
        durable mode additionally resubmits every ``accepted``/
        ``dispatched`` row — the jobs a dead server took in but never
        settled — under their original ids, settling quarantined
        poison inputs ``failed`` instead of re-dispatching them.
        """
        from repro.service.checkpoint import RunLedger

        entries = RunLedger.load(self.ledger_path)
        highest = 0
        for task_id in entries:
            match = re.match(r"job-(\d+)$", task_id)
            if match:
                highest = max(highest, int(match.group(1)))
        if highest:
            self._job_ids = itertools.count(highest + 1)
        if not self.durable:
            return
        for task_id in sorted(entries):
            record = entries[task_id]
            if record.get("status") not in ("accepted", "dispatched"):
                continue
            name = record.get("name")
            text = record.get("text")
            if not isinstance(name, str) or not isinstance(text, str):
                continue
            task = CompileTask(
                task_id=task_id, name=name, text=text,
                is_ir=bool(record.get("is_ir", False)),
            )
            client = record.get("client")
            job = Job(
                job_id=task_id,
                client=client if isinstance(client, str) and client
                else "recovered",
                task=task,
                key=self.dispatcher.job_key(task),
            )
            self._jobs[task_id] = job
            self.recovered += 1
            if task.digest() in self._poison:
                job.notes.append(
                    "input digest quarantined by the supervisor"
                )
                self.dispatcher.settle_failed(
                    job,
                    "input quarantined as poison after repeated "
                    "crashes in flight",
                )
            else:
                self.dispatcher.submit(job)
        if self.recovered:
            get_metrics().counter("serve.recovered").inc(self.recovered)
            get_tracer().event("serve.recover", jobs=self.recovered)
            if not self.quiet:
                print(
                    "repro serve: recovered {} unsettled job(s) from "
                    "{}".format(self.recovered, self.ledger_path),
                    flush=True,
                )

    def _begin_drain(self, reason: str = "drain") -> None:
        """Loop-thread drain entry (signal handler / endpoint)."""
        if self._draining:
            return
        self._draining = True
        self._drain_reason = reason
        self.session.begin_drain()
        self.dispatcher.begin_drain()
        get_metrics().counter("serve.drains").inc()
        if self._drain_requested is not None:
            self._drain_requested.set()

    # ------------------------------------------------------------------
    # Dispatcher → loop plumbing
    # ------------------------------------------------------------------

    def _on_settled_dispatcher_thread(self, job: Job) -> None:
        """Runs on the dispatcher thread for every settled job: return
        the client's admission token, then wake any waiter on the loop
        thread."""
        self.session.release(job.client)
        get_metrics().gauge("serve.queue_depth").set(self.session.depth)
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._on_settled, job.job_id)
        except RuntimeError:  # loop closed mid-drain; waiters are gone
            pass

    def _on_settled(self, job_id: str) -> None:
        waiter = self._waiters.pop(job_id, None)
        if waiter is not None:
            waiter.set()
        self._done_order.append(job_id)
        while len(self._done_order) > self.result_retention:
            evicted = self._done_order.popleft()
            job = self._jobs.get(evicted)
            if job is not None and job.done:
                del self._jobs[evicted]

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        started = time.perf_counter()
        method, path, status = "?", "?", 500
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        try:
            method, path, query, body = await self._read_request(reader)
            status, doc, raw = await self._route(method, path, query, body)
            await self._respond(writer, status, doc, raw)
        except _HttpError as exc:
            status = exc.status
            try:
                await self._respond(
                    writer, exc.status,
                    {"error": exc.reason, "message": exc.message},
                )
            except (ConnectionError, OSError):
                pass
        except (
            asyncio.IncompleteReadError, ConnectionError, OSError,
        ):
            status = 0  # client went away; nothing to answer
        except ReproError as exc:
            status = 500
            try:
                await self._respond(
                    writer, 500,
                    {"error": "fault-injected", "message": str(exc)},
                )
            except (ConnectionError, OSError):
                pass
        finally:
            if task is not None:
                self._handler_tasks.discard(task)
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            get_tracer().span_point(
                "serve.request",
                time.perf_counter() - started,
                method=method,
                path=path,
                status=status,
            )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=30.0
        )
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HttpError(400, "bad-request", "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=30.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(
                400, "bad-request", "bad Content-Length header"
            ) from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, "payload-too-large",
                "request body over {} bytes".format(MAX_BODY_BYTES),
            )
        body = await reader.readexactly(length) if length else b""
        path, _, query_text = target.partition("?")
        query: Dict[str, str] = {}
        for pair in query_text.split("&"):
            if pair:
                key, _, value = pair.partition("=")
                query[key] = value
        return method, path, query, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        doc: Optional[Dict[str, object]],
        raw: Optional[bytes] = None,
    ) -> None:
        body = raw if raw is not None else json.dumps(
            doc, sort_keys=True
        ).encode("utf-8")
        writer.write(
            "HTTP/1.1 {} {}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: {}\r\n"
            "Connection: close\r\n"
            "\r\n".format(
                status, _STATUS_TEXT.get(status, "Unknown"), len(body)
            ).encode("latin-1")
        )
        writer.write(body)
        await writer.drain()
        # Send the FIN explicitly: a pool worker forked while this
        # connection was open holds a copy of the socket, so close()
        # alone leaves the stream open until that worker exits.
        if writer.can_write_eof():
            writer.write_eof()

    # ------------------------------------------------------------------
    # Routing / endpoints
    # ------------------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, Optional[Dict[str, object]], Optional[bytes]]:
        spec = faults.spec_at("service.server")
        if spec is not None:
            # Request-path fault drill.  Timed actions sleep on the
            # event loop's clock — only this request slows down, which
            # is what a wedged handler looks like from outside.
            if spec.action in ("stall", "hang"):
                await asyncio.sleep(spec.seconds)
            elif spec.action == "crash":
                os._exit(faults.CRASH_EXIT_CODE)
            elif spec.action == "raise":
                raise spec.error(
                    spec.message
                    or "injected fault at 'service.server'"
                )

        if path == "/submit" and method == "POST":
            status, doc = await self._endpoint_submit(body)
        elif path == "/poll" and method == "GET":
            status, doc = self._endpoint_poll(query)
        elif path == "/result" and method == "GET":
            status, doc = self._endpoint_result(query)
        elif path == "/healthz" and method == "GET":
            status, doc = self._endpoint_healthz()
        elif path == "/drain" and method == "POST":
            status, doc = self._endpoint_drain()
        elif path in ("/submit", "/drain", "/poll", "/result", "/healthz"):
            raise _HttpError(
                405, "method-not-allowed",
                "{} does not accept {}".format(path, method),
            )
        else:
            raise _HttpError(
                404, "not-found", "no endpoint {!r}".format(path)
            )

        if spec is not None and spec.action == "poison-result":
            get_metrics().counter("serve.poisoned_responses").inc()
            return status, None, b"\x00NOT-JSON{{{poisoned-response"
        return status, doc, None

    async def _endpoint_submit(
        self, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        request = self._parse_submit(body)
        client = request["client"]
        decision = self.session.admit(client)
        if decision is not None:
            self._count_shed(decision)
            return decision.http_status, decision.as_dict()

        job_id = "job-{:06d}".format(next(self._job_ids))
        task = CompileTask(
            task_id=job_id,
            name=request["name"],
            text=request["text"],
            is_ir=request["is_ir"],
        )
        if request["faults"]:
            task = task.with_faults(request["faults"])
        if self._poison and task.digest() in self._poison:
            # The supervisor quarantined this input after repeated
            # crashes-in-flight; refuse it instead of wounding the
            # server again.  The admission token goes back: refused
            # work holds no queue slot.
            self.session.release(client)
            get_metrics().counter("serve.shed.poisoned-input").inc()
            get_tracer().event(
                "serve.poison_refused", digest=task.digest()[:12]
            )
            return 403, {
                "error": "poisoned-input",
                "message": "input digest {} is quarantined (it was in "
                "flight across repeated server crashes); fix the input "
                "or clear the poison list".format(task.digest()[:12]),
                "shed": True,
            }
        deadline = None
        if request["deadline_s"] is not None:
            deadline = time.monotonic() + request["deadline_s"]
        job = Job(
            job_id=job_id,
            client=client,
            task=task,
            key=self.dispatcher.job_key(task),
            deadline=deadline,
        )
        self._jobs[job_id] = job
        waiter: Optional[asyncio.Event] = None
        if request["wait"]:
            waiter = asyncio.Event()
            self._waiters[job_id] = waiter
        coalesced = self.dispatcher.submit(job)
        get_metrics().gauge("serve.queue_depth").set(self.session.depth)

        if waiter is None:
            return 202, {
                "job_id": job_id,
                "state": job.state,
                "coalesced": coalesced,
                "coalesced_into": job.coalesced_into,
            }
        timeout = self.wait_timeout
        if request["deadline_s"] is not None:
            timeout = min(timeout, request["deadline_s"] + 30.0)
        try:
            await asyncio.wait_for(waiter.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            self._waiters.pop(job_id, None)
            return 202, job.as_dict()
        return 200, job.as_dict()

    def _parse_submit(self, body: bytes) -> Dict[str, object]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(
                400, "bad-request", "submit body must be a JSON object"
            ) from None
        if not isinstance(payload, dict):
            raise _HttpError(
                400, "bad-request", "submit body must be a JSON object"
            )
        name = payload.get("name")
        text = payload.get("text")
        if not isinstance(name, str) or not name:
            raise _HttpError(
                400, "bad-request", "'name' must be a non-empty string"
            )
        if not isinstance(text, str) or not text:
            raise _HttpError(
                400, "bad-request", "'text' must be a non-empty string"
            )
        client = payload.get("client", "anonymous")
        if not isinstance(client, str) or not client:
            raise _HttpError(
                400, "bad-request", "'client' must be a non-empty string"
            )
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            if not isinstance(deadline_s, (int, float)) or deadline_s <= 0:
                raise _HttpError(
                    400, "bad-request",
                    "'deadline_s' must be positive seconds",
                )
            deadline_s = float(deadline_s)
        fault_dicts: List[Dict[str, object]] = []
        fault_text = payload.get("faults")
        if fault_text:
            if not self.allow_request_faults:
                raise _HttpError(
                    403, "faults-disabled",
                    "per-request faults need --allow-request-faults",
                )
            if not isinstance(fault_text, str):
                raise _HttpError(
                    400, "bad-request",
                    "'faults' must be a spec string, e.g. "
                    "'service.worker:crash'",
                )
            try:
                fault_dicts = [
                    spec.as_dict()
                    for spec in faults.parse_fault_specs(fault_text)
                ]
            except InputError as exc:
                raise _HttpError(
                    400, "bad-request", str(exc)
                ) from None
        return {
            "name": name,
            "text": text,
            "is_ir": bool(payload.get("is_ir", False)),
            "client": client,
            "deadline_s": deadline_s,
            "wait": bool(payload.get("wait", False)),
            "faults": fault_dicts,
        }

    def _count_shed(self, decision: ShedDecision) -> None:
        get_metrics().counter(
            "serve.shed.{}".format(decision.reason)
        ).inc()
        get_tracer().event("serve.shed", reason=decision.reason)

    def _lookup_job(self, query: Dict[str, str]) -> Job:
        job_id = query.get("job", "")
        job = self._jobs.get(job_id)
        if job is None:
            raise _HttpError(
                404, "unknown-job",
                "no job {!r} (settled jobs are retained for the last "
                "{} results)".format(job_id, self.result_retention),
            )
        return job

    def _endpoint_poll(
        self, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, object]]:
        return 200, self._lookup_job(query).as_dict()

    def _endpoint_result(
        self, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, object]]:
        job = self._lookup_job(query)
        return (200 if job.done else 202), job.as_dict()

    def _endpoint_healthz(self) -> Tuple[int, Dict[str, object]]:
        return 200, {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "session": self.session.snapshot(),
            "dispatcher": self.dispatcher.snapshot(),
            "jobs_held": len(self._jobs),
            "machine": self.machine,
            "engine": self.config.engine,
            "durable": self.durable,
            "recovered": self.recovered,
            "poisoned_inputs": len(self._poison),
        }

    def _endpoint_drain(self) -> Tuple[int, Dict[str, object]]:
        self._begin_drain("endpoint")
        return 200, {"draining": True}


class _HttpError(Exception):
    """A typed HTTP error response (status + machine-readable reason)."""

    def __init__(self, status: int, reason: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.message = message
