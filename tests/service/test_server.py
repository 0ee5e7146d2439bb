"""Tests for the async compilation service (repro.service.server).

The server stacks three layers — SessionTable admission, the
JobDispatcher thread, and the asyncio HTTP front end — and these
tests attack each seam: typed sheds at the admission boundary,
coalescing and deadline policy in the dispatcher, and the two
headline robustness promises end to end: N identical concurrent
submissions compile exactly once, and a SIGTERM drain loses zero
accepted tasks (everything settles or lands resumable in the
ledger) while reaping every worker.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.cache import CompileCache
from repro.service.checkpoint import RunLedger
from repro.service.server import CompileServer, EXIT_SERVE_OK
from repro.service.session import (
    SHED_CLIENT_QUEUE,
    SHED_DRAINING,
    SHED_QUEUE_FULL,
    SessionTable,
)
from repro.utils import faults
from repro.utils.errors import InputError

SOURCE = "input a, b;\nx = a * b + 3;\noutput x;\n"


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------

def post(base, path, doc, timeout=60.0):
    req = urllib.request.Request(
        base + path, data=json.dumps(doc).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(base, path, timeout=30.0):
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture
def server():
    """An in-thread server on a free port; drained at teardown."""
    servers = []

    def start(**kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("pool_size", 2)
        kwargs.setdefault("quiet", True)
        srv = CompileServer(**kwargs).start_in_thread()
        assert srv.bound_port, "server failed to bind"
        servers.append(srv)
        return srv, "http://127.0.0.1:{}".format(srv.bound_port)

    yield start
    for srv in servers:
        srv.request_drain("teardown")
        srv.join(30.0)


# ----------------------------------------------------------------------
# SessionTable admission
# ----------------------------------------------------------------------

class TestSessionTable:
    def test_admit_and_release_roundtrip(self):
        table = SessionTable(max_queue_depth=4, per_client_depth=2)
        assert table.admit("a") is None
        assert table.admit("a") is None
        assert table.depth == 2
        table.release("a")
        table.release("a")
        assert table.depth == 0

    def test_per_client_shed_is_429(self):
        table = SessionTable(max_queue_depth=10, per_client_depth=1)
        assert table.admit("a") is None
        decision = table.admit("a")
        assert decision.reason == SHED_CLIENT_QUEUE
        assert decision.http_status == 429
        assert decision.as_dict()["shed"] is True
        # other clients unaffected
        assert table.admit("b") is None

    def test_global_shed_is_503(self):
        table = SessionTable(max_queue_depth=2, per_client_depth=8)
        assert table.admit("a") is None
        assert table.admit("b") is None
        decision = table.admit("c")
        assert decision.reason == SHED_QUEUE_FULL
        assert decision.http_status == 503

    def test_refusal_consumes_no_token(self):
        table = SessionTable(max_queue_depth=1, per_client_depth=1)
        assert table.admit("a") is None
        assert table.admit("b") is not None
        table.release("a")
        assert table.admit("b") is None

    def test_drain_sheds_everything(self):
        table = SessionTable()
        table.begin_drain()
        decision = table.admit("a")
        assert decision.reason == SHED_DRAINING
        assert decision.http_status == 503

    def test_release_unknown_client_is_noop(self):
        table = SessionTable()
        table.release("ghost")
        assert table.depth == 0

    def test_rejects_bad_bounds(self):
        with pytest.raises(InputError):
            SessionTable(max_queue_depth=0)
        with pytest.raises(InputError):
            SessionTable(per_client_depth=0)


# ----------------------------------------------------------------------
# Endpoints and wire behavior
# ----------------------------------------------------------------------

class TestEndpoints:
    def test_submit_wait_compiles_ok(self, server):
        _, base = server()
        status, doc = post(base, "/submit", {
            "name": "t", "text": SOURCE, "wait": True,
        })
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["attempts"] == 1
        assert doc["metrics"] is not None
        assert doc["exit_code"] == 0

    def test_submit_async_then_poll_and_result(self, server):
        _, base = server()
        status, doc = post(base, "/submit", {"name": "t", "text": SOURCE})
        assert status == 202
        job_id = doc["job_id"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, doc = get(base, "/result?job=" + job_id)
            if status == 200:
                break
            time.sleep(0.05)
        assert status == 200
        assert doc["status"] == "ok"
        status, doc = get(base, "/poll?job=" + job_id)
        assert status == 200 and doc["state"] == "done"

    def test_unknown_job_is_404(self, server):
        _, base = server()
        status, doc = get(base, "/poll?job=nope")
        assert status == 404
        assert doc["error"] == "unknown-job"

    def test_bad_submit_body_is_400(self, server):
        _, base = server()
        status, doc = post(base, "/submit", {"name": "t"})
        assert status == 400
        assert doc["error"] == "bad-request"

    def test_unknown_path_is_404_and_bad_method_405(self, server):
        _, base = server()
        status, _ = get(base, "/nope")
        assert status == 404
        status, _ = get(base, "/drain")
        assert status == 405

    def test_healthz_reports_state(self, server):
        srv, base = server()
        status, doc = get(base, "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["session"]["depth"] == 0
        assert doc["dispatcher"]["stats"]["submitted"] == 0

    def test_compile_failure_is_job_status_not_http_error(self, server):
        _, base = server()
        status, doc = post(base, "/submit", {
            "name": "bad", "text": "this is not a program", "wait": True,
        })
        assert status == 200
        assert doc["status"] == "failed"
        assert doc["exit_code"] != 0

    def test_request_faults_rejected_unless_enabled(self, server):
        _, base = server()
        status, doc = post(base, "/submit", {
            "name": "t", "text": SOURCE,
            "faults": "service.worker:crash",
        })
        assert status == 403
        assert doc["error"] == "faults-disabled"

    def test_cache_hit_settles_with_zero_attempts(self, server):
        _, base = server(cache=CompileCache())
        status, first = post(base, "/submit", {
            "name": "t", "text": SOURCE, "wait": True,
        })
        assert status == 200 and first["status"] == "ok"
        status, second = post(base, "/submit", {
            "name": "t", "text": SOURCE, "wait": True,
        })
        assert status == 200
        assert second["cached"] is True
        assert second["rung"] == "cache"
        assert second["attempts"] == 0

    def test_deadline_exceeded_before_dispatch(self, server):
        _, base = server()
        status, doc = post(base, "/submit", {
            "name": "t", "text": SOURCE,
            "deadline_s": 0.0001, "wait": True,
        })
        assert status == 200
        assert doc["status"] == "deadline-exceeded"

    def test_deadline_spent_inside_the_worker(self, server):
        # The stall outlasts the deadline after dispatch, so the
        # driver aborts on the time_budget the deadline became.
        srv, base = server(allow_request_faults=True)
        status, doc = post(base, "/submit", {
            "name": "t", "text": SOURCE, "deadline_s": 0.08,
            "faults": "phase.color:stall=0.15", "wait": True,
        })
        assert status == 200
        assert doc["status"] == "deadline-exceeded"
        breaker = srv.dispatcher.breaker.snapshot()
        assert all(st["total_failures"] == 0 for st in breaker.values())

    def test_response_ends_with_fin(self, server):
        # The first request of a fresh server forks its pool worker
        # while the connection is open, so the worker inherits the
        # socket: only an explicit FIN lets a client read to EOF.
        srv, _ = server(pool_size=1)
        body = json.dumps(
            {"name": "t", "text": SOURCE, "wait": True}
        ).encode("utf-8")
        request = (
            "POST /submit HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Length: {}\r\n\r\n".format(len(body))
        ).encode("latin-1") + body
        chunks = []
        with socket.create_connection(
            ("127.0.0.1", srv.bound_port), timeout=5.0
        ) as sock:
            sock.sendall(request)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(payload)["status"] == "ok"


# ----------------------------------------------------------------------
# Admission over the wire
# ----------------------------------------------------------------------

class TestAdmission:
    def test_per_client_shed_over_http(self, server):
        srv, base = server(
            pool_size=1, per_client_depth=1, max_queue_depth=8,
            allow_request_faults=True,
        )
        # occupy the client's single token with a slow job
        status, _ = post(base, "/submit", {
            "name": "slow", "text": SOURCE, "client": "greedy",
            "faults": "service.worker:stall=2.0",
        })
        assert status == 202
        status, doc = post(base, "/submit", {
            "name": "next", "text": SOURCE, "client": "greedy",
        })
        assert status == 429
        assert doc["error"] == SHED_CLIENT_QUEUE
        # a different client is still admitted
        status, _ = post(base, "/submit", {
            "name": "other", "text": SOURCE, "client": "patient",
        })
        assert status == 202

    def test_global_shed_over_http(self, server):
        srv, base = server(
            pool_size=1, per_client_depth=8, max_queue_depth=2,
            allow_request_faults=True,
        )
        for i in range(2):
            status, _ = post(base, "/submit", {
                "name": "slow{}".format(i), "text": SOURCE,
                "client": "c{}".format(i),
                "faults": "service.worker:stall=2.0",
            })
            assert status == 202
        status, doc = post(base, "/submit", {
            "name": "extra", "text": SOURCE, "client": "c9",
        })
        assert status == 503
        assert doc["error"] == SHED_QUEUE_FULL

    def test_draining_sheds_with_503(self, server):
        srv, base = server()
        srv.session.begin_drain()
        status, doc = post(base, "/submit", {"name": "t", "text": SOURCE})
        assert status == 503
        assert doc["error"] == SHED_DRAINING


# ----------------------------------------------------------------------
# Coalescing: N identical concurrent submissions, exactly 1 compile
# ----------------------------------------------------------------------

class TestCoalescing:
    def test_identical_digests_compile_exactly_once(self, server):
        srv, base = server(pool_size=1, allow_request_faults=True)
        # Pin the single worker on an unrelated slow job so the
        # identical submissions overlap while queued.
        status, _ = post(base, "/submit", {
            "name": "slow", "text": SOURCE,
            "faults": "service.worker:stall=2.0",
        })
        assert status == 202
        time.sleep(0.2)
        dup = "input a;\ny = a + 7;\noutput y;\n"
        docs = []
        for _ in range(5):
            status, doc = post(base, "/submit", {"name": "dup", "text": dup})
            assert status == 202
            docs.append(doc)
        assert [d["coalesced"] for d in docs] == [
            False, True, True, True, True,
        ]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            snap = srv.dispatcher.snapshot()
            if snap["stats"]["completed"] >= 6:
                break
            time.sleep(0.05)
        snap = srv.dispatcher.snapshot()
        # exactly one compile for the five identical submissions:
        # slow job + dup leader = 2 total dispatches
        assert snap["stats"]["coalesced"] == 4
        assert snap["stats"]["dispatched"] == 2
        assert snap["pool"]["dispatched"] == 2
        for doc in docs:
            status, final = get(base, "/poll?job=" + doc["job_id"])
            assert final["status"] == "ok"
        followers = [d for d in docs if d["coalesced"]]
        assert all(
            d["coalesced_into"] == docs[0]["job_id"] for d in followers
        )

    def test_fault_carrying_jobs_never_coalesce(self, server):
        srv, base = server(pool_size=1, allow_request_faults=True)
        status, _ = post(base, "/submit", {
            "name": "slow", "text": SOURCE,
            "faults": "service.worker:stall=1.0",
        })
        time.sleep(0.1)
        # identical text, both with fault specs: must not coalesce
        for _ in range(2):
            status, doc = post(base, "/submit", {
                "name": "drill", "text": SOURCE,
                "faults": "service.worker:stall=0.01",
            })
            assert status == 202
            assert doc["coalesced"] is False


# ----------------------------------------------------------------------
# Drain: zero lost accepted tasks, zero orphans
# ----------------------------------------------------------------------

class TestDrain:
    def test_programmatic_drain_settles_backlog_as_interrupted(
        self, server, tmp_path
    ):
        ledger = str(tmp_path / "serve.jsonl")
        srv, base = server(
            pool_size=1, ledger_path=ledger, allow_request_faults=True,
        )
        status, _ = post(base, "/submit", {
            "name": "slow", "text": SOURCE,
            "faults": "service.worker:stall=2.0",
        })
        assert status == 202
        queued = []
        for i in range(3):
            status, doc = post(base, "/submit", {
                "name": "q{}".format(i),
                "text": "input a;\ny = a + {};\noutput y;\n".format(i),
            })
            assert status == 202
            queued.append(doc["job_id"])
        srv.request_drain("test")
        srv.join(30.0)
        assert srv.exit_code == EXIT_SERVE_OK
        records = RunLedger.load(ledger)
        for job_id in queued:
            assert job_id in records
            assert records[job_id]["status"] == "interrupted"
            # non-terminal: a resume would recompile it
            assert not RunLedger.is_reusable(
                records[job_id], records[job_id]["digest"]
            )

    def test_sigterm_loses_zero_accepted_tasks(self, tmp_path):
        """End to end through the real CLI: SIGTERM mid-burst, every
        accepted job either settles or lands resumable in the ledger,
        and no worker process survives."""
        ledger = str(tmp_path / "drain.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"), "src") if p]
        )
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--pool-size", "2", "--ledger", ledger,
             "--allow-request-faults"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            assert match, "no listening banner in {!r}".format(banner)
            port = int(match.group(1))
            base = "http://127.0.0.1:{}".format(port)
            accepted = []
            for i in range(2):
                status, doc = post(base, "/submit", {
                    "name": "slow{}".format(i), "text": SOURCE,
                    "faults": "service.worker:stall=3.0",
                })
                assert status == 202
                accepted.append(doc["job_id"])
            for i in range(4):
                status, doc = post(base, "/submit", {
                    "name": "q{}".format(i),
                    "text": "input a;\ny = a + {};\noutput y;\n".format(i),
                })
                assert status == 202
                accepted.append(doc["job_id"])
            status, health = get(base, "/healthz")
            worker_pids = health["dispatcher"]["worker_pids"]
            assert worker_pids, "pool should have live workers"

            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30.0)
            assert proc.returncode == 0

            def pid_is_live(pid):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    return False
                except PermissionError:  # pragma: no cover
                    return True
                return True

            assert [p for p in worker_pids if pid_is_live(p)] == []

            records = RunLedger.load(ledger)
            missing = [j for j in accepted if j not in records]
            assert missing == [], "accepted tasks lost: {}".format(missing)
            for job_id in accepted:
                assert records[job_id]["status"] in (
                    "ok", "degraded", "failed", "interrupted",
                )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# ----------------------------------------------------------------------
# service.server fault point
# ----------------------------------------------------------------------

class TestServerFaults:
    def test_fault_point_is_registered(self):
        assert faults.is_known_point("service.server")
        specs = faults.parse_fault_specs("service.server:crash")
        assert specs[0].action == "crash"

    def test_raise_fault_becomes_typed_500(self, server):
        _, base = server()
        with faults.inject("service.server"):
            status, doc = get(base, "/healthz")
        assert status == 500
        assert doc["error"] == "fault-injected"

    def test_poison_response_ships_garbage_body(self, server):
        _, base = server()
        with faults.inject("service.server", action="poison-result"):
            req = urllib.request.Request(
                base + "/healthz", method="GET"
            )
            with urllib.request.urlopen(req, timeout=10) as resp:
                body = resp.read()
        with pytest.raises(ValueError):
            json.loads(body)

    def test_stall_fault_slows_only_that_request(self, server):
        _, base = server()
        with faults.inject("service.server", action="stall", seconds=0.3):
            started = time.perf_counter()
            status, _ = get(base, "/healthz")
            elapsed = time.perf_counter() - started
        assert status == 200
        assert elapsed >= 0.3
        # handler healthy again once disarmed
        status, _ = get(base, "/healthz")
        assert status == 200


# ----------------------------------------------------------------------
# Durable serve: recovery, poison refusal, supervised SIGKILL (PR 8)
# ----------------------------------------------------------------------

import threading

from repro.service.checkpoint import LEDGER_VERSION
from repro.service.manifest import CompileTask
from repro.service.supervisor import (
    Supervisor,
    audit_exactly_once,
    save_poison,
)


def queue_row(task_id, status, name, text, client="c0"):
    task = CompileTask(task_id=task_id, name=name, text=text)
    return {
        "v": LEDGER_VERSION, "task_id": task_id, "digest": task.digest(),
        "status": status, "client": client, "name": name, "text": text,
        "is_ir": False, "attempts": 0, "recorded_at": 0.0,
    }


class TestDurableServe:
    def test_recovery_resubmits_unsettled_queue_rows(
        self, server, tmp_path
    ):
        """A durable server attached to a ledger holding accepted/
        dispatched rows (a dead predecessor's queue) resubmits them
        under their original ids and settles each exactly once."""
        ledger = str(tmp_path / "serve.jsonl")
        with RunLedger(ledger) as handle:
            handle.record(queue_row(
                "job-000001", "accepted", "r1", SOURCE,
            ))
            handle.record(queue_row(
                "job-000002", "dispatched",
                "r2", "input a;\ny = a + 7;\noutput y;\n",
            ))
            handle.record({
                "task_id": "job-000003", "status": "ok", "digest": "d",
            })
        srv, base = server(ledger_path=ledger, durable=True)
        assert srv.recovered == 2
        deadline = time.monotonic() + 30.0
        unsettled = {"job-000001", "job-000002"}
        while unsettled and time.monotonic() < deadline:
            for job_id in sorted(unsettled):
                status, doc = get(base, "/result?job=" + job_id)
                if status == 200:
                    assert doc["status"] == "ok"
                    unsettled.discard(job_id)
            time.sleep(0.05)
        assert unsettled == set()
        srv.request_drain("test")
        srv.join(30.0)
        report = audit_exactly_once(ledger)
        assert report["ok"], report
        # New job ids never collide with journaled ones.
        records = RunLedger.load(ledger)
        assert all(
            not job_id.startswith("job-00000")
            or job_id in ("job-000001", "job-000002", "job-000003")
            for job_id in records
        )

    def test_recovered_poisoned_input_settles_failed(
        self, server, tmp_path
    ):
        ledger = str(tmp_path / "serve.jsonl")
        poison = str(tmp_path / "poison.json")
        task = CompileTask(task_id="job-000001", name="bad", text=SOURCE)
        with RunLedger(ledger) as handle:
            handle.record(queue_row("job-000001", "dispatched", "bad", SOURCE))
        save_poison(poison, {
            "suspects": {task.digest(): 2},
            "quarantined": [task.digest()],
        })
        srv, base = server(
            ledger_path=ledger, durable=True, poison_path=poison,
        )
        deadline = time.monotonic() + 15.0
        status, doc = 0, {}
        while time.monotonic() < deadline:
            status, doc = get(base, "/result?job=job-000001")
            if status == 200:
                break
            time.sleep(0.05)
        assert status == 200
        assert doc["status"] == "failed"
        assert "quarantined" in doc.get("message", "")

    def test_poisoned_submit_is_refused_403(self, server, tmp_path):
        poison = str(tmp_path / "poison.json")
        digest = CompileTask(task_id="x", name="bad", text=SOURCE).digest()
        save_poison(poison, {
            "suspects": {digest: 2}, "quarantined": [digest],
        })
        srv, base = server(poison_path=poison)
        status, doc = post(base, "/submit", {"name": "bad", "text": SOURCE})
        assert status == 403
        assert doc["error"] == "poisoned-input"
        assert doc["shed"] is True
        # The refusal released the admission slot: a clean input from
        # the same client still compiles.
        status, doc = post(base, "/submit", {
            "name": "fine", "text": "input a;\ny = a + 1;\noutput y;\n",
            "wait": True,
        })
        assert status == 200 and doc["status"] == "ok"

    def test_durable_requires_ledger(self):
        with pytest.raises(InputError, match="durable"):
            CompileServer(durable=True)


class TestSupervisedSigkill:
    def test_sigkill_mid_burst_settles_every_job_exactly_once(
        self, tmp_path
    ):
        """Satellite: SIGKILL the serve child mid-burst under the
        supervisor; the restarted incarnation resumes the journaled
        queue and every accepted job settles exactly once."""
        ledger = str(tmp_path / "serve.jsonl")
        supervisor = Supervisor(
            ledger,
            child_args=[
                "--pool-size", "2", "--task-timeout", "10",
                "--engine", "bitset", "--allow-request-faults",
                "--quiet",
            ],
            restart_budget=5,
            backoff=0.2,
            health_interval=0.1,
            hang_timeout=5.0,
        )
        thread = threading.Thread(
            target=lambda: supervisor.run(install_signal_handlers=False),
            daemon=True,
        )
        thread.start()
        assert supervisor.ready.wait(30.0), "server never became healthy"
        base = "http://{}:{}".format(supervisor.host, supervisor.port)
        accepted = []
        deadline = time.monotonic() + 90.0
        try:
            for index in range(6):
                if index == 2 and supervisor.child is not None:
                    os.kill(supervisor.child.pid, signal.SIGKILL)
                doc = None
                while time.monotonic() < deadline:
                    try:
                        status, doc = post(base, "/submit", {
                            "name": "t{}".format(index),
                            "text": SOURCE,
                            "client": "burst",
                            # Keep the queue busy so the kill lands on
                            # in-flight work, not a drained pool.
                            "faults": "service.worker:stall=0.3",
                        }, timeout=2.0)
                    except (urllib.error.URLError, OSError):
                        time.sleep(0.1)
                        continue
                    if status == 202:
                        break
                    time.sleep(0.1)
                assert doc and "job_id" in doc, \
                    "submit {} never accepted".format(index)
                accepted.append(doc["job_id"])
            # Every accepted job settles (poll across the restart).
            unsettled = set(accepted)
            while unsettled and time.monotonic() < deadline:
                for job_id in sorted(unsettled):
                    try:
                        status, _ = get(
                            base, "/result?job=" + job_id, timeout=2.0
                        )
                    except (urllib.error.URLError, OSError):
                        break
                    if status in (200, 404):
                        unsettled.discard(job_id)
                time.sleep(0.1)
            assert unsettled == set(), \
                "jobs never settled: {}".format(sorted(unsettled))
        finally:
            supervisor.request_shutdown()
            thread.join(30.0)
            if supervisor.child is not None and \
                    supervisor.child.poll() is None:
                supervisor.child.kill()
        report = audit_exactly_once(ledger)
        assert report["ok"], report
        missing = [j for j in accepted if j in report["lost"]]
        assert missing == []
        assert supervisor.restarts + len(supervisor.quarantined) >= 1
