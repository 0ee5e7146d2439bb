"""Tests for the supervised self-healing serve mode
(repro.service.supervisor)."""

import json
import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.service.checkpoint import RunLedger
from repro.service.supervisor import (
    EXIT_SUPERVISOR_GAVE_UP,
    Supervisor,
    audit_exactly_once,
    crash_suspects,
    load_poison,
    pick_free_port,
    poison_path_for,
    save_poison,
)
from repro.utils.errors import InputError


def entry(task_id, status, digest="d0", **extra):
    record = {"task_id": task_id, "status": status, "digest": digest}
    record.update(extra)
    return record


class TestPoisonList:
    def test_missing_file_is_empty(self, tmp_path):
        data = load_poison(str(tmp_path / "absent.json"))
        assert data == {"suspects": {}, "quarantined": []}

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "poison.json")
        save_poison(path, {"suspects": {"abc": 2}, "quarantined": ["abc"]})
        data = load_poison(path)
        assert data["suspects"] == {"abc": 2}
        assert data["quarantined"] == ["abc"]

    def test_corrupt_file_is_empty(self, tmp_path):
        path = str(tmp_path / "poison.json")
        with open(path, "w") as handle:
            handle.write("{ not json")
        assert load_poison(path) == {"suspects": {}, "quarantined": []}

    def test_shapeless_fields_are_dropped(self, tmp_path):
        path = str(tmp_path / "poison.json")
        with open(path, "w") as handle:
            json.dump(
                {"suspects": {"a": 1, "b": "two"}, "quarantined": ["c", 3]},
                handle,
            )
        data = load_poison(path)
        assert data["suspects"] == {"a": 1}
        assert data["quarantined"] == ["c"]

    def test_poison_path_sits_next_to_ledger(self):
        assert poison_path_for("/x/run.jsonl") == "/x/run.jsonl.poison.json"

    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        path = str(tmp_path / "poison.json")
        save_poison(path, {"suspects": {}, "quarantined": []})
        leftovers = [
            name for name in os.listdir(str(tmp_path))
            if name.endswith(".tmp")
        ]
        assert leftovers == []


class TestCrashSuspects:
    def test_dispatched_last_row_is_suspect(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLedger(path) as ledger:
            ledger.record(entry("job-1", "accepted", digest="aaa"))
            ledger.record(entry("job-1", "dispatched", digest="aaa"))
            ledger.record(entry("job-2", "accepted", digest="bbb"))
        assert crash_suspects(path) == ["aaa"]

    def test_settled_job_is_not_suspect(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLedger(path) as ledger:
            ledger.record(entry("job-1", "dispatched", digest="aaa"))
            ledger.record(entry("job-1", "ok", digest="aaa"))
        assert crash_suspects(path) == []

    def test_suspects_deduplicate_by_digest(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLedger(path) as ledger:
            ledger.record(entry("job-1", "dispatched", digest="aaa"))
            ledger.record(entry("job-2", "dispatched", digest="aaa"))
        assert crash_suspects(path) == ["aaa"]

    def test_missing_ledger_has_no_suspects(self, tmp_path):
        assert crash_suspects(str(tmp_path / "absent.jsonl")) == []


class TestExactlyOnceAudit:
    def test_settled_jobs_pass(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLedger(path) as ledger:
            ledger.record(entry("job-1", "accepted"))
            ledger.record(entry("job-1", "dispatched"))
            ledger.record(entry("job-1", "ok"))
            ledger.record(entry("job-2", "accepted"))
            ledger.record(entry("job-2", "failed"))
        report = audit_exactly_once(path)
        assert report["ok"]
        assert report["jobs"] == 2
        assert report["settled"] == 2

    def test_open_job_is_lost(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLedger(path) as ledger:
            ledger.record(entry("job-1", "dispatched"))
        report = audit_exactly_once(path)
        assert report["lost"] == ["job-1"]
        assert not report["ok"]

    def test_double_settlement_is_duplicated(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLedger(path) as ledger:
            ledger.record(entry("job-1", "ok"))
            ledger.record(entry("job-1", "ok"))
        report = audit_exactly_once(path)
        assert report["duplicated"] == ["job-1"]
        assert not report["ok"]

    def test_interrupted_and_deadline_count_as_settled(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLedger(path) as ledger:
            ledger.record(entry("job-1", "interrupted"))
            ledger.record(entry("job-2", "deadline-exceeded"))
        assert audit_exactly_once(path)["ok"]

    def test_audit_spans_rotated_segment(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path + ".compacting", "w") as old:
            old.write(json.dumps(entry("job-1", "accepted")) + "\n")
        with open(path, "w") as new:
            new.write(json.dumps(entry("job-1", "ok")) + "\n")
        report = audit_exactly_once(path)
        assert report["ok"] and report["jobs"] == 1


class TestConstruction:
    def test_requires_ledger(self):
        with pytest.raises(InputError, match="requires --ledger"):
            Supervisor("")

    def test_rejects_negative_budget(self, tmp_path):
        with pytest.raises(InputError, match="restart_budget"):
            Supervisor(
                str(tmp_path / "run.jsonl"), restart_budget=-1,
            )

    def test_rejects_zero_poison_threshold(self, tmp_path):
        with pytest.raises(InputError, match="poison_threshold"):
            Supervisor(
                str(tmp_path / "run.jsonl"), poison_threshold=0,
            )

    def test_port_zero_is_resolved_up_front(self, tmp_path):
        supervisor = Supervisor(str(tmp_path / "run.jsonl"), port=0)
        assert supervisor.port != 0
        # And the resolved port is actually bindable.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((supervisor.host, supervisor.port))
        probe.close()

    def test_child_argv_owns_durable_plumbing(self, tmp_path):
        ledger = str(tmp_path / "run.jsonl")
        supervisor = Supervisor(ledger, child_args=["--pool-size", "2"])
        argv = supervisor._child_argv()
        assert "--durable" in argv
        assert argv[argv.index("--ledger") + 1] == ledger
        assert argv[argv.index("--poison-list") + 1] == \
            poison_path_for(ledger)
        assert argv[-2:] == ["--pool-size", "2"]

    def test_pick_free_port_returns_distinct_bindable_port(self):
        port = pick_free_port("127.0.0.1")
        assert 0 < port < 65536


class _FakeChildSupervisor(Supervisor):
    """Supervisor whose children are tiny scripted subprocesses —
    fast restart-loop tests without booting real compile servers."""

    def __init__(self, ledger_path, behaviors, **kwargs):
        kwargs.setdefault("backoff", 0.01)
        kwargs.setdefault("health_interval", 0.02)
        kwargs.setdefault("startup_timeout", 5.0)
        super().__init__(ledger_path, **kwargs)
        self._behaviors = list(behaviors)

    def _child_argv(self):
        behavior = self._behaviors.pop(0) if self._behaviors else "exit0"
        if behavior == "crash":
            code = "import sys; sys.exit(3)"
        elif behavior == "exit0":
            code = "pass"
        else:  # serve: answer one health probe then exit cleanly
            code = (
                "import http.server, threading\n"
                "class H(http.server.BaseHTTPRequestHandler):\n"
                "    def do_GET(self):\n"
                "        self.send_response(200)\n"
                "        self.send_header('Content-Type', "
                "'application/json')\n"
                "        self.end_headers()\n"
                "        self.wfile.write(b'{}')\n"
                "    def log_message(self, *a):\n"
                "        pass\n"
                "s = http.server.HTTPServer(('127.0.0.1', %d), H)\n"
                "threading.Timer(0.6, s.shutdown).start()\n"
                "s.serve_forever()\n"
            ) % self.port
        return [sys.executable, "-c", code]


class TestSupervisionLoop:
    def test_budget_exhaustion_gives_up_with_71(self, tmp_path):
        ledger = str(tmp_path / "run.jsonl")
        RunLedger(ledger).close()
        supervisor = _FakeChildSupervisor(
            ledger, ["crash"] * 10, restart_budget=2,
        )
        code = supervisor.run(install_signal_handlers=False)
        assert code == EXIT_SUPERVISOR_GAVE_UP
        assert supervisor.restarts == 3  # budget 2 → third crash quits

    def test_clean_exit_after_serving_ends_supervision(self, tmp_path):
        ledger = str(tmp_path / "run.jsonl")
        RunLedger(ledger).close()
        supervisor = _FakeChildSupervisor(ledger, ["serve"])
        assert supervisor.run(install_signal_handlers=False) == 0
        assert supervisor.restarts == 0
        assert supervisor.ready.is_set()

    def test_crash_then_recovery_restarts_within_budget(self, tmp_path):
        ledger = str(tmp_path / "run.jsonl")
        RunLedger(ledger).close()
        supervisor = _FakeChildSupervisor(
            ledger, ["crash", "crash", "serve"], restart_budget=5,
        )
        assert supervisor.run(install_signal_handlers=False) == 0
        assert supervisor.restarts == 2

    def test_quarantining_restart_is_free(self, tmp_path):
        """A crash that quarantines a new poison digest must not burn
        the restart budget."""
        ledger = str(tmp_path / "run.jsonl")
        with RunLedger(ledger) as handle:
            handle.record(entry("job-1", "dispatched", digest="bad"))
        supervisor = _FakeChildSupervisor(
            ledger,
            ["crash", "serve"],
            restart_budget=0,
            poison_threshold=1,
        )
        assert supervisor.run(install_signal_handlers=False) == 0
        assert supervisor.quarantined == ["bad"]
        assert supervisor.restarts == 0  # free restart
        data = load_poison(supervisor.poison_path)
        assert data["quarantined"] == ["bad"]

    def test_request_shutdown_stops_the_loop(self, tmp_path):
        ledger = str(tmp_path / "run.jsonl")
        RunLedger(ledger).close()
        supervisor = _FakeChildSupervisor(
            ledger, ["crash"] * 1000, restart_budget=1000,
        )
        timer = threading.Timer(0.3, supervisor.request_shutdown)
        timer.start()
        try:
            assert supervisor.run(install_signal_handlers=False) == 0
        finally:
            timer.cancel()

    def test_hang_detection_kills_the_child(self, tmp_path):
        """A child that never answers /healthz within startup_timeout
        is treated as hung, killed, and counted."""
        ledger = str(tmp_path / "run.jsonl")
        RunLedger(ledger).close()

        class _HangingChild(_FakeChildSupervisor):
            def _child_argv(self):
                if self._behaviors:
                    self._behaviors.pop(0)
                    return [
                        sys.executable, "-c", "import time; time.sleep(60)",
                    ]
                return super()._child_argv()

        supervisor = _HangingChild(
            ledger, ["hang"], restart_budget=1, startup_timeout=0.4,
        )
        start = time.monotonic()
        code = supervisor.run(install_signal_handlers=False)
        assert code == 0  # second child exits 0 cleanly
        assert supervisor.hangs == 1
        assert time.monotonic() - start < 30.0


def _running(pid):
    """True while *pid* exists and is not a zombie."""
    try:
        with open("/proc/{}/stat".format(pid)) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestProcessGroupReaping:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="needs /proc"
    )
    def test_crash_reaps_the_servers_process_group(self, tmp_path):
        """A long-running grandchild (a pool worker in a long task)
        must not outlive the server that forked it."""
        ledger = str(tmp_path / "run.jsonl")
        RunLedger(ledger).close()
        pid_file = str(tmp_path / "grandchild.pid")

        class _ForkThenCrash(_FakeChildSupervisor):
            def _child_argv(self):
                if self._behaviors:
                    self._behaviors.pop(0)
                    return [sys.executable, "-c", (
                        "import os, subprocess, sys\n"
                        "p = subprocess.Popen([sys.executable, '-c', "
                        "'import time; time.sleep(60)'])\n"
                        "with open(%r, 'w') as f:\n"
                        "    f.write(str(p.pid))\n"
                        "os._exit(3)\n"
                    ) % pid_file]
                return super()._child_argv()

        supervisor = _ForkThenCrash(ledger, ["fork"], restart_budget=1)
        assert supervisor.run(install_signal_handlers=False) == 0
        assert supervisor.restarts == 1
        with open(pid_file) as handle:
            grandchild = int(handle.read())
        deadline = time.monotonic() + 5.0
        while _running(grandchild) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(grandchild)


class TestPoisonAccounting:
    def test_counts_accumulate_across_crashes(self, tmp_path):
        ledger = str(tmp_path / "run.jsonl")
        with RunLedger(ledger) as handle:
            handle.record(entry("job-1", "dispatched", digest="abc"))
        supervisor = Supervisor(ledger, poison_threshold=2)
        assert supervisor._account_poison() == []  # count 1: suspect only
        assert supervisor._account_poison() == ["abc"]  # count 2: poison
        data = load_poison(supervisor.poison_path)
        assert data["suspects"]["abc"] == 2
        assert data["quarantined"] == ["abc"]

    def test_already_quarantined_is_not_fresh_again(self, tmp_path):
        ledger = str(tmp_path / "run.jsonl")
        with RunLedger(ledger) as handle:
            handle.record(entry("job-1", "dispatched", digest="abc"))
        supervisor = Supervisor(ledger, poison_threshold=1)
        assert supervisor._account_poison() == ["abc"]
        assert supervisor._account_poison() == []

    def test_no_suspects_no_write(self, tmp_path):
        ledger = str(tmp_path / "run.jsonl")
        with RunLedger(ledger) as handle:
            handle.record(entry("job-1", "ok"))
        supervisor = Supervisor(ledger)
        assert supervisor._account_poison() == []
        assert not os.path.exists(supervisor.poison_path)
