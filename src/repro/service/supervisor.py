"""Supervised self-healing serve mode (``repro serve --supervised``).

:class:`Supervisor` is a small parent process that runs the
:class:`~repro.service.server.CompileServer` as a **child** process
(``python -m repro serve --durable ...``) and keeps it alive:

* **liveness** — the child is polled for exit and probed over HTTP
  (``GET /healthz``).  A dead process is a *crash*; a live process
  whose health endpoint stops answering for ``hang_timeout`` seconds
  is a *hang* and is SIGKILLed.
* **restart** — after a crash/hang the child is relaunched with the
  same address (port 0 is resolved once, up front, so clients keep a
  stable endpoint across restarts) after an exponential backoff
  (``backoff * 2^k``, capped), and a **restart budget** bounds how
  many times a persistently sick server is revived before the
  supervisor gives up with :data:`EXIT_SUPERVISOR_GAVE_UP`.
* **resume** — the child runs in durable mode against the shared run
  ledger, so every job accepted before the crash is journaled
  (``accepted``/``dispatched`` rows with full task payloads) and the
  restarted server resubmits it under its original job id: queued
  work survives the restart, settled exactly once.
* **poison quarantine** — before each restart the supervisor reads
  the ledger: a job whose *last* row is ``dispatched`` was in flight
  when the server died, so its input digest is a crash suspect.
  Suspect counts persist in ``<ledger>.poison.json``; a digest seen
  in ``poison_threshold`` crashes is **quarantined** — the restarted
  server refuses it (HTTP 403 ``poisoned-input``) and settles its
  recovered rows ``failed`` instead of re-dispatching.  A restart
  that quarantines a new digest does **not** burn the restart budget:
  the cause was just removed, so the budget is saved for failures the
  supervisor cannot explain.

A clean child exit (graceful drain, code 0) ends supervision with
code 0.  SIGTERM/SIGINT to the supervisor forwards SIGTERM to the
child (graceful drain) and waits for it.  The child runs in a session
of its own, and once it has exited, for any reason, the supervisor
SIGKILLs its process group, so no pool worker outlives its server.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from repro.obs import get_metrics, get_tracer
from repro.service.checkpoint import RunLedger, TERMINAL_STATUSES
from repro.utils.errors import InputError

#: Supervisor exit code when the restart budget runs out.
EXIT_SUPERVISOR_GAVE_UP = 71

#: Defaults (also the CLI defaults).
DEFAULT_RESTART_BUDGET = 5
DEFAULT_BACKOFF = 0.5
DEFAULT_BACKOFF_CAP = 30.0
DEFAULT_HEALTH_INTERVAL = 0.25
DEFAULT_HANG_TIMEOUT = 10.0
DEFAULT_STARTUP_TIMEOUT = 30.0
DEFAULT_POISON_THRESHOLD = 2


# ----------------------------------------------------------------------
# Poison-task list (persisted next to the ledger)
# ----------------------------------------------------------------------

def poison_path_for(ledger_path: str) -> str:
    """Where the poison-task list lives for *ledger_path*."""
    return ledger_path + ".poison.json"


def load_poison(path: str) -> Dict[str, object]:
    """Parse a poison-task list; a missing/corrupt file is empty.

    Shape: ``{"suspects": {digest: crash_count}, "quarantined":
    [digest, ...]}``.
    """
    empty: Dict[str, object] = {"suspects": {}, "quarantined": []}
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return empty
    if not isinstance(data, dict):
        return empty
    suspects = data.get("suspects")
    quarantined = data.get("quarantined")
    return {
        "suspects": {
            digest: int(count)
            for digest, count in suspects.items()
            if isinstance(digest, str) and isinstance(count, int)
        } if isinstance(suspects, dict) else {},
        "quarantined": [
            digest for digest in quarantined if isinstance(digest, str)
        ] if isinstance(quarantined, list) else [],
    }


def save_poison(path: str, data: Dict[str, object]) -> None:
    """Atomically persist the poison-task list (temp + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(data, handle, sort_keys=True, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def crash_suspects(ledger_path: str) -> List[str]:
    """Input digests whose last ledger row is ``dispatched`` — the
    jobs that were in flight when the server died."""
    suspects = []
    for record in RunLedger.load(ledger_path).values():
        if record.get("status") == "dispatched":
            digest = record.get("digest")
            if isinstance(digest, str):
                suspects.append(digest)
    return sorted(set(suspects))


def pick_free_port(host: str) -> int:
    """Resolve port 0 to a concrete free port, once, so every child
    incarnation binds the same address."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


class Supervisor:
    """Run a durable CompileServer child and keep it alive.

    Args:
        ledger_path: The shared durable run ledger (required — resume
            and poison detection both live here).
        child_args: Extra ``repro serve`` CLI arguments for the child
            (pool size, machine, cache, ...).  The supervisor itself
            owns ``--host/--port/--ledger/--durable/--poison-list``.
        host/port: Bind address; port 0 is resolved once up front.
        restart_budget: Unexplained crash/hang restarts allowed before
            giving up (quarantining restarts are free).
        backoff/backoff_cap: Exponential restart delay, seconds.
        health_interval: Seconds between liveness probes.
        hang_timeout: Consecutive probe-failure window after which a
            live child counts as hung and is killed, seconds.
        startup_timeout: Ceiling on waiting for a fresh child to
            answer its first health probe, seconds.
        poison_threshold: Crashes-in-flight needed to quarantine an
            input digest.
        drain_timeout: Grace given to a SIGTERM'd child, seconds.
    """

    def __init__(
        self,
        ledger_path: str,
        child_args: Optional[List[str]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        restart_budget: int = DEFAULT_RESTART_BUDGET,
        backoff: float = DEFAULT_BACKOFF,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        health_interval: float = DEFAULT_HEALTH_INTERVAL,
        hang_timeout: float = DEFAULT_HANG_TIMEOUT,
        startup_timeout: float = DEFAULT_STARTUP_TIMEOUT,
        poison_threshold: int = DEFAULT_POISON_THRESHOLD,
        drain_timeout: float = 30.0,
        quiet: bool = False,
    ) -> None:
        if not ledger_path:
            raise InputError("supervised serve requires --ledger")
        if restart_budget < 0:
            raise InputError(
                "restart_budget must be >= 0, got {}".format(restart_budget)
            )
        if poison_threshold < 1:
            raise InputError(
                "poison_threshold must be >= 1, got {}".format(
                    poison_threshold
                )
            )
        self.ledger_path = ledger_path
        self.poison_path = poison_path_for(ledger_path)
        self.child_args = list(child_args or [])
        self.host = host
        self.port = port if port else pick_free_port(host)
        self.restart_budget = restart_budget
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.health_interval = health_interval
        self.hang_timeout = hang_timeout
        self.startup_timeout = startup_timeout
        self.poison_threshold = poison_threshold
        self.drain_timeout = drain_timeout
        self.quiet = quiet

        #: Observable state (tests / chaos harness).
        self.restarts = 0
        self.hangs = 0
        self.quarantined: List[str] = []
        self.child: Optional[subprocess.Popen] = None
        self.ready = threading.Event()
        self._shutdown = threading.Event()
        self._drain_sent = False

    # ------------------------------------------------------------------
    # Child management
    # ------------------------------------------------------------------

    def _child_argv(self) -> List[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host,
            "--port", str(self.port),
            "--ledger", self.ledger_path,
            "--durable",
            "--poison-list", self.poison_path,
        ] + self.child_args

    def _spawn(self) -> subprocess.Popen:
        # A session of its own makes the server the leader of a
        # process group holding every worker it forks (_reap_group).
        child = subprocess.Popen(self._child_argv(), start_new_session=True)
        get_tracer().event(
            "supervisor.spawn", pid=child.pid, port=self.port,
        )
        get_metrics().counter("supervisor.spawns").inc()
        self._say(
            "supervisor: started server pid={} on http://{}:{}".format(
                child.pid, self.host, self.port
            )
        )
        return child

    def healthz(self, timeout: float = 2.0) -> Optional[Dict[str, object]]:
        """One health probe; None when the server did not answer."""
        url = "http://{}:{}/healthz".format(self.host, self.port)
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError):
            return None

    def _say(self, message: str) -> None:
        if not self.quiet:
            print(message, flush=True)

    # ------------------------------------------------------------------
    # Supervision loop
    # ------------------------------------------------------------------

    def run(self, install_signal_handlers: bool = True) -> int:
        """Supervise until the child drains cleanly, the budget runs
        out, or the supervisor is told to shut down.  Returns the
        process exit code."""
        installed: List[Tuple[int, object]] = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    previous = signal.signal(
                        signum, lambda *_: self.request_shutdown()
                    )
                    installed.append((signum, previous))
                except (ValueError, OSError):  # non-main thread
                    pass
        try:
            return self._supervise()
        finally:
            for signum, previous in installed:
                try:
                    signal.signal(signum, previous)
                except (ValueError, OSError):
                    pass

    def request_shutdown(self) -> None:
        """Thread/signal-safe: drain the child and stop supervising."""
        self._shutdown.set()

    def _supervise(self) -> int:
        spent = 0
        while True:
            self.child = self._spawn()
            self._drain_sent = False
            hung = self._watch(self.child)
            if hung:
                self.hangs += 1
                get_metrics().counter("supervisor.hangs").inc()
                self._kill(self.child)
            code = self.child.wait()
            self._reap_group(self.child)
            if self._shutdown.is_set():
                self._say(
                    "supervisor: shut down (child exited {})".format(code)
                )
                # A child that died before the drain reached it only
                # raced the shutdown; a drain that fails reports.
                if not self._drain_sent or code in (0, -signal.SIGTERM):
                    return 0
                return code
            if code == 0 and not hung:
                self._say("supervisor: server drained cleanly")
                return 0
            # Crash or hang: account poison before deciding whether
            # this restart costs budget.
            newly_quarantined = self._account_poison()
            get_tracer().event(
                "supervisor.child_died",
                exit_code=code,
                hung=hung,
                quarantined=newly_quarantined,
            )
            if newly_quarantined:
                self.quarantined.extend(newly_quarantined)
                self._say(
                    "supervisor: quarantined poison input(s) {} — "
                    "restarting (budget untouched)".format(
                        ", ".join(d[:12] for d in newly_quarantined)
                    )
                )
                if self._shutdown.wait(min(self.backoff, 0.5)):
                    return 0
                continue
            spent += 1
            self.restarts += 1
            get_metrics().counter("supervisor.restarts").inc()
            if spent > self.restart_budget:
                self._say(
                    "supervisor: restart budget ({}) exhausted; giving "
                    "up".format(self.restart_budget)
                )
                return EXIT_SUPERVISOR_GAVE_UP
            delay = min(
                self.backoff_cap, self.backoff * (2 ** (spent - 1))
            )
            self._say(
                "supervisor: server died ({}{}); restart {}/{} in "
                "{:.2f}s".format(
                    "hang" if hung else "exit {}".format(code),
                    "", spent, self.restart_budget, delay,
                )
            )
            if self._shutdown.wait(delay):
                return 0

    def _watch(self, child: subprocess.Popen) -> bool:
        """Block while *child* looks healthy; True means it hung.

        Returns (without killing) as soon as the child exits on its
        own; on shutdown requests, forwards SIGTERM and waits out the
        drain."""
        started = time.monotonic()
        last_ok: Optional[float] = None
        next_probe = 0.0
        while True:
            if child.poll() is not None:
                return False
            if self._shutdown.is_set():
                self._terminate(child)
                return False
            now = time.monotonic()
            if now >= next_probe:
                next_probe = now + self.health_interval
                if self.healthz() is not None:
                    last_ok = now
                    self.ready.set()
            if last_ok is None:
                if now - started > self.startup_timeout:
                    return True  # never came up: treat as hung
            elif now - last_ok > self.hang_timeout:
                return True
            time.sleep(min(0.05, self.health_interval))

    def _terminate(self, child: subprocess.Popen) -> None:
        """Graceful SIGTERM → drain wait → SIGKILL escalation."""
        if child.poll() is not None:
            return
        try:
            child.send_signal(signal.SIGTERM)
        except OSError:
            return
        self._drain_sent = True
        try:
            child.wait(timeout=self.drain_timeout)
        except subprocess.TimeoutExpired:
            self._kill(child)

    def _kill(self, child: subprocess.Popen) -> None:
        if child.poll() is not None:
            return
        try:
            child.kill()
        except OSError:
            pass
        try:
            child.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover
            pass

    def _reap_group(self, child: subprocess.Popen) -> None:
        """SIGKILL what is left of the exited *child*'s process group.

        A pool worker notices its server died only when its current
        task ends, so a worker in a long task would otherwise outlive
        the server it belonged to."""
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except OSError:  # the group is already empty
            pass

    # ------------------------------------------------------------------
    # Poison accounting
    # ------------------------------------------------------------------

    def _account_poison(self) -> List[str]:
        """Bump crash-suspect counts from the ledger; returns digests
        newly crossing the quarantine threshold."""
        suspects = crash_suspects(self.ledger_path)
        if not suspects:
            return []
        data = load_poison(self.poison_path)
        counts: Dict[str, int] = data["suspects"]  # type: ignore
        quarantined: List[str] = data["quarantined"]  # type: ignore
        fresh: List[str] = []
        for digest in suspects:
            counts[digest] = counts.get(digest, 0) + 1
            if counts[digest] >= self.poison_threshold and \
                    digest not in quarantined:
                quarantined.append(digest)
                fresh.append(digest)
                get_metrics().counter("supervisor.poisoned_inputs").inc()
                get_tracer().event(
                    "supervisor.quarantine", digest=digest,
                    crashes=counts[digest],
                )
        save_poison(self.poison_path, data)
        return fresh


def audit_exactly_once(ledger_path: str) -> Dict[str, object]:
    """Exactly-once settlement check over a durable serve ledger.

    Classifies every journaled job: ``settled`` (exactly one terminal
    row), ``open`` (accepted/dispatched, never settled — lost work if
    the service is down for good), ``duplicated`` (more than one
    terminal row — double settlement).  The chaos harness asserts
    ``lost == duplicated == []`` after every campaign.
    """
    terminal_counts: Dict[str, int] = {}
    seen: Dict[str, str] = {}
    segments = [
        ledger_path + ".compacting", ledger_path,
    ]
    for segment in segments:
        try:
            handle = open(segment, "rb")
        except OSError:
            continue
        with handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    continue
                if not isinstance(record, dict):
                    continue
                task_id = record.get("task_id")
                status = record.get("status")
                if not isinstance(task_id, str):
                    continue
                seen[task_id] = str(status)
                if status in TERMINAL_STATUSES or status in (
                    "interrupted", "deadline-exceeded",
                ):
                    terminal_counts[task_id] = \
                        terminal_counts.get(task_id, 0) + 1
    lost = sorted(
        task_id for task_id in seen if task_id not in terminal_counts
    )
    duplicated = sorted(
        task_id for task_id, n in terminal_counts.items() if n > 1
    )
    return {
        "jobs": len(seen),
        "settled": len(terminal_counts),
        "lost": lost,
        "duplicated": duplicated,
        "ok": not lost and not duplicated,
    }
