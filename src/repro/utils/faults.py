"""Deterministic fault injection for exercising degradation paths.

The hardened driver (:mod:`repro.pipeline.driver`) promises a ladder of
fallbacks — bitset dependence kernel → reference engine, combined
Pinter coloring → Chaitin with spilling, augmented scheduler → plain
list scheduler — and the batch service (:mod:`repro.service`) promises
fleet-level containment — kill-on-timeout, retry with backoff, circuit
breaking, checkpoint/resume.  Fallback code that only runs when
production code breaks is fallback code that silently rots.  This
module lets tests (and operators, via ``REPRO_FAULTS`` or ``repro
compile --inject-fault``) force a named *fault point* to misbehave in a
chosen way, so every rung of every ladder is exercised
deterministically.

Fault points are plain string names checked by :func:`trip` calls
sprinkled at the entry of the guarded subsystems:

========================  ====================================================
point                     location
========================  ====================================================
``frontend.compile``      :func:`repro.frontend.lower.compile_source`
``ir.parse``              :func:`repro.ir.parser.parse_function`
``ir.verify``             :func:`repro.ir.verifier.verify_function`
``deps.bitset``           :meth:`repro.deps.bitset.DependenceBitKernel.build`
``core.pinter_color``     :func:`repro.core.coloring.pinter_color`
``regalloc.chaitin``      :func:`repro.regalloc.compact.compact_chaitin_color`
                          (every Chaitin/Briggs round: ``chaitin_color``,
                          ``briggs_color`` and the driver's Chaitin rung)
``sched.augmented``       :func:`repro.sched.augmented.compact_augmented_schedule`
``service.worker``        :mod:`repro.service.worker` child entry (batch
                          service; supports the worker-level actions)
``service.server``        :mod:`repro.service.server` per-request handler
                          (``raise`` = 500 response, ``stall``/``hang`` =
                          slow/wedged handler, ``crash`` = server dies
                          mid-request, ``poison-result`` = garbage
                          response body)
``fs.<scope>.<op>``       the filesystem fault shim
                          (:mod:`repro.utils.fsfaults`): *scope* is
                          ``cache`` (the compile-cache disk tier) or
                          ``ledger`` (the run-ledger journal), *op* is
                          one of ``open``/``write``/``fsync``/
                          ``rename``/``unlink``.  Only the fs actions
                          below fire here, and they fire **once**
                          (one-shot), so recovery paths stay testable.
``phase.<name>``          start of each driver phase (see
                          :attr:`repro.pipeline.driver.CompilationDriver.PHASES`)
========================  ====================================================

Actions:

* ``raise`` — raise the spec's error class at the point (default);
* ``stall`` — sleep a short, configurable time, then continue (used to
  trip wall-clock budgets at phase boundaries);
* ``hang`` — sleep for a *long* time (default one hour): simulates a
  wedged phase or worker; only a hard kill (the batch service's
  ``--task-timeout``) or mid-phase deadline preemption ends it;
* ``crash`` — ``os._exit`` the process immediately with exit code
  :data:`CRASH_EXIT_CODE`, bypassing ``finally``/``atexit`` — the
  closest pure-Python stand-in for a segfault or OOM kill;
* ``poison-result`` — no-op at the trip point; consulted by the batch
  worker, which then streams a malformed result object back to the
  parent so result validation and the retry path are exercised.

Filesystem actions (only valid on ``fs.*`` points; consulted by
:mod:`repro.utils.fsfaults`, never by :func:`trip`, and disarmed after
firing once):

* ``torn-write`` (``=k``) — the write *silently* persists only the
  first *k* bytes (default: half the payload) and reports success:
  what a crash between write and durability leaves on disk;
* ``short-write`` (``=k``) — persists the first *k* bytes, then raises
  ``OSError(EIO)`` so the caller knows the write was cut short;
* ``enospc`` — raise ``OSError(ENOSPC)`` before touching the file;
* ``eio`` — raise ``OSError(EIO)`` before touching the file;
* ``crash-after-write-before-rename`` — at a ``rename`` point:
  ``os._exit`` with :data:`CRASH_EXIT_CODE` *before* performing the
  rename, leaving a fully-written temp file orphaned next to the old
  entry — the classic atomic-replace crash window.

Text specs named in ``$REPRO_FAULTS`` / ``--inject-fault`` are
validated **at arm time**: an unknown trip-point name or a malformed
``point:action=value`` entry raises
:class:`~repro.utils.errors.InputError` naming the offending token,
instead of arming silently and never firing.  Programmatic
:func:`install`/:func:`inject` accept arbitrary point names so tests
can guard private seams.

When no fault is armed, :func:`trip` is a single truthiness test on an
empty dict — cheap enough to live on hot paths.

Usage::

    from repro.utils.faults import inject

    with inject("deps.bitset"):
        outcome = driver.compile_function(fn)   # exercises the
                                                # reference-engine rung

Specs are also parseable from text (CLI/env form)::

    REPRO_FAULTS="deps.bitset,sched.augmented:stall=0.2" repro compile f.src
    repro batch manifest.json --inject-fault service.worker:crash
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Type

from repro.utils import errors as _errors
from repro.utils.errors import FaultInjectedError, InputError, ReproError

#: Environment variable scanned by :func:`install_from_env`.
ENV_VAR = "REPRO_FAULTS"

#: Filesystem fault actions (fire only at ``fs.*`` points, via the
#: :mod:`repro.utils.fsfaults` shim, one-shot).
FS_ACTIONS = (
    "torn-write",
    "short-write",
    "enospc",
    "eio",
    "crash-after-write-before-rename",
)

#: Valid fault actions.
ACTIONS = ("raise", "stall", "hang", "crash", "poison-result") + FS_ACTIONS

#: Actions accepting an ``=seconds`` argument in text specs.
_TIMED_ACTIONS = ("stall", "hang")

#: Fs actions accepting an ``=bytes`` argument in text specs.
_SIZED_ACTIONS = ("torn-write", "short-write")

#: Default stall duration in seconds when a spec says ``stall`` with no
#: explicit duration.
DEFAULT_STALL_SECONDS = 0.05

#: Default ``hang`` duration: long enough that only a kill or a
#: mid-phase deadline ends it, short enough that an orphaned process
#: eventually exits on its own.
DEFAULT_HANG_SECONDS = 3600.0

#: Process exit code used by the ``crash`` action (and therefore the
#: exit code the batch service sees from a crashed worker).
CRASH_EXIT_CODE = 70

#: Library-level trip points (see the module docstring table).
LIBRARY_POINTS = frozenset({
    "frontend.compile",
    "ir.parse",
    "ir.verify",
    "deps.bitset",
    "core.pinter_color",
    "regalloc.chaitin",
    "sched.augmented",
    "service.worker",
    "service.server",
})

#: Driver phases with a ``phase.<name>`` point (kept in sync with
#: :attr:`repro.pipeline.driver.CompilationDriver.PHASES` plus the
#: ``strategy`` phase of :meth:`CompilationDriver.run_strategy`;
#: hardcoded here to keep this leaf module import-free).
_PHASE_NAMES = frozenset({
    "parse", "verify", "opt", "preschedule", "pig", "color",
    "assign", "schedule", "theorem1", "strategy",
})

#: Subsystems guarded by the filesystem fault shim
#: (:mod:`repro.utils.fsfaults`).
FS_SCOPES = ("cache", "ledger")

#: Filesystem operations the shim interposes on.
FS_OPS = ("open", "write", "fsync", "rename", "unlink")

#: ``fs.<scope>.<op>`` points, fully expanded.
FS_POINTS = frozenset(
    "fs.{}.{}".format(scope, op) for scope in FS_SCOPES for op in FS_OPS
)


def is_fs_point(point: str) -> bool:
    return point in FS_POINTS


def known_points() -> Tuple[str, ...]:
    """Every documented trip-point name, sorted (``phase.*`` expanded)."""
    return tuple(sorted(
        LIBRARY_POINTS
        | FS_POINTS
        | {"phase." + name for name in _PHASE_NAMES}
    ))


def is_known_point(point: str) -> bool:
    if point in LIBRARY_POINTS or point in FS_POINTS:
        return True
    prefix, _, rest = point.partition(".")
    return prefix == "phase" and rest in _PHASE_NAMES


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault.

    Attributes:
        point: The fault-point name the spec arms.
        action: One of :data:`ACTIONS` (see the module docstring).
        seconds: Sleep duration for ``"stall"`` / ``"hang"``.
        error: Exception class for ``"raise"``; must derive from
            :class:`ReproError` so guards can catch it.
        message: Override for the raised message.
        nbytes: Byte count for ``"torn-write"`` / ``"short-write"``
            (None = half the payload being written).
    """

    point: str
    action: str = "raise"
    seconds: float = DEFAULT_STALL_SECONDS
    error: Type[ReproError] = FaultInjectedError
    message: Optional[str] = None
    nbytes: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        """Primitive form, picklable across process boundaries (the
        batch service ships armed specs to its workers this way)."""
        return {
            "point": self.point,
            "action": self.action,
            "seconds": self.seconds,
            "error": self.error.__name__,
            "message": self.message,
            "nbytes": self.nbytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultSpec":
        """Inverse of :meth:`as_dict`.  Unknown error-class names fall
        back to :class:`FaultInjectedError` (never silently drop the
        fault itself)."""
        error = getattr(_errors, str(data.get("error", "")), None)
        if not (isinstance(error, type) and issubclass(error, ReproError)):
            error = FaultInjectedError
        message = data.get("message")
        nbytes = data.get("nbytes")
        return cls(
            point=str(data["point"]),
            action=str(data.get("action", "raise")),
            seconds=float(data.get("seconds", DEFAULT_STALL_SECONDS)),
            error=error,
            message=None if message is None else str(message),
            nbytes=None if nbytes is None else int(nbytes),
        )


#: point name → armed spec.  Module-level so trip() is reachable from
#: every subsystem without threading a registry object through APIs.
_active: Dict[str, FaultSpec] = {}


def install(spec: FaultSpec) -> None:
    """Arm *spec*, replacing any spec already armed at its point.

    Raises:
        InputError: on an unknown action or a non-``ReproError`` error
            class (a guard could not catch it).
    """
    if spec.action not in ACTIONS:
        raise InputError(
            "unknown fault action {!r}; choose from {}".format(
                spec.action, ", ".join(ACTIONS)
            )
        )
    if not (isinstance(spec.error, type) and issubclass(spec.error, ReproError)):
        raise InputError(
            "fault error class must derive from ReproError, got {!r}".format(
                spec.error
            )
        )
    if spec.action in FS_ACTIONS and not spec.point.startswith("fs."):
        raise InputError(
            "fs fault action {!r} only fires at fs.* points, "
            "not {!r}".format(spec.action, spec.point)
        )
    _active[spec.point] = spec


def clear(point: Optional[str] = None) -> None:
    """Disarm *point*, or every armed fault when *point* is None."""
    if point is None:
        _active.clear()
    else:
        _active.pop(point, None)


def active_points() -> Tuple[str, ...]:
    """Names of currently armed fault points, sorted."""
    return tuple(sorted(_active))


def active_specs() -> Tuple[FaultSpec, ...]:
    """The currently armed specs, point-sorted (for shipping to batch
    workers)."""
    return tuple(_active[p] for p in sorted(_active))


def spec_at(point: str) -> Optional[FaultSpec]:
    """The spec armed at *point*, or None.  Lets subsystems with
    non-raising fault semantics (the batch worker's ``poison-result``)
    consult the registry directly."""
    return _active.get(point)


def trip(point: str) -> None:
    """Fire the fault armed at *point*, if any.

    ``raise`` faults raise their error class; ``stall``/``hang`` faults
    sleep and return; ``crash`` faults ``os._exit`` the process;
    ``poison-result`` faults return (they act at result-serialization
    time, not at the trip point).  A dormant point (the production
    case) costs one dict truthiness test.
    """
    if not _active:
        return
    spec = _active.get(point)
    if spec is None:
        return
    if spec.action in _TIMED_ACTIONS:
        time.sleep(spec.seconds)
        return
    if spec.action == "crash":
        os._exit(CRASH_EXIT_CODE)
    if spec.action == "poison-result" or spec.action in FS_ACTIONS:
        # poison-result acts at result-serialization time; fs actions
        # act inside the fsfaults shim.  Neither fires at trip points.
        return
    raise spec.error(
        spec.message or "injected fault at {!r}".format(point)
    )


@contextmanager
def inject(
    point: str,
    action: str = "raise",
    seconds: float = DEFAULT_STALL_SECONDS,
    error: Type[ReproError] = FaultInjectedError,
    message: Optional[str] = None,
    nbytes: Optional[int] = None,
) -> Iterator[FaultSpec]:
    """Arm a fault for the duration of the ``with`` block.

    Nests correctly: arming a point that is already armed shadows the
    outer spec and restores it on exit.  (One-shot fs faults may have
    already disarmed themselves by the time the block exits — the
    restore tolerates that.)
    """
    spec = FaultSpec(
        point=point, action=action, seconds=seconds, error=error,
        message=message, nbytes=nbytes,
    )
    previous = _active.get(point)
    install(spec)
    try:
        yield spec
    finally:
        if previous is None:
            _active.pop(point, None)
        else:
            _active[point] = previous


def parse_fault_specs(text: str, known_only: bool = True) -> List[FaultSpec]:
    """Parse the CLI/env fault syntax.

    Comma-separated entries of ``point``, ``point:action``, or
    ``point:stall[=seconds]`` / ``point:hang[=seconds]``::

        "deps.bitset"                          -> raise at deps.bitset
        "core.pinter_color:raise,phase.opt"    -> two raise faults
        "sched.augmented:stall=0.25"           -> stall 250 ms
        "service.worker:crash"                 -> os._exit in the worker
        "fs.cache.write:torn-write=16"         -> 16-byte torn cache write
        "fs.ledger.fsync:enospc"               -> ledger fsync ENOSPC
        "fs.cache.rename:crash-after-write-before-rename"
                                               -> die in the swap window

    Entries are validated here — at arm time — so a typo can never arm
    a point that no :func:`trip` call will ever fire.

    Args:
        text: The spec string.
        known_only: Reject trip points absent from :func:`known_points`
            (the default; pass False for tests arming private seams).

    Raises:
        InputError: on empty points, unknown actions, a bad sleep
            duration, or (with *known_only*) an unknown trip-point
            name — the message names the offending token.
    """
    specs: List[FaultSpec] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        point, _, action_text = chunk.partition(":")
        point = point.strip()
        if not point:
            raise InputError("fault spec {!r} has an empty point".format(chunk))
        # A bare fs point defaults to the generic I/O error; every
        # other bare point defaults to raising its guard error.
        default_action = "eio" if point.startswith("fs.") else "raise"
        action_text = action_text.strip() or default_action
        action, _, arg_text = action_text.partition("=")
        seconds = (
            DEFAULT_HANG_SECONDS if action == "hang" else DEFAULT_STALL_SECONDS
        )
        nbytes: Optional[int] = None
        if arg_text:
            if action in _TIMED_ACTIONS:
                try:
                    seconds = float(arg_text)
                except ValueError:
                    raise InputError(
                        "bad {} duration {!r} in fault spec {!r}".format(
                            action, arg_text, chunk
                        )
                    ) from None
                if seconds < 0:
                    raise InputError(
                        "{} duration must be >= 0, got {}".format(
                            action, seconds
                        )
                    )
            elif action in _SIZED_ACTIONS:
                try:
                    nbytes = int(arg_text)
                except ValueError:
                    raise InputError(
                        "bad {} byte count {!r} in fault spec {!r}".format(
                            action, arg_text, chunk
                        )
                    ) from None
                if nbytes < 0:
                    raise InputError(
                        "{} byte count must be >= 0, got {}".format(
                            action, nbytes
                        )
                    )
            else:
                raise InputError(
                    "fault action {!r} takes no '=' argument".format(action)
                )
        if action not in ACTIONS:
            raise InputError(
                "unknown fault action {!r} in spec {!r}; choose from {}".format(
                    action, chunk, ", ".join(ACTIONS)
                )
            )
        if known_only and not is_known_point(point):
            raise InputError(
                "unknown fault point {!r} in spec {!r}; known points: "
                "{}".format(point, chunk, ", ".join(known_points()))
            )
        if point.startswith("fs.") and action not in FS_ACTIONS:
            raise InputError(
                "fs point {!r} in spec {!r} only takes the fs actions: "
                "{}".format(point, chunk, ", ".join(FS_ACTIONS))
            )
        if action in FS_ACTIONS:
            if not point.startswith("fs."):
                raise InputError(
                    "fs fault action {!r} in spec {!r} only fires at "
                    "fs.* points".format(action, chunk)
                )
            op = point.rsplit(".", 1)[-1]
            if action in _SIZED_ACTIONS and op != "write":
                raise InputError(
                    "fault action {!r} in spec {!r} only applies to "
                    "fs.*.write points".format(action, chunk)
                )
            if action == "crash-after-write-before-rename" and \
                    op != "rename":
                raise InputError(
                    "fault action {!r} in spec {!r} only applies to "
                    "fs.*.rename points".format(action, chunk)
                )
        specs.append(FaultSpec(
            point=point, action=action, seconds=seconds, nbytes=nbytes,
        ))
    return specs


def install_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> List[FaultSpec]:
    """Arm every fault named in ``$REPRO_FAULTS`` (if set).

    Returns the installed specs (empty list when the variable is unset
    or blank), so callers can report what was armed.

    Raises:
        InputError: on a malformed or unknown-point entry (see
            :func:`parse_fault_specs`) — fail loudly at arm time rather
            than arming a fault that never fires.
    """
    text = (os.environ if environ is None else environ).get(ENV_VAR, "")
    if not text.strip():
        return []
    specs = parse_fault_specs(text)
    for spec in specs:
        install(spec)
    return specs
