"""In-memory spans around calls into the program's layers.

The traced run replaces a layer's public functions with wrappers, under
the names the driver and the services resolve at call time (the driver
imports ``pinter_color`` into its own namespace, so that is the name
patched), and restores them afterwards.  Each span records its name,
start, end, parent and the id of the compile or task it belongs to;
spans stay in memory until :meth:`Recorder.write`.  Counts are taken
at the same boundaries from each call's arguments and result.
"""

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Spans plus counters and per-call samples for one traced run."""

    def __init__(self):
        #: [name, start, end, parent index or None, op id]
        self.spans = []
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._stack = []
        self._pending = {}

    @contextmanager
    def span(self, name, op=None):
        """Record one span; without *op* it inherits its parent's id of
        the compile or task it belongs to."""
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        rec = [name, perf_counter(), None, parent, op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, layer, hook, op_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, op_of(args) if op_of else None) as rec:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, rec, args, result)
            return result
        return wrapper

    @contextmanager
    def patched(self, targets):
        """Wrap every ``(module, attribute path, layer, hook, op_of)``
        target for the duration of the block."""
        saved = []
        try:
            for module, path, layer, hook, op_of in targets:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, layer, hook, op_of))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_seconds(self):
        """Layer name -> summed self time (span minus its children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
        return totals

    def total_seconds(self, name):
        return sum(end - start for n, start, end, _, _ in self.spans
                   if n == name)

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


# ----------------------------------------------------------------------
# Compile layers (in-process driver)
# ----------------------------------------------------------------------

def _pig(rec, span, args, pig):
    rec.counts["pig.calls"] += 1
    rec.counts["pig.webs"] += pig.graph.number_of_nodes()
    rec.counts["pig.edges"] += pig.graph.number_of_edges()
    rec.counts["pig.regions"] += len(pig.regions)


def _color(rec, span, args, result):
    rec.counts["color.calls"] += 1
    rec.counts["color.sacrificed"] += len(result.removed_false_edges)
    rec.counts["color.spilled"] += len(result.spilled)


def _spill(rec, span, args, result):
    report = result[1]
    rec.counts["spill.ops"] += report.stores_added + report.reloads_added


def _assign(rec, span, args, assignment):
    rec.counts["assign.registers"] += assignment.num_registers_used


def _theorem1(rec, span, args, violations):
    rec.counts["theorem1.violations"] += len(violations)


def _schedule(rec, span, args, schedule):
    rec.counts["schedule.blocks"] += 1


_DRIVER = "repro.pipeline.driver"

#: The compile layers, in pipeline order.  ``compile_source`` and
#: ``compact_augmented_schedule`` are imported by the driver inside the
#: calling function, so their home modules are patched.
COMPILE_TARGETS = [
    ("repro.frontend.lower", "compile_source", "frontend", None, None),
    ("repro.ir.parser", "parse_function", "frontend", None, None),
    (_DRIVER, "preschedule_function", "preschedule", None, None),
    (_DRIVER, "build_parallel_interference_graph", "pig", _pig, None),
    (_DRIVER, "make_cost_function", "spill", None, None),
    (_DRIVER, "pinter_color", "color", _color, None),
    (_DRIVER, "insert_spill_code", "spill", _spill, None),
    (_DRIVER, "make_assignment", "assign", _assign, None),
    (_DRIVER, "apply_assignment", "assign", None, None),
    (_DRIVER, "find_false_dependences", "theorem1", _theorem1, None),
    (_DRIVER, "block_schedule_graph", "schedule", None, None),
    (_DRIVER, "false_dependence_graph", "schedule", None, None),
    ("repro.sched.augmented", "compact_augmented_schedule", "schedule",
     _schedule, None),
]

COMPILE_LAYERS = ("frontend", "preschedule", "pig", "color", "spill",
                  "assign", "theorem1", "schedule")


# ----------------------------------------------------------------------
# Batch-service layers (the BatchRunner parent process)
# ----------------------------------------------------------------------

def _dispatch(rec, span, args, handle):
    rec.counts["pool.dispatches"] += 1
    run_start = _open_run_start(rec)
    if run_start is not None:
        rec.samples["batch.queue_wait_ms"].append(
            1000.0 * (span[1] - run_start))
    rec._pending[id(handle)] = span[1]


def _collect(rec, span, args, outcome):
    started = rec._pending.pop(id(args[1]), None)
    if started is None:
        return
    roundtrip = span[2] - started
    rec.samples["pool.roundtrip_ms"].append(1000.0 * roundtrip)
    result = outcome.result or {}
    phases = (result.get("report") or {}).get("phase_seconds") or {}
    rec.samples["pool.overhead_ms"].append(
        1000.0 * (roundtrip - sum(phases.values())))


def _open_run_start(rec):
    for index in reversed(rec._stack):
        if rec.spans[index][0] == "batch":
            return rec.spans[index][1]
    return None


def _cache_get(rec, span, args, result):
    rec.counts["cache.gets"] += 1
    rec.counts["cache.hits"] += result is not None
    rec.samples["cache.get_ms"].append(1000.0 * (span[2] - span[1]))


def _cache_put(rec, span, args, result):
    rec.samples["cache.put_ms"].append(1000.0 * (span[2] - span[1]))


def _ledger(rec, span, args, result):
    rec.counts["ledger.records"] += 1
    rec.samples["ledger.record_ms"].append(1000.0 * (span[2] - span[1]))


BATCH_TARGETS = [
    ("repro.service.batch", "BatchRunner.run", "batch", None, None),
    ("repro.service.pool", "WorkerPool.dispatch", "pool", _dispatch,
     lambda args: args[1].task_id),
    ("repro.service.pool", "WorkerPool.collect", "pool", _collect,
     lambda args: args[1].task.task_id),
    ("repro.cache.store", "CompileCache.get", "cache", _cache_get,
     lambda args: args[1].input_digest[:12]),
    ("repro.cache.store", "CompileCache.put", "cache", _cache_put,
     lambda args: args[1].input_digest[:12]),
    ("repro.service.checkpoint", "RunLedger.record", "ledger", _ledger,
     lambda args: args[1].get("task_id")),
]
