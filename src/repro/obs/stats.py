"""Trace aggregation: fold a JSONL trace into summary tables.

``repro stats run.jsonl`` reads a trace written by
:class:`~repro.obs.trace.Tracer`, validates every line against the
schema (:func:`~repro.obs.trace.validate_event`), and aggregates:

* **per-phase** — every ``span_end``/``span`` event named
  ``phase.<name>`` contributes its ``duration_s`` to that phase's
  count/total/mean/min/max row (live driver spans and worker phase
  timings folded in by the batch parent land in the same table);
* **spans** — every other span name (``serve.job``,
  ``batch.run``, ...) gets the same count/total/mean/min/max
  treatment in its own table, so service- and transport-level
  latencies show up without claiming to be compile phases;
* **per-rung** — every ``task.done`` event groups by its ``rung``
  attribute into task counts per status plus total task seconds;
* **counters** are summed, **gauges** keep their last value, and
  span begin/end balance is checked (an unbalanced trace usually
  means a compile died mid-span — worth knowing, never fatal).

Torn or foreign lines are tolerated by default (a SIGKILL'd run tears
its final line exactly like the run ledger); ``--check`` turns any
invalid line or unbalanced span into a non-zero exit for CI.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import validate_event
from repro.utils.errors import InputError

#: Span/phase names emitted by the driver carry this prefix.
PHASE_PREFIX = "phase."


def load_trace(
    path: str,
) -> Tuple[List[Dict[str, object]], List[str]]:
    """Parse *path* into ``(valid_events, error_descriptions)``.

    Raises:
        InputError: when the file cannot be read at all.
    """
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputError(
            "cannot read trace {!r}: {}".format(path, exc)
        ) from None
    events: List[Dict[str, object]] = []
    errors: List[str] = []
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                errors.append("line {}: not valid JSON".format(lineno))
                continue
            problem = validate_event(obj)
            if problem is not None:
                errors.append("line {}: {}".format(lineno, problem))
                continue
            events.append(obj)
    return events, errors


def check_spans(events: List[Dict[str, object]]) -> List[str]:
    """Span begin/end balance problems (empty list when balanced)."""
    open_spans: Dict[int, str] = {}
    problems: List[str] = []
    for event in events:
        kind = event.get("kind")
        if kind == "span_begin":
            span_id = event["span_id"]  # type: ignore[index]
            if span_id in open_spans:
                problems.append(
                    "span_id {} begun twice ({})".format(
                        span_id, event["name"]
                    )
                )
            open_spans[span_id] = str(event["name"])
        elif kind == "span_end":
            span_id = event["span_id"]  # type: ignore[index]
            if span_id not in open_spans:
                problems.append(
                    "span_id {} ended without a begin ({})".format(
                        span_id, event["name"]
                    )
                )
            else:
                del open_spans[span_id]
    for span_id, name in sorted(open_spans.items()):
        problems.append(
            "span_id {} ({}) never ended".format(span_id, name)
        )
    return problems


def _phase_of(event: Dict[str, object]) -> Optional[str]:
    name = str(event.get("name", ""))
    if name.startswith(PHASE_PREFIX):
        return name[len(PHASE_PREFIX):]
    return None


def aggregate(events: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold valid trace *events* into the stats document.

    Returns a primitive dict::

        {"events": N,
         "phases": {name: {count, total_s, mean_s, min_s, max_s,
                           share}},
         "spans": {name: {count, total_s, mean_s, min_s, max_s}},
         "rungs": {rung: {tasks, ok, degraded, failed, other,
                          total_s}},
         "counters": {name: total},
         "gauges": {name: last_value},
         "top_phase": name-or-None,
         "span_problems": [...]}

    ``share`` is the phase's fraction of the summed phase wall time
    (``total_s / sum of all phase total_s``) and ``top_phase`` names
    the largest share — the line ``repro stats --expect-top-phase``
    asserts on, so a perf regression that shifts where a run spends
    its time fails CI rather than drifting silently.
    """
    phases: Dict[str, Dict[str, float]] = {}
    spans: Dict[str, Dict[str, float]] = {}
    rungs: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}

    for event in events:
        kind = event.get("kind")
        if kind in ("span_end", "span"):
            phase = _phase_of(event)
            if phase is not None:
                table, key = phases, phase
            else:
                # Non-phase spans (serve.job, batch.run, ...)
                # keep their full name in their own table.
                table, key = spans, str(event.get("name", "?"))
            duration = float(event.get("duration_s", 0.0))
            row = table.setdefault(
                key,
                {"count": 0, "total_s": 0.0,
                 "min_s": float("inf"), "max_s": 0.0},
            )
            row["count"] += 1
            row["total_s"] += duration
            row["min_s"] = min(row["min_s"], duration)
            row["max_s"] = max(row["max_s"], duration)
        elif kind == "counter":
            name = str(event["name"])
            counters[name] = counters.get(name, 0.0) + float(
                event.get("value", 0.0)
            )
        elif kind == "gauge":
            gauges[str(event["name"])] = float(event.get("value", 0.0))
        elif kind == "event" and event.get("name") == "task.done":
            attrs = event.get("attrs") or {}
            rung = str(attrs.get("rung", "?")) or "?"
            status = str(attrs.get("status", "other"))
            row = rungs.setdefault(
                rung,
                {"tasks": 0, "ok": 0, "degraded": 0, "failed": 0,
                 "other": 0, "total_s": 0.0},
            )
            row["tasks"] += 1
            bucket = status if status in ("ok", "degraded", "failed") \
                else "other"
            row[bucket] += 1
            try:
                row["total_s"] += float(attrs.get("duration_s", 0.0))
            except (TypeError, ValueError):
                pass

    for row in list(phases.values()) + list(spans.values()):
        row["mean_s"] = row["total_s"] / row["count"] if row["count"] else 0.0
        if row["min_s"] == float("inf"):
            row["min_s"] = 0.0
        for key in ("total_s", "mean_s", "min_s", "max_s"):
            row[key] = round(row[key], 6)
    for row in rungs.values():
        row["total_s"] = round(row["total_s"], 6)

    phase_wall = sum(row["total_s"] for row in phases.values())
    top_phase: Optional[str] = None
    top_total = -1.0
    for name in sorted(phases):
        row = phases[name]
        row["share"] = round(
            row["total_s"] / phase_wall if phase_wall else 0.0, 6
        )
        if row["total_s"] > top_total:
            top_phase = name
            top_total = row["total_s"]

    return {
        "events": len(events),
        "top_phase": top_phase,
        "phases": {name: phases[name] for name in sorted(phases)},
        "spans": {name: spans[name] for name in sorted(spans)},
        "rungs": {name: rungs[name] for name in sorted(rungs)},
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "span_problems": check_spans(events),
    }


def format_stats(stats: Dict[str, object]) -> str:
    """Human-readable tables for one aggregated stats document."""
    lines: List[str] = []
    lines.append("{} event(s)".format(stats.get("events", 0)))

    phases = stats.get("phases") or {}
    lines.append("")
    lines.append("per-phase:")
    if phases:
        lines.append(
            "  {:<14} {:>7} {:>12} {:>12} {:>12} {:>12} {:>8}".format(
                "phase", "count", "total_s", "mean_s", "min_s", "max_s",
                "share",
            )
        )
        for name, row in phases.items():  # type: ignore[union-attr]
            lines.append(
                "  {:<14} {:>7} {:>12.6f} {:>12.6f} {:>12.6f} "
                "{:>12.6f} {:>7.1%}".format(
                    name, int(row["count"]), row["total_s"],
                    row["mean_s"], row["min_s"], row["max_s"],
                    float(row.get("share", 0.0)),
                )
            )
        top = stats.get("top_phase")
        if top is not None:
            lines.append(
                "  top phase: {} ({:.1%} of phase wall)".format(
                    top, float(phases[top].get("share", 0.0))
                )
            )
    else:
        lines.append("  (no phase spans)")

    spans = stats.get("spans") or {}
    if spans:
        lines.append("")
        lines.append("spans:")
        lines.append(
            "  {:<24} {:>7} {:>12} {:>12} {:>12} {:>12}".format(
                "span", "count", "total_s", "mean_s", "min_s", "max_s"
            )
        )
        for name, row in spans.items():  # type: ignore[union-attr]
            lines.append(
                "  {:<24} {:>7} {:>12.6f} {:>12.6f} {:>12.6f} "
                "{:>12.6f}".format(
                    name, int(row["count"]), row["total_s"],
                    row["mean_s"], row["min_s"], row["max_s"],
                )
            )

    rungs = stats.get("rungs") or {}
    lines.append("")
    lines.append("per-rung:")
    if rungs:
        lines.append(
            "  {:<24} {:>6} {:>5} {:>9} {:>7} {:>12}".format(
                "rung", "tasks", "ok", "degraded", "failed", "total_s"
            )
        )
        for name, row in rungs.items():  # type: ignore[union-attr]
            lines.append(
                "  {:<24} {:>6} {:>5} {:>9} {:>7} {:>12.6f}".format(
                    name, int(row["tasks"]), int(row["ok"]),
                    int(row["degraded"]), int(row["failed"]),
                    row["total_s"],
                )
            )
    else:
        lines.append("  (no task.done events)")

    counters = stats.get("counters") or {}
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in counters.items():  # type: ignore[union-attr]
            lines.append("  {:<32} {:>14g}".format(name, value))

    gauges = stats.get("gauges") or {}
    if gauges:
        lines.append("")
        lines.append("gauges (last value):")
        for name, value in gauges.items():  # type: ignore[union-attr]
            lines.append("  {:<32} {:>14g}".format(name, value))

    problems = stats.get("span_problems") or []
    if problems:
        lines.append("")
        lines.append("span problems:")
        for problem in problems:  # type: ignore[union-attr]
            lines.append("  {}".format(problem))
    return "\n".join(lines)
