"""Command-line interface.

::

    python -m repro compile program.src --machine rs6000 -r 8
    python -m repro compile program.src --strategy all --optimize
    python -m repro compile program.src --paranoid --json-diagnostics
    python -m repro graph program.src --kind pig -o pig.dot
    python -m repro kernels
    python -m repro bench -o BENCH.json
    python -m repro batch manifest.txt --max-workers 8 --resume run.jsonl
    python -m repro batch --fuzz 50 --task-timeout 10 --json-summary
    python -m repro batch --fuzz 50 --trace run-trace.jsonl --metrics
    python -m repro batch --fuzz 50 --cache-dir .repro-cache --ledger r.jsonl
    python -m repro batch manifest.txt --no-pool --no-cache
    python -m repro serve --port 8437 --pool-size 4 --cache
    python -m repro serve --port 0 --ledger serve.jsonl --max-queue-depth 32
    python -m repro stats run-trace.jsonl --check

``compile`` accepts either frontend source (default) or textual IR
(``--ir``), runs one or more phase-ordering strategies through the
hardened driver (:mod:`repro.pipeline.driver`), and prints the
allocated program, the metric row, and optionally the cycle timeline.
Diagnostics go to stderr (or, with ``--json-diagnostics``, as one JSON
document on stdout).

Exit codes (all commands):

* ``0`` — success; the compile may have *degraded* onto a fallback
  rung (reference dependence engine, Chaitin spilling, plain list
  scheduler) — check the diagnostics.
* ``1`` — internal failure: a budget was exhausted (``--max-instrs``,
  ``--time-budget``) or every fallback failed.
* ``2`` — invalid input: malformed source/IR, or bad arguments
  (unknown strategy/machine/phase names, bad fault specs, bad
  manifests).

``batch`` (see :mod:`repro.service.batch`) additionally uses ``3``
(batch completed but some tasks failed after retries) and ``130``
(interrupted; resume with the ledger).  ``serve`` (see
:mod:`repro.service.server`) exits ``0`` on a graceful drain
(SIGTERM/SIGINT or ``POST /drain``) and ``2`` on bad arguments; a
per-job failure is a job status on the wire, never a process exit.

``compile``, ``batch``, and ``bench`` all accept ``--trace FILE``
(append a structured JSONL trace, :mod:`repro.obs`) and ``--metrics``
(collect in-process counters/histograms; printed as JSON on stderr, or
folded into the JSON document when one is requested).  ``stats``
aggregates a trace back into per-phase / per-rung tables and exits 1
under ``--check`` when any line is invalid or any span is unbalanced.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.machine.presets import ALL_PRESETS
from repro.pipeline.strategies import (
    AllocateThenSchedule,
    CombinedPinter,
    GoodmanHsuIPS,
    ScheduleThenAllocate,
    Strategy,
)
from repro.utils.errors import InputError, ReproError

STRATEGIES = {
    "alloc-first": AllocateThenSchedule,
    "sched-first": ScheduleThenAllocate,
    "pinter": CombinedPinter,
    "ips": GoodmanHsuIPS,
}


def _load_function(path: str, is_ir: bool):
    from repro.frontend import compile_source
    from repro.ir import parse_function

    with open(path) as handle:
        text = handle.read()
    if is_ir:
        return parse_function(text)
    return compile_source(text, name=path.rsplit("/", 1)[-1].split(".")[0])


def _machine(name: str, registers: Optional[int]):
    if name not in ALL_PRESETS:
        raise InputError(
            "unknown machine {!r}; choose from: {}".format(
                name, ", ".join(sorted(ALL_PRESETS))
            )
        )
    machine = ALL_PRESETS[name]()
    return machine


def _strategy_names(spec: str) -> List[str]:
    """Expand and validate ``--strategy`` *before* any compilation, so
    a typo can never fire after partial output."""
    if spec == "all":
        return list(STRATEGIES)
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise InputError("no strategy named in {!r}".format(spec))
    unknown = [name for name in names if name not in STRATEGIES]
    if unknown:
        raise InputError(
            "unknown strategy {}; choose from: {} or 'all'".format(
                ", ".join(repr(n) for n in unknown), ", ".join(STRATEGIES)
            )
        )
    return names


def _install_cli_faults(args: argparse.Namespace) -> None:
    """Arm faults from ``$REPRO_FAULTS`` and ``--inject-fault``."""
    from repro.utils import faults

    faults.install_from_env()
    for spec_text in args.inject_fault or ():
        for spec in faults.parse_fault_specs(spec_text):
            faults.install(spec)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """``--trace`` / ``--metrics``, shared by compile, batch, bench."""
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append a structured JSONL trace of this run to FILE "
        "(aggregate it later with 'repro stats FILE')",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect in-process counters/gauges/histograms and report "
        "the snapshot (stderr JSON, or folded into JSON output)",
    )


def _add_region_cache_flags(parser: argparse.ArgumentParser) -> None:
    """``--region-cache`` family, shared by compile, batch, serve."""
    parser.add_argument(
        "--region-cache", dest="region_cache", action="store_true",
        default=None,
        help="serve per-region dependence kernels from the region "
        "cache, so an edit-recompile loop pays only the edited "
        "regions; in-memory unless --region-cache-dir",
    )
    parser.add_argument(
        "--no-region-cache", dest="region_cache", action="store_false",
        help="never consult or populate the region cache",
    )
    parser.add_argument(
        "--region-cache-dir", default=None, metavar="DIR",
        help="persist region kernels here (implies --region-cache); "
        "may share a directory with --cache-dir (the region grain "
        "keeps its own 'region/' namespace)",
    )


def _metrics_to_stderr(registry) -> None:
    import json

    if registry is not None:
        print(
            json.dumps(registry.snapshot(), indent=2, sort_keys=True),
            file=sys.stderr,
        )


def _emit_diagnostics(report, json_mode: bool) -> None:
    """Text mode: info diagnostics join the stdout commentary, warnings
    and errors go to stderr (JSON mode collects reports into a single
    document instead)."""
    if json_mode:
        return
    for diag in report.diagnostics:
        if diag.severity == "info":
            print("; {}".format(diag.message))
        else:
            print("; {}".format(diag), file=sys.stderr)


def _region_cache_enabled(args: argparse.Namespace) -> bool:
    """Three-state ``--region-cache`` resolution, mirroring
    ``--cache``: explicit on, explicit off, or implied on by
    ``--region-cache-dir``."""
    return bool(
        args.region_cache
        or (args.region_cache is None and args.region_cache_dir)
    )


def cmd_compile(args: argparse.Namespace) -> int:
    import json

    from repro.ir import format_function
    from repro.pipeline.driver import CompilationDriver, DriverConfig

    # Validate everything user-controlled before running any strategy.
    names = _strategy_names(args.strategy)
    machine = _machine(args.machine, args.registers)
    registers = args.registers or machine.num_registers
    if args.max_instrs is not None and args.max_instrs < 1:
        raise InputError("--max-instrs must be positive")
    if args.time_budget is not None and args.time_budget <= 0:
        raise InputError("--time-budget must be positive seconds")
    _install_cli_faults(args)

    config = DriverConfig(
        strict=args.strict,
        paranoid=args.paranoid,
        max_instrs=args.max_instrs,
        time_budget=args.time_budget,
        optimize=args.optimize,
        engine=args.pig_engine,
        region_cache=_region_cache_enabled(args),
        region_cache_dir=args.region_cache_dir,
        backend=args.backend,
    )
    driver = CompilationDriver(machine, num_registers=registers, config=config)

    with open(args.file) as handle:
        text = handle.read()
    name = args.file.rsplit("/", 1)[-1].split(".")[0]

    from repro import obs

    with obs.tracing(args.trace), \
            obs.collecting_metrics(args.metrics) as registry:
        fn, load_report = driver.load(text, is_ir=args.ir, name=name)
        json_entries = [load_report.as_dict()]
        _emit_diagnostics(load_report, args.json_diagnostics)
        exit_code = load_report.exit_code

        if fn is not None:
            for strategy_name in names:
                if strategy_name == "pinter":
                    outcome = driver.compile_function(fn, preprocessed=True)
                else:
                    strategy: Strategy = STRATEGIES[strategy_name]()
                    outcome = driver.run_strategy(
                        strategy, fn, preprocessed=True
                    )
                report = outcome.report
                entry = report.as_dict()
                entry["metrics"] = (
                    outcome.result.as_row() if outcome.ok else None
                )
                json_entries.append(entry)
                _emit_diagnostics(report, args.json_diagnostics)
                exit_code = max(exit_code, report.exit_code)
                if not outcome.ok:
                    if not args.json_diagnostics:
                        print(
                            "; strategy={} machine={} r={} FAILED "
                            "(exit {})".format(
                                report.strategy, machine.name, registers,
                                report.exit_code,
                            )
                        )
                        print()
                    continue
                result = outcome.result
                if not args.json_diagnostics:
                    print("; strategy={} machine={} r={}".format(
                        result.strategy, machine.name, registers))
                    print(
                        "; registers={} spill_ops={} false_deps={} "
                        "cycles={}".format(
                            result.registers_used,
                            result.spill_operations,
                            result.false_dependences,
                            result.cycles,
                        )
                    )
                    if len(names) == 1 or args.verbose:
                        print(format_function(result.allocated_function))
                    if args.timeline:
                        from repro.deps import block_schedule_graph
                        from repro.sched import list_schedule
                        from repro.viz import schedule_to_ascii

                        for block in result.allocated_function.blocks():
                            if not block.instructions:
                                continue
                            sg = block_schedule_graph(
                                block, machine=machine
                            )
                            schedule = list_schedule(sg, machine)
                            print("; timeline of block {}:".format(
                                block.name))
                            print(schedule_to_ascii(schedule))
                    print()

    if args.json_diagnostics:
        document = {
            "file": args.file,
            "machine": machine.name,
            "registers": registers,
            "exit_code": exit_code,
            "reports": json_entries,
        }
        if registry is not None:
            document["metrics"] = registry.snapshot()
        print(json.dumps(document, indent=2))
    else:
        _metrics_to_stderr(registry)
    return exit_code


def cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.pipeline.driver import DriverConfig
    from repro.service import (
        BatchRunner,
        CircuitBreaker,
        RetryPolicy,
        fuzz_tasks,
        load_manifest,
    )

    if args.manifest is None and args.fuzz is None:
        raise InputError("batch needs a manifest file or --fuzz N")
    if args.manifest is not None and args.fuzz is not None:
        raise InputError("a manifest and --fuzz are mutually exclusive")
    if args.max_instrs is not None and args.max_instrs < 1:
        raise InputError("--max-instrs must be positive")
    if args.time_budget is not None and args.time_budget <= 0:
        raise InputError("--time-budget must be positive seconds")
    _install_cli_faults(args)

    if args.fuzz is not None:
        tasks = fuzz_tasks(args.fuzz, seed=args.fuzz_seed)
    else:
        tasks = load_manifest(args.manifest)

    # --cache is three-state: explicit on, explicit off, or implied on
    # by --cache-dir (a directory without caching makes no sense).
    cache = None
    if args.cache or (args.cache is None and args.cache_dir):
        from repro.cache import CompileCache

        cache = CompileCache(directory=args.cache_dir)

    config = DriverConfig(
        strict=args.strict,
        paranoid=args.paranoid,
        max_instrs=args.max_instrs,
        time_budget=args.time_budget,
        optimize=args.optimize,
        engine=args.engine,
        region_cache=_region_cache_enabled(args),
        region_cache_dir=args.region_cache_dir,
        backend="compact" if args.backend == "auto" else args.backend,
    )
    runner = BatchRunner(
        machine=args.machine,
        registers=args.registers,
        driver_config=config,
        max_workers=args.max_workers,
        task_timeout=args.task_timeout,
        retry_policy=RetryPolicy(
            max_retries=args.retries, base_delay=args.backoff
        ),
        breaker=CircuitBreaker(),
        ledger_path=args.ledger,
        resume_path=args.resume,
        recheck_degraded=args.recheck_degraded,
        retry_failed=args.retry_failed,
        use_pool=args.pool,
        max_tasks_per_worker=args.max_tasks_per_worker,
        cache=cache,
    )

    total = len(tasks)
    settled = [0]

    def progress(rec) -> None:
        if args.json_summary:
            return
        settled[0] += 1
        extra = " (resumed)" if rec.resumed \
            else " (cached)" if rec.cached else ""
        detail = ""
        if rec.status == "failed" and rec.message:
            detail = " - {}".format(rec.message)
        print("[{}/{}] {:<9} {}{}{}".format(
            settled[0], total, rec.status, rec.task_id, extra, detail
        ))

    from repro import obs

    with obs.tracing(args.trace), \
            obs.collecting_metrics(args.metrics) as registry:
        summary = runner.run(
            tasks, install_signal_handlers=True, progress=progress
        )
    if args.json_summary:
        document = summary.as_dict()
        if cache is not None:
            document["cache"] = cache.snapshot()
        if registry is not None:
            document["metrics"] = registry.snapshot()
        print(json.dumps(document, indent=2))
    else:
        _metrics_to_stderr(registry)
        counts = summary.counts
        print(
            "batch: {} task(s): {} ok, {} degraded, {} failed, "
            "{} resumed{}{}".format(
                counts["total"], counts["ok"], counts["degraded"],
                counts["failed"], counts["resumed"],
                ", {} cached".format(counts["cached"])
                if cache is not None else "",
                " [interrupted - resume with the ledger to finish]"
                if summary.interrupted else "",
            )
        )
    return summary.exit_code


def _supervised_child_args(args: argparse.Namespace) -> List[str]:
    """Rebuild the ``repro serve`` argv the supervisor's child needs
    (everything except host/port/ledger/durable/poison-list, which
    the supervisor owns)."""
    child: List[str] = [
        "--machine", args.machine,
        "--pool-size", str(args.pool_size),
        "--task-timeout", str(args.task_timeout),
        "--max-queue-depth", str(args.max_queue_depth),
        "--per-client-depth", str(args.per_client_depth),
        "--retries", str(args.retries),
        "--backoff", str(args.backoff),
        "--drain-timeout", str(args.drain_timeout),
        "--engine", args.engine,
        "--backend", args.backend,
    ]
    if args.registers is not None:
        child += ["--registers", str(args.registers)]
    if args.cache:
        child += ["--cache"]
    elif args.cache is False:
        child += ["--no-cache"]
    if args.cache_dir:
        child += ["--cache-dir", args.cache_dir]
    if args.region_cache:
        child += ["--region-cache"]
    elif args.region_cache is False:
        child += ["--no-region-cache"]
    if args.region_cache_dir:
        child += ["--region-cache-dir", args.region_cache_dir]
    if args.max_segment_bytes is not None:
        child += ["--max-segment-bytes", str(args.max_segment_bytes)]
    if args.allow_request_faults:
        child += ["--allow-request-faults"]
    for flag in ("strict", "paranoid", "optimize", "quiet"):
        if getattr(args, flag):
            child += ["--" + flag]
    if args.max_instrs is not None:
        child += ["--max-instrs", str(args.max_instrs)]
    if args.time_budget is not None:
        child += ["--time-budget", str(args.time_budget)]
    for spec in args.inject_fault or []:
        child += ["--inject-fault", spec]
    return child


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.pipeline.driver import DriverConfig
    from repro.service.server import CompileServer

    if args.max_instrs is not None and args.max_instrs < 1:
        raise InputError("--max-instrs must be positive")
    if args.time_budget is not None and args.time_budget <= 0:
        raise InputError("--time-budget must be positive seconds")

    if args.supervised:
        from repro.service.supervisor import Supervisor

        if not args.ledger:
            raise InputError(
                "--supervised requires --ledger (resume and poison "
                "detection live in the durable queue)"
            )
        supervisor = Supervisor(
            ledger_path=args.ledger,
            child_args=_supervised_child_args(args),
            host=args.host,
            port=args.port,
            restart_budget=args.restart_budget,
            backoff=args.restart_backoff,
            hang_timeout=args.hang_timeout,
            health_interval=args.health_interval,
            poison_threshold=args.poison_threshold,
            drain_timeout=args.drain_timeout,
            quiet=args.quiet,
        )
        return supervisor.run(install_signal_handlers=True)

    _install_cli_faults(args)

    cache = None
    if args.cache or (args.cache is None and args.cache_dir):
        from repro.cache import CompileCache

        cache = CompileCache(directory=args.cache_dir)

    config = DriverConfig(
        strict=args.strict,
        paranoid=args.paranoid,
        max_instrs=args.max_instrs,
        time_budget=args.time_budget,
        optimize=args.optimize,
        engine=args.engine,
        region_cache=_region_cache_enabled(args),
        region_cache_dir=args.region_cache_dir,
        backend="compact" if args.backend == "auto" else args.backend,
    )
    server = CompileServer(
        host=args.host,
        port=args.port,
        machine=args.machine,
        registers=args.registers,
        driver_config=config,
        pool_size=args.pool_size,
        task_timeout=args.task_timeout,
        max_queue_depth=args.max_queue_depth,
        per_client_depth=args.per_client_depth,
        retries=args.retries,
        backoff=args.backoff,
        cache=cache,
        ledger_path=args.ledger,
        durable=args.durable,
        poison_path=args.poison_list,
        max_segment_bytes=args.max_segment_bytes,
        allow_request_faults=args.allow_request_faults,
        drain_timeout=args.drain_timeout,
        quiet=args.quiet,
    )

    from repro import obs

    with obs.tracing(args.trace), \
            obs.collecting_metrics(args.metrics) as registry:
        code = server.run(install_signal_handlers=True)
    _metrics_to_stderr(registry)
    return code


def cmd_graph(args: argparse.Namespace) -> int:
    fn = _load_function(args.file, args.ir)
    machine = _machine(args.machine, None)

    if args.kind == "cfg":
        from repro.viz import cfg_to_dot

        dot = cfg_to_dot(fn)
    elif args.kind == "gs":
        from repro.deps import block_schedule_graph
        from repro.viz import schedule_graph_to_dot

        dot = schedule_graph_to_dot(
            block_schedule_graph(fn.entry, machine=machine)
        )
    elif args.kind == "fdg":
        from repro.deps import block_false_dependence_graph
        from repro.viz import false_dependence_to_dot

        dot = false_dependence_to_dot(
            block_false_dependence_graph(fn.entry, machine)
        )
    elif args.kind == "ig":
        from repro.regalloc import build_interference_graph
        from repro.viz import interference_to_dot

        dot = interference_to_dot(build_interference_graph(fn))
    elif args.kind == "pig":
        from repro.core import build_parallel_interference_graph
        from repro.viz import pig_to_dot

        dot = pig_to_dot(build_parallel_interference_graph(fn, machine))
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit("unknown graph kind {!r}".format(args.kind))

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dot + "\n")
        print("wrote {}".format(args.output))
    else:
        print(dot)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        DEFAULT_SIZES,
        PHASES,
        format_bench,
        run_bench,
        write_bench,
    )

    if args.sizes:
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            raise InputError(
                "bench workload sizes must be integers, got {!r}".format(
                    args.sizes
                )
            ) from None
    else:
        sizes = DEFAULT_SIZES
    bad_sizes = [s for s in sizes if s <= 0]
    if bad_sizes:
        raise InputError(
            "bench workload sizes must be positive, got {}".format(
                ", ".join(str(s) for s in bad_sizes)
            )
        )
    phases = tuple(args.phases.split(",")) if args.phases else PHASES
    unknown_phases = sorted(set(phases) - set(PHASES))
    if unknown_phases:
        raise InputError(
            "unknown bench workload/phase names: {}; choose from {}".format(
                ", ".join(repr(p) for p in unknown_phases),
                ", ".join(PHASES),
            )
        )
    if args.repeats < 1:
        raise InputError(
            "--repeats must be at least 1, got {}".format(args.repeats)
        )
    machine = _machine(args.machine, None)

    from repro import obs

    with obs.tracing(args.trace), \
            obs.collecting_metrics(args.metrics) as registry:
        rows = run_bench(
            sizes=sizes, phases=phases, machine=machine,
            repeats=args.repeats,
        )
    print(format_bench(rows))
    _metrics_to_stderr(registry)
    if args.output:
        write_bench(args.output, rows)
        print("wrote {}".format(args.output))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Aggregate a trace JSONL into per-phase / per-rung tables."""
    import json

    from repro import obs

    events, errors = obs.load_trace(args.trace_file)
    summary = obs.aggregate(events)
    problems = summary.get("span_problems") or []

    if args.json:
        document = dict(summary)
        document["invalid_lines"] = errors
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(obs.format_stats(summary))
        for error in errors:
            print("; invalid {}".format(error), file=sys.stderr)

    if args.expect_top_phase is not None:
        top = summary.get("top_phase")
        if top != args.expect_top_phase:
            print(
                "repro stats: top phase is {!r}, expected {!r}".format(
                    top, args.expect_top_phase
                ),
                file=sys.stderr,
            )
            return 1

    if args.check and (errors or problems):
        print(
            "repro stats: --check failed: {} invalid line(s), "
            "{} span problem(s)".format(len(errors), len(problems)),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_ledger_check(args: argparse.Namespace) -> int:
    """``repro ledger check`` — audit a run ledger read-only."""
    import json

    from repro.service.checkpoint import audit_ledger

    report = audit_ledger(args.path)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            "ledger {}: {} record(s) across {} segment(s), {} task(s) "
            "({} terminal, {} open), {} duplicate id(s)".format(
                args.path, report["records"],
                len(report["segments"]), report["tasks"],
                report["terminal"], report["non_terminal"],
                report["duplicate_task_ids"],
            )
        )
        if report["torn_tail"]:
            print(
                "  torn tail detected (crash debris; healed on next "
                "open)"
            )
        if report["non_terminal_task_ids"]:
            print("  open task(s): {}".format(
                ", ".join(report["non_terminal_task_ids"])
            ))
        for problem in report["problems"]:
            print("  PROBLEM: {}".format(problem))
        print("ledger check: {}".format(
            "ok" if report["ok"] else "FAILED"
        ))
    return 0 if report["ok"] else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos`` — run one seeded chaos campaign."""
    import json

    from repro.chaos import run_campaign

    if args.tasks < 2:
        raise InputError("--tasks must be >= 2")
    summary = run_campaign(
        seed=args.seed,
        workdir=args.workdir,
        quick=args.quick,
        tasks_per_round=args.tasks,
        keep=args.keep,
        progress=None if args.json_summary else print,
    )
    if args.json_summary:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        invariants = summary["invariants"]
        print(
            "chaos campaign seed={}: {} round(s) in {:.1f}s — "
            "orphans={} ledgers={} exactly-once={} cache={} -> "
            "{}".format(
                summary["seed"], len(summary["rounds"]),
                summary["duration_s"],
                "0" if invariants["zero_orphans"] else "FOUND",
                "ok" if invariants["ledger_audits_ok"] else "FAILED",
                "ok" if invariants["exactly_once"] else "FAILED",
                "honest" if invariants["cache_honest"] else "FAILED",
                "GREEN" if summary["ok"] else "RED",
            )
        )
        for round_ in summary["rounds"]:
            if not round_["ok"]:
                print("  round {} FAILED: {}".format(
                    round_["round"], "; ".join(round_["problems"])
                ))
    return 0 if summary["ok"] else 1


def cmd_kernels(_args: argparse.Namespace) -> int:
    from repro.workloads import ALL_KERNELS

    for name in sorted(ALL_KERNELS):
        fn = ALL_KERNELS[name]()
        print("{:<12} {:>3} instructions, live-out: {}".format(
            name,
            sum(len(b) for b in fn.blocks()),
            ", ".join(str(r) for r in fn.live_out) or "(none)",
        ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Register allocation with instruction scheduling "
        "(Pinter, PLDI 1993)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="compile source/IR through a strategy"
    )
    p_compile.add_argument("file")
    p_compile.add_argument(
        "--machine", default="two-unit-superscalar",
        help="machine preset ({})".format(", ".join(sorted(ALL_PRESETS))),
    )
    p_compile.add_argument("-r", "--registers", type=int, default=None)
    p_compile.add_argument(
        "--strategy", default="pinter",
        help="one of {} or 'all'".format(", ".join(STRATEGIES)),
    )
    p_compile.add_argument(
        "--ir", action="store_true", help="input is textual IR, not source"
    )
    p_compile.add_argument("--optimize", action="store_true")
    p_compile.add_argument("--timeline", action="store_true")
    p_compile.add_argument("-v", "--verbose", action="store_true")
    p_compile.add_argument(
        "--strict", action="store_true",
        help="disable the degradation ladder: first phase error fails",
    )
    p_compile.add_argument(
        "--paranoid", action="store_true",
        help="cross-check the bitset dependence engine against the "
        "reference engine on every PIG build",
    )
    p_compile.add_argument(
        "--max-instrs", type=int, default=None, metavar="N",
        help="reject functions with more than N instructions (exit 1)",
    )
    p_compile.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for each strategy run, checked at "
        "phase boundaries and polled inside each long phase "
        "(exit 1 when exhausted)",
    )
    p_compile.add_argument(
        "--pig-engine",
        choices=("bitset", "reference"),
        default="bitset",
        help="primary dependence engine for PIG construction: 'bitset' "
        "is the word-parallel kernel (degrades to reference), "
        "'reference' the set-based oracle",
    )
    p_compile.add_argument(
        "--backend",
        choices=("auto", "compact", "reference"),
        default="auto",
        help="allocator/scheduler kernel implementation: 'compact' runs "
        "the bitrow interference + worklist coloring + array scheduler "
        "fast paths and degrades to 'reference' on any failure "
        "('auto' resolves to compact)",
    )
    _add_region_cache_flags(p_compile)
    p_compile.add_argument(
        "--json-diagnostics", action="store_true",
        help="emit one JSON document (reports + metrics) on stdout "
        "instead of the text format",
    )
    p_compile.add_argument(
        "--inject-fault", action="append", default=None, metavar="SPEC",
        help="arm a fault point for ladder testing, e.g. "
        "'deps.bitset' or 'sched.augmented:stall=0.2' "
        "(also honors $REPRO_FAULTS)",
    )
    _add_obs_flags(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_batch = sub.add_parser(
        "batch",
        help="compile a manifest (or fuzz stream) on isolated workers "
        "with retries, circuit breaking, and checkpoint/resume",
    )
    p_batch.add_argument(
        "manifest", nargs="?", default=None,
        help="manifest file: JSON tasks or one source path per line",
    )
    p_batch.add_argument(
        "--fuzz", type=int, default=None, metavar="N",
        help="compile N deterministic fuzz programs instead of a manifest",
    )
    p_batch.add_argument(
        "--fuzz-seed", type=int, default=0, metavar="SEED",
        help="base seed for --fuzz task generation",
    )
    p_batch.add_argument(
        "--machine", default="two-unit-superscalar",
        help="machine preset ({})".format(", ".join(sorted(ALL_PRESETS))),
    )
    p_batch.add_argument("-r", "--registers", type=int, default=None)
    p_batch.add_argument(
        "--max-workers", type=int, default=4, metavar="K",
        help="in-flight worker process bound",
    )
    p_batch.add_argument(
        "--task-timeout", type=float, default=30.0, metavar="SECONDS",
        help="hard wall-clock limit per attempt; overdue workers are "
        "killed (SIGTERM then SIGKILL)",
    )
    p_batch.add_argument(
        "--pool", dest="pool", action="store_true", default=True,
        help="dispatch to a persistent warm worker pool (default): "
        "workers import the pipeline once and serve many tasks",
    )
    p_batch.add_argument(
        "--no-pool", dest="pool", action="store_false",
        help="fork one worker process per attempt (the PR-4 transport)",
    )
    p_batch.add_argument(
        "--max-tasks-per-worker", type=int, default=256, metavar="N",
        help="recycle a pool worker after N served tasks (leak hygiene)",
    )
    p_batch.add_argument(
        "--cache", dest="cache", action="store_true", default=None,
        help="reuse cached results for identical (source, machine, "
        "config, version) compiles; in-memory unless --cache-dir",
    )
    p_batch.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="never consult or populate the compile cache",
    )
    p_batch.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist the compile cache here (implies --cache); warm "
        "re-runs skip compilation entirely",
    )
    _add_region_cache_flags(p_batch)
    p_batch.add_argument(
        "--retries", type=int, default=2, metavar="R",
        help="extra attempts for retryable failures (timeout, crash, "
        "worker exception); deterministic failures never retry",
    )
    p_batch.add_argument(
        "--backoff", type=float, default=0.1, metavar="SECONDS",
        help="base retry backoff (doubles per retry, with jitter)",
    )
    p_batch.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append terminal outcomes to this JSONL run ledger",
    )
    p_batch.add_argument(
        "--resume", default=None, metavar="PATH",
        help="load this ledger and skip journaled tasks with unchanged "
        "sources; new outcomes append to the same file (failed tasks "
        "whose failure was worker-level — timeout/crash — always "
        "recompile)",
    )
    p_batch.add_argument(
        "--retry-failed", action="store_true",
        help="with --resume: recompile every journaled failed task, "
        "even deterministic failures",
    )
    p_batch.add_argument(
        "--json-summary", action="store_true",
        help="emit the batch summary as one JSON document on stdout",
    )
    p_batch.add_argument(
        "--engine",
        choices=("bitset", "reference"),
        default="bitset",
        help="primary dependence engine rung (bitset degrades to "
        "reference)",
    )
    p_batch.add_argument(
        "--backend",
        choices=("auto", "compact", "reference"),
        default="auto",
        help="allocator/scheduler kernel implementation ('auto' "
        "resolves to compact; degrades to reference on failure)",
    )
    p_batch.add_argument(
        "--recheck-degraded", action="store_true",
        help="re-run degraded tasks once on the strict reference rung; "
        "a clean strict run upgrades them to ok",
    )
    p_batch.add_argument("--strict", action="store_true")
    p_batch.add_argument("--paranoid", action="store_true")
    p_batch.add_argument("--optimize", action="store_true")
    p_batch.add_argument("--max-instrs", type=int, default=None, metavar="N")
    p_batch.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="cooperative in-worker budget (backed by --task-timeout)",
    )
    p_batch.add_argument(
        "--inject-fault", action="append", default=None, metavar="SPEC",
        help="arm a fault point in every worker, e.g. "
        "'service.worker:crash' (also honors $REPRO_FAULTS)",
    )
    _add_obs_flags(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run a long-lived async compilation service over HTTP/JSON "
        "with admission control, request coalescing, and graceful drain",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8437,
        help="TCP port; 0 picks a free port and prints it",
    )
    p_serve.add_argument(
        "--machine", default="two-unit-superscalar",
        help="machine preset ({})".format(", ".join(sorted(ALL_PRESETS))),
    )
    p_serve.add_argument("-r", "--registers", type=int, default=None)
    p_serve.add_argument(
        "--pool-size", type=int, default=4, metavar="K",
        help="warm worker count (= max in-flight compiles)",
    )
    p_serve.add_argument(
        "--task-timeout", type=float, default=30.0, metavar="SECONDS",
        help="hard wall-clock limit per attempt; overdue workers are "
        "killed (SIGTERM then SIGKILL)",
    )
    p_serve.add_argument(
        "--max-queue-depth", type=int, default=64, metavar="N",
        help="global bound on admitted-but-unsettled jobs; past it "
        "submits are shed with a typed 503",
    )
    p_serve.add_argument(
        "--per-client-depth", type=int, default=8, metavar="N",
        help="admission tokens per client identity; a client at its "
        "bound is shed with a typed 429",
    )
    p_serve.add_argument(
        "--retries", type=int, default=1, metavar="R",
        help="extra attempts for worker-level failures (timeout, "
        "crash, worker exception)",
    )
    p_serve.add_argument(
        "--backoff", type=float, default=0.05, metavar="SECONDS",
        help="base retry backoff (doubles per retry, with jitter)",
    )
    p_serve.add_argument(
        "--cache", dest="cache", action="store_true", default=None,
        help="serve identical (source, machine, config, version) "
        "compiles from the compile cache; in-memory unless --cache-dir",
    )
    p_serve.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="never consult or populate the compile cache",
    )
    _add_region_cache_flags(p_serve)
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist the compile cache here (implies --cache)",
    )
    p_serve.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append every settled job to this JSONL run ledger; "
        "drain journals queued jobs as resumable 'interrupted' rows",
    )
    p_serve.add_argument(
        "--durable", action="store_true",
        help="journal accepted/dispatched rows to the ledger and "
        "resume unsettled jobs on startup (requires --ledger)",
    )
    p_serve.add_argument(
        "--poison-list", default=None, metavar="PATH",
        help="poison-task list (maintained by the supervisor); "
        "quarantined input digests are refused with HTTP 403",
    )
    p_serve.add_argument(
        "--max-segment-bytes", type=int, default=None, metavar="N",
        help="auto-compact the ledger once its active segment grows "
        "past N bytes (crash-safe swap)",
    )
    p_serve.add_argument(
        "--supervised", action="store_true",
        help="run the server as a supervised child: /healthz watched, "
        "crashes/hangs restarted with backoff and a restart budget, "
        "queued work resumed from the durable ledger (requires "
        "--ledger; implies --durable in the child)",
    )
    p_serve.add_argument(
        "--restart-budget", type=int, default=5, metavar="N",
        help="supervised: unexplained restarts allowed before giving "
        "up (poison-quarantining restarts are free)",
    )
    p_serve.add_argument(
        "--restart-backoff", type=float, default=0.5, metavar="SECONDS",
        help="supervised: base restart delay (doubles per restart)",
    )
    p_serve.add_argument(
        "--hang-timeout", type=float, default=10.0, metavar="SECONDS",
        help="supervised: /healthz silence after which a live server "
        "counts as hung and is killed",
    )
    p_serve.add_argument(
        "--health-interval", type=float, default=0.25, metavar="SECONDS",
        help="supervised: seconds between liveness probes",
    )
    p_serve.add_argument(
        "--poison-threshold", type=int, default=2, metavar="N",
        help="supervised: crashes-in-flight before an input digest is "
        "quarantined",
    )
    p_serve.add_argument(
        "--quiet", action="store_true",
        help="suppress startup/drain banner lines",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=60.0, metavar="SECONDS",
        help="ceiling on waiting for in-flight work during drain",
    )
    p_serve.add_argument(
        "--allow-request-faults", action="store_true",
        help="permit per-request 'faults' specs in /submit bodies "
        "(drill mode; off by default)",
    )
    p_serve.add_argument(
        "--engine",
        choices=("bitset", "reference"),
        default="bitset",
        help="primary dependence engine rung (bitset degrades to "
        "reference)",
    )
    p_serve.add_argument(
        "--backend",
        choices=("auto", "compact", "reference"),
        default="auto",
        help="allocator/scheduler kernel implementation ('auto' "
        "resolves to compact; degrades to reference on failure)",
    )
    p_serve.add_argument("--strict", action="store_true")
    p_serve.add_argument("--paranoid", action="store_true")
    p_serve.add_argument("--optimize", action="store_true")
    p_serve.add_argument("--max-instrs", type=int, default=None, metavar="N")
    p_serve.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="cooperative in-worker budget; per-request deadline_s "
        "tightens it further",
    )
    p_serve.add_argument(
        "--inject-fault", action="append", default=None, metavar="SPEC",
        help="arm a fault point, e.g. 'service.server:crash' (the "
        "request handler) or 'service.worker:hang' (every worker); "
        "also honors $REPRO_FAULTS",
    )
    _add_obs_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_ledger = sub.add_parser(
        "ledger",
        help="inspect a run ledger (crash-consistency audit)",
    )
    ledger_sub = p_ledger.add_subparsers(dest="ledger_command",
                                         required=True)
    p_ledger_check = ledger_sub.add_parser(
        "check",
        help="read-only audit: classify torn tails, malformed "
        "records, duplicate task ids, and non-terminal rows; exits "
        "nonzero on integrity problems",
    )
    p_ledger_check.add_argument("path", help="ledger JSONL path")
    p_ledger_check.add_argument(
        "--json", action="store_true",
        help="emit the audit report as one JSON document",
    )
    p_ledger_check.set_defaults(func=cmd_ledger_check)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a seeded chaos campaign: batch + supervised-serve "
        "workloads under injected process and filesystem faults, "
        "then assert the four durability invariants",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed (same seed replays the same campaign)",
    )
    p_chaos.add_argument(
        "--quick", action="store_true",
        help="CI-smoke sizing (~1 minute) instead of the full soak",
    )
    p_chaos.add_argument(
        "--tasks", type=int, default=8, metavar="N",
        help="fuzz tasks per drill round",
    )
    p_chaos.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="scratch directory (default: a fresh temp dir)",
    )
    p_chaos.add_argument(
        "--keep", action="store_true",
        help="keep the scratch directory for post-mortems",
    )
    p_chaos.add_argument(
        "--json-summary", action="store_true",
        help="emit the campaign summary as one JSON document",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_graph = sub.add_parser("graph", help="emit a DOT graph")
    p_graph.add_argument("file")
    p_graph.add_argument(
        "--kind", choices=("cfg", "gs", "fdg", "ig", "pig"), default="pig"
    )
    p_graph.add_argument("--machine", default="two-unit-superscalar")
    p_graph.add_argument("--ir", action="store_true")
    p_graph.add_argument("-o", "--output", default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_kernels = sub.add_parser("kernels", help="list built-in kernels")
    p_kernels.set_defaults(func=cmd_kernels)

    p_bench = sub.add_parser(
        "bench", help="time the dependence/PIG pipeline on E7 workloads"
    )
    p_bench.add_argument(
        "--sizes", default=None,
        help="comma-separated workload sizes (default: 8,...,256)",
    )
    p_bench.add_argument(
        "--phases", default=None,
        help="comma-separated phase names (default: all)",
    )
    p_bench.add_argument("--machine", default="two-unit-superscalar")
    p_bench.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per phase; the minimum is reported",
    )
    p_bench.add_argument(
        "-o", "--output", default=None, help="write JSON rows to this path"
    )
    _add_obs_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_stats = sub.add_parser(
        "stats",
        help="aggregate a --trace JSONL into per-phase/per-rung tables",
    )
    p_stats.add_argument(
        "trace_file", help="trace written by --trace (JSONL)"
    )
    p_stats.add_argument(
        "--json", action="store_true",
        help="emit the aggregated stats as one JSON document",
    )
    p_stats.add_argument(
        "--check", action="store_true",
        help="exit 1 when any line is invalid or any span is "
        "unbalanced (CI mode)",
    )
    p_stats.add_argument(
        "--expect-top-phase", default=None, metavar="PHASE",
        help="exit 1 unless PHASE holds the largest share of summed "
        "phase wall time (CI guard against perf-profile drift)",
    )
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: library errors become one stderr line + exit 2,
    never a traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("repro: error: {}".format(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout closed early (e.g. piped to head)
        return 0
    finally:
        # Disarm any --inject-fault / $REPRO_FAULTS points so repeated
        # in-process invocations (tests, embedding) start clean.
        from repro.utils import faults

        faults.clear()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
