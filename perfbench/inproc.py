"""block-pressure and cfg-source: one in-process caller of the driver.

A round hands the seed's inputs to the default driver (engine
``bitset``, backend ``compact``, no shards, no region cache) one after
another, as one unit of work: its latency is the round's wall time.
Rounds repeat while another one fits in ``--seconds``.
"""

from time import perf_counter

from repro.ir import parser as ir_parser
from repro.machine.presets import two_unit_superscalar
from repro.pipeline.driver import CompilationDriver

from perfbench import common, inputs, spec, spans

_WORKLOADS = {
    "block-pressure": (inputs.block_pressure, inputs.BLOCK_REGISTERS),
    "cfg-source": (inputs.cfg_source, None),
}


def compile_one(driver, inp):
    if inp.is_ir:
        return driver.compile_function(ir_parser.parse_function(inp.text))
    return driver.compile_text(inp.text, name=inp.name)


def one_round(driver, items, rec=None):
    """Compile every input once; returns ``(wall, outcomes)``.  With a
    recorder, each compile is a root span named ``compile``."""
    outcomes = []
    start = perf_counter()
    for inp in items:
        if rec is None:
            outcomes.append(compile_one(driver, inp))
        else:
            with rec.span("compile", op=inp.name):
                outcomes.append(compile_one(driver, inp))
    return perf_counter() - start, outcomes


def outcome_key(outcome):
    if not outcome.ok:
        return (outcome.report.status, None)
    return (outcome.report.status, outcome.result.as_row())


def checked_keys(items, outcomes):
    """Each outcome's ``(status, metrics row)``, or None where the
    compile failed or its output is wrong.  Runs outside any timing."""
    return [
        outcome_key(outcome) if outcome.ok and inp.output_ok(
            outcome.result.allocated_function) else None
        for inp, outcome in zip(items, outcomes)
    ]


def reference(items):
    """Compile *items* in process with the driver a batch or serve
    worker builds by default, and check every output.  Returns the
    untraced wall and each input's expected key (None where wrong)."""
    driver = CompilationDriver(two_unit_superscalar())
    driver.compile_text(inputs.WARMUP_SOURCE)
    wall, outcomes = one_round(driver, items)
    return driver, wall, checked_keys(items, outcomes)


def traced_compiles(driver, items, untraced_wall):
    """One traced pass over *items*: the compile-layer metrics, the
    recorder, and the keys of the outcomes."""
    rec = spans.Recorder()
    with rec.patched(spans.COMPILE_TARGETS):
        wall, outcomes = one_round(driver, items, rec)
    metrics = dict.fromkeys(spec.per_layer_names(), 0.0)
    selfs = rec.self_seconds()
    for layer in spans.COMPILE_LAYERS:
        metrics[layer + ".s"] = selfs.get(layer, 0.0)
    for name, value in rec.counts.items():
        if name in metrics:
            metrics[name] = value
    compile_wall = rec.total_seconds("compile")
    metrics["trace.coverage_share"] = common.share(
        compile_wall - selfs.get("compile", 0.0), compile_wall)
    metrics["trace.overhead_share"] = wall / untraced_wall - 1.0
    metrics["driver.degraded_share"] = common.share(
        sum(o.report.status == "degraded" for o in outcomes), len(outcomes))
    metrics["driver.fallbacks"] = sum(
        1 for o in outcomes for d in o.report.diagnostics if d.recovery)
    return metrics, rec, [outcome_key(o) for o in outcomes]


def mismatches(keys, expected):
    """Outcomes that differ from the checked first round, or whose
    first-round output was wrong."""
    return sum(key != want or want is None
               for key, want in zip(keys, expected))


def run(workload, seed, seconds, trace):
    make_inputs, registers = _WORKLOADS[workload]
    items = make_inputs(seed)
    setup_s = 0.0 if trace else common.fresh_setup_seconds(
        registers, inputs.WARMUP_SOURCE)
    driver = CompilationDriver(two_unit_superscalar(),
                               num_registers=registers)
    driver.compile_text(inputs.WARMUP_SOURCE)

    walls, attempted, failed = [], 0, 0
    expected = None
    started = perf_counter()
    while True:
        wall, outcomes = one_round(driver, items)
        walls.append(wall)
        keys = [outcome_key(outcome) for outcome in outcomes]
        if expected is None:
            # Checked once, outside the timed rounds; later rounds must
            # reproduce the first exactly.
            expected = checked_keys(items, outcomes)
        attempted += len(keys)
        failed += mismatches(keys, expected)
        if trace or perf_counter() - started + wall > seconds:
            break

    if trace:
        metrics, rec, keys = traced_compiles(driver, items, walls[0])
        attempted += len(keys)
        failed += mismatches(keys, expected)
        rec.write(common.trace_path(workload, seed))
        top = max(spans.COMPILE_LAYERS, key=lambda l: metrics[l + ".s"])
        print("{}: top layer {} ({:.0%} of compile wall)".format(
            workload, top, common.share(metrics[top + ".s"],
                                        rec.total_seconds("compile"))))
    else:
        round_s = common.median(walls)
        metrics = {
            "setup_s": setup_s,
            "instrs_per_s": sum(i.instrs for i in items) / round_s,
            "latency_ms.p50": 1000.0 * round_s,
            "latency_ms.p95": 1000.0 * common.pct(walls, 95),
            "max_rps": len(items) / round_s,
            "cycles": sum(key[1]["cycles"] for key in expected if key),
            "peak_rss_mb": common.rss_mb(),
            "ok_share": 1.0 - common.share(failed, attempted),
        }
    return metrics, attempted, failed
