"""What the benchmark measures, and why.

This module is the single source of the metric catalogue: ``run.py``
emits exactly these names, and running this file prints the root
``BENCHMARK.json``::

    python3 perfbench/spec.py > BENCHMARK.json

``BENCHMARK.json`` has a fixed key set, so the records it cannot hold —
how each workload loads the system, which end-to-end metric each layer
metric should move, and the predictions — are kept here.

Every run prints every end-to-end metric (``--trace 0``) or every layer
metric (``--trace 1``), whatever the workload, so each metric below is
defined for all four workloads.  A layer metric whose layer does not run
in a workload reads 0 there.  batch-dup and serve-open compile in other
processes, so their compile-layer figures come from a traced in-process
compile of the workload's distinct inputs.

Shares of compile wall quoted below were measured with ``--trace 1`` at
the commit that defined the benchmark.  With nothing contending, a
faster layer saves at most its share, which bounds what a change can
show:

* a coloring speedup raises instrs_per_s on block-pressure by up to ~8x
  (color is 88-89% of compile wall) but on cfg-source by only ~1.2-1.3x
  (18-23%);
* a PIG speedup gives up to ~2x on cfg-source (46-52%) and ~1.07x on
  block-pressure (6-7%);
* serving batch repeats from the cache or by coalescing can raise
  max_rps on batch-dup by up to ~2x (pool.useful_share is 0.5);
  serve-open already gets those cache hits and should not move;
* cache.hit_share on batch-dup reads 0: ``BatchRunner.run`` consults
  the cache only while it builds the initial queue;
* spill-free compiles that still break Theorem 1 show in
  theorem1.violations and driver.degraded_share, mostly on cfg-source.
"""

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: name -> (why, load).  ``why`` goes into BENCHMARK.json; ``load``
#: records the loop type, client count or rates, and the repeat share.
WORKLOADS = {
    "block-pressure": (
        "Pinter coloring under register pressure (r=16, n=64-96 "
        "straight-line blocks): sacrificed false edges and spill rounds; "
        "a coloring speedup shows here",
        "closed loop, one in-process caller of "
        "CompilationDriver.compile_function; 16 random_block inputs "
        "(window 96, load_fraction 0.3) on two-unit-superscalar; no "
        "repeats",
    ),
    "cfg-source": (
        "multi-block Section-3 path with no spills (source_fuzz programs "
        "plus the 8 source_kernels, default r): PIG and Theorem-1 check "
        "dominate; a coloring change should not move it",
        "closed loop, one in-process caller of "
        "CompilationDriver.compile_text; 16 source_fuzz programs (40 "
        "statements, depth 3, 4 inputs) whose IR has 400-800 "
        "instructions, plus the 8 source_kernels; no repeats",
    ),
    "batch-dup": (
        "closed batch through BatchRunner as repro batch --cache --ledger "
        "runs it; half the tasks repeat an earlier one, so queue, pool, "
        "cache and ledger costs show",
        "closed batch of 160 tasks on a 2-worker warm pool, memory "
        "cache, JSONL ledger in a fresh directory per batch; 8-statement "
        "fuzz sources; half the tasks repeat an earlier task's name and "
        "text",
    ),
    "serve-open": (
        "repro serve --cache driven open-loop by wait-mode /submit at "
        "fixed rates; 30% repeats; the only workload for the server, "
        "its session table and its job dispatcher",
        "open loop, at most 2 client connections, pool 2; base rate 20 "
        "rps (>= 400 requests) for the latency figures, then steps of "
        "32 rps for 2 s and 48 rps for 3 s for max_rps; p95 latency "
        "limit 500 ms; 30% of the requests repeat an earlier source",
    ),
}

#: (name, unit, better, bound, definition)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median of 5 set-ups per run: in process, a fresh interpreter's "
     "import, driver construction and one warm-up compile; batch, pool "
     "start until both workers answered; serve, process spawn until the "
     "first /healthz 200"),
    ("instrs_per_s", "1/s", "higher", 0.25,
     "input IR instructions compiled per second of wall, the median over "
     "the run's rounds or batches; in serve-open, answered per second at "
     "the base rate (the offered load while the server keeps up)"),
    ("latency_ms.p50", "ms", "lower", 0.25,
     "median time from when a unit of work was due until all its results "
     "were back: a round of the seed's functions in process, a batch in "
     "batch-dup, one request at the base rate in serve-open"),
    ("latency_ms.p95", "ms", "lower", 0.25,
     "95th percentile of the same times; serve-open has >= 400 samples "
     "at the base rate, a failed or shed request ranking above all"),
    ("max_rps", "1/s", "higher", 0.25,
     "highest rate of results sustained: compiled functions or tasks per "
     "second of the closed loops (median over rounds or batches); in "
     "serve-open the rate answered within the limit at the highest step "
     "whose p95 meets it without a growing backlog"),
    ("cycles", "count", "lower", 0.2,
     "summed schedule makespan of the compiled code over the seed's "
     "distinct inputs"),
    ("peak_rss_mb", "MB", "lower", 0.25,
     "peak resident set of the compiling processes (the benchmark "
     "process, the pool workers, or the server and its workers)"),
    ("ok_share", "share", "higher", 0.01,
     "operations that succeeded with a correct output over operations "
     "attempted (1 - failed_share)"),
]

#: (name, unit, better, layer functions, what it should move)
PER_LAYER = [
    ("frontend.s", "s", "lower",
     "frontend.lower.compile_source, ir.parser.parse_function",
     "instrs_per_s on cfg-source (3-4% of compile wall); IR parsing "
     "only on block-pressure"),
    ("preschedule.s", "s", "lower",
     "sched.prescheduler.preschedule_function",
     "instrs_per_s on cfg-source (8-9% vs 2% on block-pressure)"),
    ("pig.s", "s", "lower",
     "core.parallel_interference.build_parallel_interference_graph",
     "instrs_per_s and latency on cfg-source (46-52% vs 6-7% on "
     "block-pressure)"),
    ("pig.calls", "count", "lower", "same", "one per spill round"),
    ("pig.webs", "count", "lower", "same", "PIG size; pig.s"),
    ("pig.edges", "count", "lower", "same", "PIG size; pig.s, color.s"),
    ("pig.regions", "count", "lower", "same", "scheduling regions built"),
    ("color.s", "s", "lower", "core.coloring.pinter_color",
     "instrs_per_s and latency on block-pressure (88-89% vs 18-23% on "
     "cfg-source)"),
    ("color.calls", "count", "lower", "same", "spill rounds"),
    ("color.sacrificed", "count", "lower", "same (removed_false_edges)",
     "false dependences (theorem1.violations) and cycles"),
    ("color.spilled", "count", "lower", "same", "spill.ops and cycles"),
    ("spill.s", "s", "lower",
     "regalloc.spill.insert_spill_code, make_cost_function",
     "instrs_per_s on block-pressure"),
    ("spill.ops", "count", "lower", "same (stores + reloads)",
     "cycles on block-pressure; the spill operations added, which read "
     "0 on the spill-free workloads and so cannot be end-to-end"),
    ("assign.s", "s", "lower",
     "regalloc.assignment.make_assignment, apply_assignment",
     "instrs_per_s (small everywhere)"),
    ("assign.registers", "count", "lower", "same",
     "nominal direction: at fixed r more registers can be better"),
    ("theorem1.s", "s", "lower", "pipeline.verify.find_false_dependences",
     "instrs_per_s on cfg-source (8%)"),
    ("theorem1.violations", "count", "lower", "same",
     "false dependences left after allocation (cycles); 0 on many "
     "inputs, so not end-to-end"),
    ("schedule.s", "s", "lower",
     "deps.schedule_graph.block_schedule_graph, "
     "deps.false_dependence.false_dependence_graph, "
     "sched.augmented.compact_augmented_schedule as the driver calls them",
     "instrs_per_s on cfg-source (6-7%); its output is cycles"),
    ("schedule.blocks", "count", "lower", "same", "blocks scheduled"),
    ("driver.degraded_share", "share", "lower", "CompileReport.status",
     "a ladder fallback costs instrs_per_s; Theorem-1 warnings show here"),
    ("driver.fallbacks", "count", "lower", "CompileReport diagnostics",
     "ladder rungs taken"),
    ("batch.queue_wait_ms.p50", "ms", "lower",
     "service.batch.BatchRunner.run (run start to dispatch)",
     "max_rps and latency on batch-dup"),
    ("pool.dispatches", "count", "lower", "service.pool.WorkerPool.dispatch",
     "max_rps on batch-dup"),
    ("pool.useful_share", "share", "higher", "distinct inputs / dispatches",
     "max_rps on batch-dup: up to 1/useful_share if repeats were reused"),
    ("pool.roundtrip_ms.p50", "ms", "lower", "WorkerPool.dispatch -> collect",
     "max_rps on batch-dup"),
    ("pool.overhead_ms.p50", "ms", "lower",
     "round trip minus the worker's reported compile time",
     "max_rps on batch-dup"),
    ("cache.hit_share", "share", "higher",
     "cache.store.CompileCache.get/put (batch), /healthz counts (serve)",
     "max_rps on batch-dup, latency_ms.p50 on serve-open"),
    ("cache.get_ms.p50", "ms", "lower", "CompileCache.get",
     "max_rps on batch-dup"),
    ("cache.put_ms.p50", "ms", "lower", "CompileCache.put",
     "max_rps on batch-dup"),
    ("ledger.records", "count", "lower", "service.checkpoint.RunLedger.record",
     "max_rps on batch-dup"),
    ("ledger.record_ms.p50", "ms", "lower", "RunLedger.record",
     "max_rps on batch-dup"),
    ("serve.server_ms.p95", "ms", "lower", "job wait_s",
     "latency_ms.p95 and max_rps on serve-open"),
    ("serve.worker_ms.p50", "ms", "lower", "job duration_s",
     "latency_ms.p50 on serve-open"),
    ("serve.queue_ms.p95", "ms", "lower", "job wait_s - duration_s",
     "latency_ms.p95 and max_rps on serve-open"),
    ("serve.http_ms.p50", "ms", "lower", "client latency - wait_s",
     "latency_ms.p50 on serve-open"),
    ("serve.coalesced_share", "share", "higher", "job documents",
     "latency on serve-open"),
    ("serve.shed_share", "share", "lower", "429/503 answers",
     "ok_share and latency_ms.p95 on serve-open"),
    ("loadgen.lag_ms.p95", "ms", "lower", "the benchmark's generator",
     "benchmark health: how late requests were sent"),
    ("trace.overhead_share", "share", "lower", "traced vs untraced wall",
     "benchmark health"),
    ("trace.coverage_share", "share", "higher",
     "layer self time / compile wall",
     "benchmark health: >= 0.95 on block-pressure and cfg-source"),
]


def per_layer_names():
    return [row[0] for row in PER_LAYER]


def benchmark_json():
    """The root BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, (why, _load) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
