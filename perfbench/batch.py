"""batch-dup: closed batches through ``BatchRunner``.

Each batch is a fresh runner configured as ``repro batch --cache
--ledger`` configures it (warm pool, memory cache, JSONL ledger in a
fresh directory), with 2 workers.  A batch is one unit of work: its
latency is the batch's wall time.  Batches repeat while another one
fits in ``--seconds``.
"""

import os
import shutil
import tempfile
from multiprocessing.connection import wait
from time import perf_counter

from repro.cache import CompileCache
from repro.pipeline.driver import DriverConfig
from repro.service import BatchRunner, CircuitBreaker, RetryPolicy
from repro.service.manifest import CompileTask
from repro.service.pool import WorkerPool
from repro.service.worker import build_payload

from perfbench import common, inproc, inputs, spans

TASKS = 160
WORKERS = 2
REPEAT_SHARE = 0.5
MACHINE = "two-unit-superscalar"


def _config():
    # cmd_batch's DriverConfig with every flag at its default.
    return DriverConfig(engine="bitset", backend="compact")


def _runner(ledger_path):
    return BatchRunner(
        machine=MACHINE,
        driver_config=_config(),
        max_workers=WORKERS,
        task_timeout=30.0,
        retry_policy=RetryPolicy(max_retries=2, base_delay=0.1),
        breaker=CircuitBreaker(),
        ledger_path=ledger_path,
        use_pool=True,
        max_tasks_per_worker=256,
        cache=CompileCache(),
    )


def pool_setup_seconds():
    """Median time from pool start until both workers answered."""
    times = []
    for _ in range(common.SETUP_REPEATS):
        tasks = [CompileTask("setup/{}".format(i), "setup",
                             inputs.WARMUP_SOURCE) for i in range(WORKERS)]
        start = perf_counter()
        with WorkerPool(size=WORKERS) as pool:
            handles = [
                pool.dispatch(task, build_payload(task, MACHINE, None,
                                                  _config()), 60.0)
                for task in tasks
            ]
            for handle in handles:
                wait([handle.waitable], timeout=60.0)
                if pool.collect(handle).kind != "result":
                    raise RuntimeError("pool worker did not answer")
            times.append(perf_counter() - start)
    return common.median(times)


def one_batch(tasks, expected):
    """Run one fresh batch; returns ``(wall, wrong)``."""
    directory = tempfile.mkdtemp(prefix="batch-", dir=common.OUT)
    try:
        runner = _runner(os.path.join(directory, "run.jsonl"))
        start = perf_counter()
        summary = runner.run(tasks)
        wall = perf_counter() - start
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    names = {task.task_id: task.name for task in tasks}
    wrong = sum(
        expected.get(names[rec.task_id]) != (rec.status, rec.metrics)
        for rec in summary.records
    )
    return wall, wrong


def run(workload, seed, seconds, trace):
    sequence, distinct = inputs.with_repeats(workload, seed, TASKS,
                                             REPEAT_SHARE)
    tasks = [
        CompileTask(task_id="t{:04d}".format(i), name=inp.name,
                    text=inp.text)
        for i, inp in enumerate(sequence)
    ]
    setup_s = 0.0 if trace else pool_setup_seconds()

    # The in-process reference every batch result must reproduce.
    driver, ref_wall, keys = inproc.reference(distinct)
    expected = {inp.name: key for inp, key in zip(distinct, keys) if key}

    walls, attempted, failed = [], 0, 0
    started = perf_counter()
    while True:
        wall, wrong = one_batch(tasks, expected)
        walls.append(wall)
        attempted += len(tasks)
        failed += wrong
        if trace or perf_counter() - started + wall > seconds:
            break

    if trace:
        metrics, rec, _ = inproc.traced_compiles(driver, distinct, ref_wall)
        rec.write(common.trace_path(workload + "-compile", seed))
        rec = spans.Recorder()
        with rec.patched(spans.BATCH_TARGETS):
            wall, wrong = one_batch(tasks, expected)
        attempted += len(tasks)
        failed += wrong
        rec.write(common.trace_path(workload, seed))
        samples, counts = rec.samples, rec.counts
        metrics.update({
            "batch.queue_wait_ms.p50": common.median(
                samples["batch.queue_wait_ms"]),
            "pool.dispatches": counts["pool.dispatches"],
            "pool.useful_share": common.share(
                len(distinct), counts["pool.dispatches"]),
            "pool.roundtrip_ms.p50": common.median(
                samples["pool.roundtrip_ms"]),
            "pool.overhead_ms.p50": common.median(
                samples["pool.overhead_ms"]),
            "cache.hit_share": common.share(
                counts["cache.hits"], counts["cache.gets"]),
            "cache.get_ms.p50": common.median(samples["cache.get_ms"]),
            "cache.put_ms.p50": common.median(samples["cache.put_ms"]),
            "ledger.records": counts["ledger.records"],
            "ledger.record_ms.p50": common.median(
                samples["ledger.record_ms"]),
            # The batch's own tracing cost (the compile spans above were
            # taken in process, not in the workers).
            "trace.overhead_share": wall / walls[0] - 1.0,
        })
    else:
        batch_s = common.median(walls)
        metrics = {
            "setup_s": setup_s,
            "instrs_per_s": sum(i.instrs for i in sequence) / batch_s,
            "latency_ms.p50": 1000.0 * batch_s,
            "latency_ms.p95": 1000.0 * common.pct(walls, 95),
            "max_rps": len(tasks) / batch_s,
            "cycles": sum(key[1]["cycles"] for key in keys if key),
            "peak_rss_mb": common.rss_mb(common.resource.RUSAGE_CHILDREN),
            "ok_share": 1.0 - common.share(failed, attempted),
        }
    return metrics, attempted, failed
