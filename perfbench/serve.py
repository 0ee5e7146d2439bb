"""serve-open: a ``repro serve --cache`` subprocess driven open-loop.

Requests are wait-mode ``/submit`` calls sent on a fixed schedule by
one asyncio generator over at most 2 connections; each is timed from
when it was due, so a stall also delays the requests behind it.  The
base rate gives the latency figures; the steps after it give
``max_rps``.  Five set-ups per run time process spawn until the first
``/healthz`` 200; the last server serves the load.
"""

import asyncio
import gc
import http.client
import json
import re
import subprocess
import sys
from time import perf_counter, sleep

from perfbench import common, inproc, inputs

POOL = 2
CONNECTIONS = 2
REPEAT_SHARE = 0.3
#: The base rate keeps both workers under half load.  The steps stay
#: well below the 2-connection capacity (80-100 rps at the commit that
#: defined the benchmark): a step near it passes or fails with machine
#: noise, and a step far above it needs more distinct inputs than the
#: cache's 512 memory entries hold.  So max_rps reads the top step
#: until the service loses about half its capacity.
BASE_RPS = 20
#: (rate, seconds) after the base rate
STEPS = ((32, 2.0), (48, 3.0))
LIMIT_MS = 500.0
#: twice the 200 a p95 needs, so the seed's program mix moves it less
MIN_BASE_REQUESTS = 400
#: where a failed or shed request ranks when percentiles are taken
FAILED_MS = 10 * LIMIT_MS


class Server:
    """One ``repro serve`` process, from spawn to its first healthz."""

    def __init__(self):
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache", "--pool-size", str(POOL)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=common.child_env(), cwd=common.ROOT)
        try:
            banner = self.proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            if match is None:
                raise RuntimeError("no serve banner: {!r}".format(banner))
            self.port = int(match.group(1))
            while self.get("/healthz")[0] != 200:
                sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - start

    def _request(self, method, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=b"{}" if method == "POST"
                         else None)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def get(self, path):
        return self._request("GET", path)

    def peak_rss_mb(self):
        pid = self.proc.pid
        return max([common.hwm_mb(pid)]
                   + [common.hwm_mb(c) for c in common.child_pids(pid)])

    def stop(self):
        """Drain and wait; kill if the drain does not end it."""
        if self.proc.poll() is None:
            try:
                self._request("POST", "/drain")
                self.proc.communicate(timeout=60)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


async def _submit(port, inp):
    body = json.dumps({"name": inp.name, "text": inp.text,
                       "client": "perfbench", "wait": True}).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            b"POST /submit HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body)
        await writer.drain()
        # Read by Content-Length, not to EOF: a pool worker forked while
        # this connection was open keeps a copy of its socket, so the
        # server's close does not end the stream.
        head = await reader.readuntil(b"\r\n\r\n")
        length = re.search(rb"(?i)content-length:\s*(\d+)", head)
        if length is None:
            raise ValueError("response without Content-Length")
        payload = await reader.readexactly(int(length.group(1)))
    finally:
        writer.close()
        await writer.wait_closed()
    return int(head.split(b" ", 2)[1]), json.loads(payload)


async def _drive(port, plan):
    """Send *plan* (``[(due offset s, input)]``) open-loop; returns
    ``[(due, sent, done, status, document)]`` in plan order."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(CONNECTIONS)
    origin = loop.time() + 0.05

    async def one(offset, inp):
        due = origin + offset
        await asyncio.sleep(max(0.0, due - loop.time()))
        async with slots:
            sent = loop.time()
            try:
                status, doc = await _submit(port, inp)
            except (OSError, EOFError, ValueError) as exc:
                # A refused or broken request counts as failed.
                status, doc = 0, {"error": str(exc)}
        return due, sent, loop.time(), status, doc

    return await asyncio.gather(*(one(at, inp) for at, inp in plan))


def _schedule(seconds):
    """``[(rate, count)]``: the base rate, then each step.  Short steps
    keep the distinct inputs within the cache's 512 memory entries."""
    base_s = max(MIN_BASE_REQUESTS / BASE_RPS,
                 seconds - sum(step_s for _, step_s in STEPS))
    return [(BASE_RPS, round(base_s * BASE_RPS))] + [
        (rate, round(step_s * rate)) for rate, step_s in STEPS]


def run(workload, seed, seconds, trace):
    schedule = _schedule(seconds)
    sequence, distinct = inputs.with_repeats(
        workload, seed, sum(count for _, count in schedule), REPEAT_SHARE)

    # The in-process reference every answer must reproduce.
    driver, ref_wall, keys = inproc.reference(distinct)
    expected = {inp.name: key for inp, key in zip(distinct, keys) if key}

    # The generator shares this process with the reference results;
    # keep the collector from pausing it mid-schedule.
    gc.collect()
    gc.freeze()
    setups = []
    for _ in range(1 if trace else common.SETUP_REPEATS - 1):
        server = Server()
        setups.append(server.setup_s)
        server.stop()
    server = Server()
    setups.append(server.setup_s)
    try:
        warm = [inputs.Input("warm{}".format(i), inputs.WARMUP_SOURCE,
                             False, 0) for i in range(2 * POOL)]
        asyncio.run(_drive(server.port, [(0.0, inp) for inp in warm]))
        plan, offset, cursor = [], 0.0, 0
        for rate, count in schedule:
            for i in range(count):
                plan.append((offset + i / rate, sequence[cursor]))
                cursor += 1
            offset += count / rate
        answers = asyncio.run(_drive(server.port, plan))
        health = server.get("/healthz")[1]
        peak_rss = server.peak_rss_mb()
    finally:
        gc.unfreeze()
        server.stop()

    def ok(inp, answer):
        doc = answer[4]
        return answer[3] == 200 and expected.get(inp.name) == (
            doc.get("status"), doc.get("metrics"))

    def wait_ms(inp, answer):
        if not ok(inp, answer):
            return FAILED_MS
        return 1000.0 * (answer[2] - answer[0])

    failed = sum(not ok(inp, a) for (_, inp), a in zip(plan, answers))
    steps, start = [], 0
    for rate, count in schedule:
        items = [inp for _, inp in plan[start:start + count]]
        replies = answers[start:start + count]
        start += count
        waits = [wait_ms(inp, a) for inp, a in zip(items, replies)]
        p95 = common.pct(waits, 95)
        backlog_ms = 1000.0 * (replies[-1][1] - replies[-1][0])
        span = max(a[2] for a in replies) - replies[0][0]
        within = sum(w <= LIMIT_MS for w in waits) / span
        passed = p95 <= LIMIT_MS and backlog_ms <= LIMIT_MS
        steps.append((items, replies, waits, within, passed))
        print("serve-open: {} rps: p95 {:.1f} ms, backlog {:.1f} ms, "
              "{:.1f} rps within the limit: {}".format(
                  rate, p95, backlog_ms, within, "pass" if passed else "fail"))
    passing = [within for _, _, _, within, passed in steps if passed]

    base_items, base, waits, _, _ = steps[0]
    if trace:
        metrics, rec, _ = inproc.traced_compiles(driver, distinct, ref_wall)
        rec.write(common.trace_path(workload, seed))
        docs = [a[4] for a in base if a[3] == 200]
        served = [d for d in docs if not d.get("cached")
                  and not d.get("coalesced")]
        cache = health["dispatcher"]["cache"] or {}
        metrics.update({
            "serve.server_ms.p95": common.pct(
                [1000.0 * d["wait_s"] for d in docs], 95),
            "serve.worker_ms.p50": common.median(
                [1000.0 * d["duration_s"] for d in served]),
            "serve.queue_ms.p95": common.pct(
                [1000.0 * (d["wait_s"] - d["duration_s"]) for d in docs], 95),
            "serve.http_ms.p50": common.median(
                [1000.0 * (a[2] - a[1] - a[4]["wait_s"])
                 for a in base if a[3] == 200]),
            "serve.coalesced_share": common.share(
                sum(bool(d.get("coalesced")) for d in docs), len(base)),
            "serve.shed_share": common.share(
                sum(a[3] in (429, 503) for a in base), len(base)),
            "cache.hit_share": common.share(
                cache.get("hits", 0),
                cache.get("hits", 0) + cache.get("misses", 0)),
            "loadgen.lag_ms.p95": common.pct(
                [1000.0 * (a[1] - a[0]) for a in base], 95),
        })
    else:
        metrics = {
            "setup_s": common.median(setups),
            "instrs_per_s": sum(inp.instrs for inp, a
                                in zip(base_items, base) if ok(inp, a))
            / (max(a[2] for a in base) - base[0][0]),
            "latency_ms.p50": common.median(waits),
            "latency_ms.p95": common.pct(waits, 95),
            # The highest passing step; with none, the best goodput.
            "max_rps": passing[-1] if passing
            else max(step[3] for step in steps),
            "cycles": sum(key[1]["cycles"] for key in keys if key),
            "peak_rss_mb": peak_rss,
            "ok_share": 1.0 - common.share(failed, len(plan)),
        }
    return metrics, len(plan), failed
