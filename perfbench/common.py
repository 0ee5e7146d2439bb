"""Helpers shared by the workload runners."""

import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Run outputs (span files, ledgers, temp files); ignored by git.
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5


def pct(values, q):
    """Percentile *q* (1-99) of *values*, interpolated between the two
    nearest ranks (0.0 if empty)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[q - 1])


def median(values):
    return float(statistics.median(values)) if values else 0.0


def share(part, whole):
    return part / whole if whole else 0.0


def rss_mb(who=resource.RUSAGE_SELF):
    """Peak resident set (MB) of this process or its reaped children."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def hwm_mb(pid):
    """Peak resident set (MB) of a live process, from /proc."""
    try:
        with open("/proc/{}/status".format(pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid):
    try:
        with open("/proc/{0}/task/{0}/children".format(pid)) as handle:
            return [int(p) for p in handle.read().split()]
    except OSError:
        return []


def trace_path(workload, seed):
    return os.path.join(OUT, "spans-{}-{}.jsonl".format(workload, seed))


def child_env():
    """Environment for processes the benchmark starts: the checkout's
    sources first, temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = OUT
    env["PYTHONUNBUFFERED"] = "1"
    return env


#: Set-up of an in-process caller, timed inside a fresh interpreter:
#: import, driver construction and one warm-up compile.
_SETUP_CODE = """
import time
start = time.perf_counter()
from repro.machine.presets import two_unit_superscalar
from repro.pipeline.driver import CompilationDriver
driver = CompilationDriver(two_unit_superscalar(), num_registers={registers})
if not driver.compile_text({text!r}).ok:
    raise SystemExit("warm-up compile failed")
print(time.perf_counter() - start)
"""


def fresh_setup_seconds(registers, text):
    code = _SETUP_CODE.format(registers=registers, text=text)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return median(times)


def result(metrics, units, attempted, failed):
    """The benchmark's last output line."""
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
