#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload WORKLOAD --seed N \\
        --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in its own
process, and exits non-zero if any of them failed.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` adds a traced pass and reports the per-layer
metrics instead (see :mod:`perfbench.spec`).  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1
after the result when an operation failed or an output was wrong, and 2
without a result when the checkout's ``src/repro`` cannot be imported.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program():
    """Put the checkout's sources first and refuse any other copy."""
    sys.path.insert(1, SRC)
    try:
        import repro
    except ImportError as exc:
        return "cannot import repro from {}: {}".format(SRC, exc)
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        return "repro was imported from {}, not {}".format(where, SRC)
    return None


def main(argv=None):
    # Import the benchmark as a package from the checkout's root, so
    # none of its modules can shadow a standard-library one.
    sys.path[0] = ROOT
    from perfbench import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in spec.WORKLOADS
        ]
        return max(codes)

    problem = _import_program()
    if problem is not None:
        print("perfbench: " + problem, file=sys.stderr)
        return 2
    from perfbench import batch, common, inproc, serve

    os.makedirs(common.OUT, exist_ok=True)
    runner = {
        "block-pressure": inproc.run,
        "cfg-source": inproc.run,
        "batch-dup": batch.run,
        "serve-open": serve.run,
    }[args.workload]
    metrics, attempted, failed = runner(
        args.workload, args.seed, args.seconds, bool(args.trace))

    rows = spec.PER_LAYER if args.trace else spec.END_TO_END
    units = {row[0]: row[1] for row in rows}
    for name in units:
        print("{:<26} {:>14.6g} {}".format(name, metrics[name], units[name]))
    print(json.dumps(common.result(metrics, units, attempted, failed)))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
