"""End-to-end benchmark of the repro toolchain.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload block-pressure --seed 1 \\
        --seconds 20 --trace 0

The metric catalogue, the workload rationale and the predictions live
in :mod:`perfbench.spec`; ``python3 perfbench/spec.py`` regenerates the
root ``BENCHMARK.json`` from it.
"""
