# Convenience targets for the repro toolchain.

.PHONY: install test bench bench-check bench-batch bench-batch-check bench-incr bench-incr-check bench-backend bench-backend-check bench-serve bench-pytest batch-smoke pool-smoke trace-smoke serve-smoke chaos-smoke ledger-check obs-overhead figures examples ci all clean

install:
	pip install -e . || python setup.py develop

test:
	python -m pytest tests/

# Time the dependence/PIG pipeline (bitset vs retained reference) and
# write BENCH_current.json.  The committed baseline is BENCH_pr1.json.
bench:
	PYTHONPATH=src python tools/bench_run.py -o BENCH_current.json

# Regenerate timings and fail on >20% wall-time regression vs the
# newest committed BENCH_pr*.json with matching rows ('auto').
bench-check: bench
	PYTHONPATH=src python tools/bench_compare.py auto BENCH_current.json

# Time the batch transports (fork-per-task vs warm pool vs compile
# cache).  The committed baseline is BENCH_pr5.json.
bench-batch:
	PYTHONPATH=src python tools/bench_batch.py -o BENCH_batch_current.json

# Machine-independent throughput floors on a fresh run: the warm pool
# must stay >= 2x fork-per-task, the warm cache >= 10x a cold pool,
# and pure sharded-disk hits (fresh instance, empty memory tier)
# >= 5x a cold pool — i.e. PR 8's sharded store does not regress the
# PR 5 warm-cache floor.
bench-batch-check: bench-batch
	PYTHONPATH=src python tools/bench_compare.py none BENCH_batch_current.json \
		--ratio-max batch-fuzz-200:pool_cold/fork_cold=0.5 \
		--ratio-max batch-fuzz-200:pool_warm_cache/pool_cold=0.1 \
		--ratio-max batch-fuzz-200:disk_warm/pool_cold=0.2

# The PR-9 edit-recompile loop: region kernels must replay from the
# cache, so a one-region edit recompiles the region path >= 3x faster
# than a cold sweep (and the end-to-end recompile >= 1.4x — global
# phases bound it lower).  The committed baseline is BENCH_pr9.json.
bench-incr:
	PYTHONPATH=src python tools/bench_incr.py -o BENCH_incr_current.json

bench-incr-check:
	PYTHONPATH=src python tools/bench_incr.py --check \
		-o BENCH_incr_current.json
	PYTHONPATH=src python tools/bench_compare.py none BENCH_incr_current.json \
		--ratio-max incr-diamond-5x48:kernel_incr/kernel_cold=0.3334 \
		--ratio-max incr-diamond-5x48:incr/cold=0.72

# Time the back-end kernels (bitrow interference, worklist coloring,
# array scheduling) against the frozen networkx/dict oracles under
# tests/.  The committed baseline is BENCH_pr10.json.
bench-backend:
	PYTHONPATH=src python tools/bench_backend.py -o BENCH_backend_current.json

# The machine-independent floors on a fresh run (same run, interleaved
# timing): the kernels must stay >= 3x faster than the oracles on the
# interference and coloring phases of the n=2048 block (PR 10), and
# the worklist pinter_color >= 5x faster than its frozen oracle on the
# n=128 block (BENCH_pr14.json).
bench-backend-check:
	PYTHONPATH=src python tools/bench_backend.py --check \
		-o BENCH_backend_current.json
	PYTHONPATH=src python tools/bench_compare.py none BENCH_backend_current.json \
		--ratio-max backend-n2048:interference_compact/interference_reference=0.3334 \
		--ratio-max backend-n2048:color_compact/color_reference=0.3334 \
		--ratio-max pinter-n128:color_pinter/color_pinter_oracle=0.2

# Load-generate the HTTP compilation service (latency, coalescing,
# typed sheds, zero-loss SIGTERM drain) and enforce the robustness
# assertions.  The committed baseline is BENCH_pr7.json.
bench-serve:
	PYTHONPATH=src python tools/bench_serve.py --check \
		-o BENCH_serve_current.json

# The pytest-benchmark microbenchmarks (the old `make bench`).
bench-pytest:
	python -m pytest benchmarks/ --benchmark-only

# End-to-end smoke of the batch compilation service: clean batch,
# resume-with-zero-recompiles, contained worker crashes (exit 3), and
# the invalid-manifest contract (exit 2).
batch-smoke:
	PYTHONPATH=src python tools/batch_smoke.py

# End-to-end smoke of the warm worker pool + compile cache: a 200-task
# fuzz batch compiles cold (with worker recycling), resumes with zero
# recompiles, and replays warm from the on-disk cache.
pool-smoke:
	PYTHONPATH=src python tools/pool_smoke.py

# End-to-end smoke of the observability layer: a traced fuzz batch
# must produce a schema-clean, balanced trace whose `repro stats`
# aggregation carries non-empty per-phase and per-rung rows.
trace-smoke:
	PYTHONPATH=src python tools/trace_smoke.py

# End-to-end smoke of the HTTP compilation service: concurrent burst
# with one injected worker crash (contained, typed failure), a typed
# 429 shed past the per-client bound, and a graceful drain with exit
# code 0, zero orphan workers, and a complete run ledger.
serve-smoke:
	PYTHONPATH=src python tools/serve_smoke.py

# Fixed-seed chaos smoke (~60s): one quick campaign over the full
# drill matrix — every fs fault action, worker crash/hang/poison, a
# SIGKILLed supervised server, poison quarantine, and the cache-vs-
# fresh honesty check — asserting zero orphans, clean ledger audits,
# exactly-once settlement, and cache honesty.
chaos-smoke:
	PYTHONPATH=src python -m repro chaos --quick --seed 1108 --tasks 6

# End-to-end run-ledger audit: a journaled fuzz batch followed by
# `repro ledger check` (read-only crash-consistency audit, exit 1 on
# torn mid-file records, duplicate settlements, or missing terminals).
ledger-check:
	rm -rf .ledger-check && mkdir -p .ledger-check
	PYTHONPATH=src python -m repro batch --fuzz 8 --fuzz-seed 1108 \
		--ledger .ledger-check/run.jsonl --json-summary > /dev/null
	PYTHONPATH=src python -m repro ledger check .ledger-check/run.jsonl
	rm -rf .ledger-check

# Guard the near-zero-overhead claim: the same bench run with the
# metrics registry installed must stay within 5% of the run without.
# At n=256 the production rows (pig_construction, coloring) clear the
# 5 ms --min-wall, so the gate checks the default compile path.
obs-overhead:
	PYTHONPATH=src python -m repro bench --sizes 256 --repeats 5 -o BENCH_obs_off.json > /dev/null
	PYTHONPATH=src python -m repro bench --sizes 256 --repeats 5 --metrics -o BENCH_obs_on.json > /dev/null 2> /dev/null
	PYTHONPATH=src python tools/bench_compare.py BENCH_obs_off.json BENCH_obs_on.json --threshold 0.05 --min-wall 0.005

# Regenerate every paper figure/table with the printed artifacts.
figures:
	python -m pytest benchmarks/ --benchmark-disable -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		python $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

# What the GitHub workflow runs: the tier-1 suite plus compile/bench
# smoke through the hardened driver (clean, paranoid, every ladder
# rung, and the documented failure exit codes).
ci:
	PYTHONPATH=src python -m pytest -x -q
	PYTHONPATH=src python -m repro compile examples/smoke.src
	PYTHONPATH=src python -m repro compile examples/smoke.src --paranoid --strategy all
	PYTHONPATH=src python -m repro compile examples/smoke.src --inject-fault deps.bitset
	PYTHONPATH=src python -m repro compile examples/smoke.src --pig-engine reference
	PYTHONPATH=src python -m repro compile examples/smoke.src --inject-fault core.pinter_color
	PYTHONPATH=src python -m repro compile examples/smoke.src --inject-fault sched.augmented
	PYTHONPATH=src python -m repro compile examples/smoke.src --json-diagnostics > /dev/null
	PYTHONPATH=src python -m repro compile examples/smoke.src --strategy bogus; test $$? -eq 2
	PYTHONPATH=src python -m repro compile examples/smoke.src --max-instrs 1; test $$? -eq 1
	PYTHONPATH=src python -m repro compile examples/smoke.src --inject-fault core.pinter_color --inject-fault regalloc.chaitin; test $$? -eq 1
	PYTHONPATH=src python -m repro bench --sizes 8 --repeats 1 --phases pig_construction
	PYTHONPATH=src python -m repro bench --sizes 0; test $$? -eq 2
	PYTHONPATH=src python tools/batch_smoke.py
	PYTHONPATH=src python tools/pool_smoke.py
	PYTHONPATH=src python tools/trace_smoke.py
	PYTHONPATH=src python tools/serve_smoke.py
	$(MAKE) chaos-smoke
	$(MAKE) ledger-check
	$(MAKE) obs-overhead
	$(MAKE) bench-batch-check
	$(MAKE) bench-incr-check
	$(MAKE) bench-backend-check

all: test bench-check examples

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis *.egg-info src/*.egg-info
	rm -f BENCH_current.json BENCH_obs_off.json BENCH_obs_on.json
	rm -f BENCH_batch_current.json
	rm -f BENCH_serve_current.json BENCH_backend_current.json
	rm -rf .ledger-check
