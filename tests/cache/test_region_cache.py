"""Region-grain cache keys, the machine-fingerprint collision fix, the
determinism of region serialization, and the namespaced store."""

import glob
import json
import os
import subprocess
import sys

import pytest

from repro.cache import (
    CACHE_VERSION,
    CompileCache,
    compile_cache_key,
    machine_fingerprint,
    region_cache_key,
    region_digest,
)
from repro.deps.schedule_graph import region_schedule_graph
from repro.ir.opcodes import Opcode, UnitKind
from repro.machine.model import MachineDescription
from repro.machine.presets import two_unit_superscalar
from repro.pipeline.driver import DriverConfig
from repro.utils import faults
from repro.workloads.generator import (
    RandomBlockConfig,
    diamond_chain,
    random_block,
)


def _custom_machine(**overrides):
    base = dict(
        name="custom",
        units={UnitKind.FIXED: 2, UnitKind.MEMORY: 1, UnitKind.BRANCH: 1},
        issue_width=2,
        num_registers=8,
        latencies={Opcode.MUL: 3},
    )
    base.update(overrides)
    return MachineDescription(**base)


# ----------------------------------------------------------------------
# machine_fingerprint: the headline collision fix
# ----------------------------------------------------------------------


class TestMachineFingerprint:
    def test_preset_name_fast_path_unchanged(self):
        assert machine_fingerprint("rs6000", None) == "rs6000/r=default"
        assert machine_fingerprint("rs6000", 16) == "rs6000/r=16"

    def test_latency_difference_distinguishes(self):
        a = _custom_machine(latencies={Opcode.MUL: 3})
        b = _custom_machine(latencies={Opcode.MUL: 5})
        assert machine_fingerprint(a) != machine_fingerprint(b)

    def test_unit_mix_difference_distinguishes(self):
        a = _custom_machine()
        b = _custom_machine(
            units={UnitKind.FIXED: 4, UnitKind.MEMORY: 1, UnitKind.BRANCH: 1}
        )
        assert machine_fingerprint(a) != machine_fingerprint(b)

    def test_issue_width_difference_distinguishes(self):
        assert machine_fingerprint(
            _custom_machine(issue_width=2)
        ) != machine_fingerprint(_custom_machine(issue_width=4))

    def test_equal_machines_agree(self):
        # MachineDescription compares by identity; the fingerprint
        # must see through that to the wire form.
        assert machine_fingerprint(_custom_machine()) == machine_fingerprint(
            _custom_machine()
        )

    def test_registers_override_still_distinguishes(self):
        m = _custom_machine()
        assert machine_fingerprint(m, 4) != machine_fingerprint(m, 8)

    def test_compile_cache_key_no_collision(self):
        # The original bug end to end: two custom machines differing
        # only in latency used to produce identical compile keys.
        cfg = DriverConfig()
        keys = [
            compile_cache_key(
                name="f", text="x", is_ir=True,
                machine=_custom_machine(latencies={Opcode.MUL: lat}),
                registers=None, config=cfg,
            ).digest()
            for lat in (3, 5)
        ]
        assert keys[0] != keys[1]


# ----------------------------------------------------------------------
# Region keys
# ----------------------------------------------------------------------


def _first_region_sg(fn, machine):
    from repro.analysis.regions import schedule_regions

    region = schedule_regions(fn)[0]
    return region_schedule_graph(fn, region.blocks, machine=machine)


class TestRegionKeys:
    def test_machine_identity_in_region_key(self):
        fn = diamond_chain(num_diamonds=2, block_size=6, seed=0)
        digests = set()
        for machine in (
            _custom_machine(latencies={Opcode.MUL: 3}),
            _custom_machine(latencies={Opcode.MUL: 5}),
            _custom_machine(issue_width=4),
        ):
            sg = _first_region_sg(fn, machine)
            digests.add(
                region_cache_key(sg, machine, "bitset", "cfg").digest()
            )
        assert len(digests) == 3

    def test_engine_and_config_in_region_key(self):
        machine = two_unit_superscalar()
        fn = diamond_chain(num_diamonds=2, block_size=6, seed=0)
        sg = _first_region_sg(fn, machine)
        base = region_cache_key(sg, machine, "bitset", "cfg").digest()
        assert base != region_cache_key(
            sg, machine, "reference", "cfg"
        ).digest()
        assert base != region_cache_key(sg, machine, "bitset", "other").digest()

    def test_region_digest_tracks_edit(self):
        machine = two_unit_superscalar()
        before = diamond_chain(num_diamonds=2, block_size=6, seed=0)
        after = diamond_chain(num_diamonds=2, block_size=6, seed=1)
        assert region_digest(
            _first_region_sg(before, machine)
        ) != region_digest(_first_region_sg(after, machine))

    def test_region_digest_repeatable_in_process(self):
        machine = two_unit_superscalar()
        fn = diamond_chain(num_diamonds=3, block_size=8, seed=2)
        sg = _first_region_sg(fn, machine)
        assert region_digest(sg) == region_digest(sg)


_DIGEST_SCRIPT = """
import json, sys
from repro.analysis.regions import schedule_regions
from repro.cache import region_digest
from repro.deps.schedule_graph import region_schedule_graph
from repro.machine.presets import two_unit_superscalar
from repro.workloads.generator import diamond_chain

fn = diamond_chain(num_diamonds=3, block_size=8, seed=5)
machine = two_unit_superscalar()
digests = [
    region_digest(region_schedule_graph(fn, r.blocks, machine=machine))
    for r in schedule_regions(fn)
]
print(json.dumps(digests))
"""


class TestDeterminismAcrossProcesses:
    def test_region_digests_stable_under_hash_randomization(self):
        # The satellite-2 regression: set/dict iteration order differs
        # between processes under hash randomization, and none of it
        # may leak into the canonical region serialization.
        results = []
        for seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (
                    os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                    env.get("PYTHONPATH"),
                ) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            results.append(json.loads(proc.stdout))
        assert results[0] == results[1]
        assert len(results[0]) >= 4  # a real multi-region workload


# ----------------------------------------------------------------------
# Namespaced store
# ----------------------------------------------------------------------


def _entry():
    return {
        "status": "ok", "exit_code": 0, "failure_kind": None,
        "metrics": None, "report": {"kind": "x"},
    }


def _key(tag="a"):
    return compile_cache_key(
        name=tag, text=tag, is_ir=True, machine="preset",
        registers=None, config=DriverConfig(),
    )


class TestStoreNamespace:
    def test_namespace_roots_under_subdirectory(self, tmp_path):
        cache = CompileCache(directory=str(tmp_path), namespace="region")
        assert cache.put(_key(), _entry())
        top = set(os.listdir(str(tmp_path)))
        assert top == {"region"}

    def test_namespaces_do_not_share_entries(self, tmp_path):
        a = CompileCache(directory=str(tmp_path))
        b = CompileCache(directory=str(tmp_path), namespace="region")
        a.put(_key(), _entry())
        assert b.get(_key()) is None

    def test_recovery_ignores_sibling_namespace(self, tmp_path):
        region = CompileCache(
            directory=str(tmp_path), namespace="region",
            )
        region.put(_key("r"), _entry())
        # A default-namespace cache with a tiny disk budget attaches
        # to the same directory: its recovery walk and its eviction
        # must never touch the region namespace's files.
        default = CompileCache(directory=str(tmp_path), max_disk_entries=1)
        assert default.snapshot()["disk_entries"] == 0
        fresh_region = CompileCache(
            directory=str(tmp_path), namespace="region"
        )
        assert fresh_region.get(_key("r")) is not None

    @pytest.mark.parametrize(
        "bad", ["ab", "0f", "", ".hidden", "a/b", "a" + os.sep + "b"]
    )
    def test_invalid_namespace_rejected(self, tmp_path, bad):
        from repro.utils.errors import InputError

        with pytest.raises(InputError):
            CompileCache(directory=str(tmp_path), namespace=bad)

    def test_version_bump_invalidates_stale_entries(self, tmp_path):
        assert CACHE_VERSION >= 3  # bumped with the fingerprint fix
        cache = CompileCache(directory=str(tmp_path))
        key = _key()
        assert cache.put(key, _entry())
        path = cache._entry_path(key.digest())
        with open(path) as handle:
            document = json.load(handle)
        document["v"] = CACHE_VERSION - 1
        with open(path, "w") as handle:
            json.dump(document, handle)
        stale = CompileCache(directory=str(tmp_path))
        assert stale.get(key) is None


# ----------------------------------------------------------------------
# Fault/degraded honesty at region grain
# ----------------------------------------------------------------------


class TestRegionCacheHonesty:
    def test_fault_armed_process_never_reads_or_writes(self):
        from repro.core.parallel_interference import (
            build_parallel_interference_graph,
        )
        from repro.pipeline.incremental import cached_region_fdg

        machine = two_unit_superscalar()
        fn = diamond_chain(num_diamonds=2, block_size=8, seed=0)
        cache = CompileCache(capacity=64)
        # Warm the cache cleanly first.
        build_parallel_interference_graph(fn, machine, region_cache=cache)
        warm = cache.snapshot()
        assert warm["stores"] > 0
        with faults.inject("sched.augmented"):  # armed, never fired
            build_parallel_interference_graph(
                fn, machine, region_cache=cache
            )
            sg = _first_region_sg(fn, machine)
            cached_region_fdg(sg, machine, cache)
        after = cache.snapshot()
        assert after["stores"] == warm["stores"]
        assert after["hits"] == warm["hits"]
        assert after["misses"] == warm["misses"]

    def test_degraded_result_never_stored(self):
        # The driver consults the region cache only for its primary
        # engine: a ladder fallback (or an explicit reference config)
        # gets no cache at all.
        from repro.machine.presets import two_unit_superscalar
        from repro.pipeline.driver import CompilationDriver

        driver = CompilationDriver(
            two_unit_superscalar(),
            config=DriverConfig(engine="bitset", region_cache=True),
        )
        assert driver._region_cache("bitset") is not None
        assert driver._region_cache("reference") is None
        with faults.inject("phase.pig"):
            assert driver._region_cache("bitset") is None
        reference = CompilationDriver(
            two_unit_superscalar(),
            config=DriverConfig(engine="reference", region_cache=True),
        )
        assert reference._region_cache("reference") is None

    def test_degraded_rung_configs_disable_region_cache(self):
        from repro.service.batch import (
            BatchRunner,
            CIRCUIT_RUNG,
            RECHECK_RUNG,
        )

        runner = BatchRunner(
            machine="two-unit-superscalar",
            driver_config=DriverConfig(engine="bitset", region_cache=True),
            use_pool=False,
        )
        try:
            assert runner.config.region_cache is True
            assert runner._config_for(CIRCUIT_RUNG).region_cache is False
            assert runner._config_for(RECHECK_RUNG).region_cache is False
        finally:
            close = getattr(runner, "close", None)
            if close is not None:
                close()


# ----------------------------------------------------------------------
# Corrupt stored kernels (the region cache reads them back from disk)
# ----------------------------------------------------------------------


def test_hex_rows_round_trip():
    from repro.pipeline.incremental import rows_from_hex, rows_to_hex

    rows = [0, 1, (1 << 64) | 5, (1 << 130) - 1]
    assert rows_from_hex(rows_to_hex(rows)) == rows


def _foreign_kind(report):
    report["kind"] = "interference_region"


def _wrong_n(report):
    report["n"] += 1


def _non_hex_row(report):
    report["ef"][0] = "not-hex"


def _short_rows(report):
    report["reach"] = report["reach"][:-1]


class TestCorruptRegionEntries:
    @pytest.mark.parametrize(
        "corrupt",
        [_foreign_kind, _wrong_n, _non_hex_row, _short_rows],
        ids=["foreign-kind", "wrong-n", "non-hex-row", "short-rows"],
    )
    def test_corrupt_entry_reads_as_miss(self, tmp_path, corrupt):
        from repro.core.parallel_interference import (
            build_parallel_interference_graph,
        )
        from repro.obs import collecting_metrics
        from repro.pipeline.driver import _pig_signature

        machine = two_unit_superscalar()
        # One block: exactly one region, large enough to be cached.
        fn = random_block(RandomBlockConfig(size=24, window=5, seed=3))
        directory = str(tmp_path)
        build_parallel_interference_graph(
            fn, machine, region_cache=CompileCache(directory=directory)
        )
        (path,) = glob.glob(os.path.join(directory, "*", "*", "*.json"))
        with open(path) as handle:
            document = json.load(handle)
        corrupt(document["result"]["report"])
        with open(path, "w") as handle:
            json.dump(document, handle, sort_keys=True)

        with collecting_metrics() as metrics:
            replay = build_parallel_interference_graph(
                fn, machine, region_cache=CompileCache(directory=directory)
            )
        counters = metrics.snapshot()["counters"]
        assert counters.get("cache.region.hit", 0) == 0
        assert counters["cache.region.miss"] == 1
        cold = build_parallel_interference_graph(fn, machine, engine="bitset")
        assert _pig_signature(replay) == _pig_signature(cold)
