"""Tests for the command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
input a, b;
x = a * b + 3;
if (x > a) { y = x - a; } else { y = a - x; }
output y;
"""

IR_TEXT = """
func tiny {
block entry:
  s1 = load @a
  s2 = add s1, s1
live-out: s2
}
"""


@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "prog.src"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture
def ir_file(tmp_path):
    path = tmp_path / "prog.ir"
    path.write_text(IR_TEXT)
    return str(path)


class TestCompileCommand:
    def test_default_strategy(self, src_file, capsys):
        assert main(["compile", src_file]) == 0
        out = capsys.readouterr().out
        assert "strategy=pinter" in out
        assert "false_deps=0" in out
        assert "func" in out

    def test_all_strategies(self, src_file, capsys):
        assert main(["compile", src_file, "--strategy", "all"]) == 0
        out = capsys.readouterr().out
        for name in ("alloc-then-sched", "sched-then-alloc", "pinter",
                     "goodman-hsu-ips"):
            assert "strategy={}".format(name) in out

    def test_ir_input(self, ir_file, capsys):
        assert main(["compile", ir_file, "--ir"]) == 0
        out = capsys.readouterr().out
        assert "registers=" in out

    def test_registers_flag(self, src_file, capsys):
        assert main(["compile", src_file, "-r", "3"]) == 0
        assert "r=3" in capsys.readouterr().out

    def test_optimize_flag(self, src_file, capsys):
        assert main(["compile", src_file, "--optimize"]) == 0
        assert "optimize:" in capsys.readouterr().out

    def test_timeline_flag(self, src_file, capsys):
        assert main(["compile", src_file, "--timeline"]) == 0
        assert "timeline of block" in capsys.readouterr().out

    def test_machine_choice(self, src_file, capsys):
        assert main(["compile", src_file, "--machine", "rs6000"]) == 0
        assert "machine=rs6000" in capsys.readouterr().out

    def test_unknown_machine(self, src_file, capsys):
        assert main(["compile", src_file, "--machine", "cray"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine" in err
        assert "Traceback" not in err

    def test_unknown_strategy(self, src_file, capsys):
        assert main(["compile", src_file, "--strategy", "magic"]) == 2
        err = capsys.readouterr().err
        assert "unknown strategy" in err
        assert "Traceback" not in err

    def test_unknown_strategy_validated_before_running_any(
        self, src_file, capsys
    ):
        # The bad name must be rejected up front — no partial output
        # from the valid strategies listed before it.
        assert main(
            ["compile", src_file, "--strategy", "pinter,ips,magic"]
        ) == 2
        captured = capsys.readouterr()
        assert "strategy=" not in captured.out
        assert "unknown strategy" in captured.err

    def test_comma_separated_strategies(self, src_file, capsys):
        assert main(
            ["compile", src_file, "--strategy", "pinter,alloc-first"]
        ) == 0
        out = capsys.readouterr().out
        assert "strategy=pinter" in out
        assert "strategy=alloc-then-sched" in out

    def test_malformed_source_exits_2_without_traceback(
        self, tmp_path, capsys
    ):
        path = tmp_path / "broken.src"
        path.write_text("garbage %% not a program\n")
        assert main(["compile", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error[parse]" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_ir_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "broken.ir"
        path.write_text("func broken {\nblock entry:\n  xyzzy q, q\n}\n")
        assert main(["compile", str(path), "--ir"]) == 2
        captured = capsys.readouterr()
        assert "error[parse]" in captured.err
        assert "Traceback" not in captured.err


class TestHardenedCompile:
    def test_inject_bitset_fault_degrades_and_succeeds(
        self, src_file, capsys
    ):
        assert main(
            ["compile", src_file, "--inject-fault", "deps.bitset"]
        ) == 0
        captured = capsys.readouterr()
        assert "strategy=pinter" in captured.out
        assert "recovered: reference engine" in captured.err

    def test_strict_mode_fails_on_injected_fault(self, src_file, capsys):
        assert main(
            ["compile", src_file, "--strict",
             "--inject-fault", "deps.bitset"]
        ) == 1
        assert "error[pig]" in capsys.readouterr().err

    def test_paranoid_mode_passes_clean_input(self, src_file, capsys):
        assert main(["compile", src_file, "--paranoid"]) == 0
        assert "strategy=pinter" in capsys.readouterr().out

    def test_max_instrs_budget(self, src_file, capsys):
        assert main(["compile", src_file, "--max-instrs", "1"]) == 1
        assert "instruction budget exceeded" in capsys.readouterr().err

    def test_bad_fault_spec_exits_2(self, src_file, capsys):
        assert main(
            ["compile", src_file, "--inject-fault", "deps.bitset:explode"]
        ) == 2
        assert "unknown fault action" in capsys.readouterr().err

    def test_json_diagnostics(self, src_file, capsys):
        import json

        assert main(
            ["compile", src_file, "--json-diagnostics",
             "--inject-fault", "core.pinter_color"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 0
        strategies = {r["strategy"] for r in payload["reports"]}
        assert "pinter" in strategies
        pinter = next(
            r for r in payload["reports"] if r["strategy"] == "pinter"
        )
        assert pinter["status"] == "degraded"
        assert pinter["metrics"]["false_deps"] == 0
        recoveries = [
            d["recovery"] for d in pinter["diagnostics"] if d["recovery"]
        ]
        assert "chaitin spill fallback" in recoveries

    def test_json_diagnostics_on_malformed_input(self, tmp_path, capsys):
        import json

        path = tmp_path / "broken.src"
        path.write_text("garbage %% not a program\n")
        assert main(["compile", str(path), "--json-diagnostics"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2
        assert payload["reports"][0]["status"] == "failed"
        assert payload["reports"][0]["diagnostics"][0]["phase"] == "parse"


class TestGraphCommand:
    @pytest.mark.parametrize("kind", ["cfg", "gs", "fdg", "ig", "pig"])
    def test_all_kinds(self, src_file, kind, capsys):
        assert main(["graph", src_file, "--kind", kind]) == 0
        out = capsys.readouterr().out
        assert "graph" in out  # digraph or graph header

    def test_output_file(self, src_file, tmp_path, capsys):
        target = str(tmp_path / "out.dot")
        assert main(["graph", src_file, "-o", target]) == 0
        with open(target) as handle:
            assert "graph pig" in handle.read()


class TestKernelsCommand:
    def test_lists_all(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "dot4" in out
        assert "instructions" in out


class TestBenchCommand:
    def test_writes_rows(self, tmp_path, capsys):
        import json

        target = str(tmp_path / "bench.json")
        assert main([
            "bench", "--sizes", "8", "--repeats", "1", "-o", target,
        ]) == 0
        out = capsys.readouterr().out
        assert "pig_construction" in out
        with open(target) as handle:
            rows = json.load(handle)
        assert {(r["workload"], r["phase"]) for r in rows} == {
            ("e7-n8", phase)
            for phase in (
                "pig_construction",
                "pig_construction_reference",
                "closure",
                "closure_reference",
                "coloring",
            )
        }
        for row in rows:
            assert row["n_instrs"] >= 8
            assert row["wall_s"] >= 0
            assert row["peak_kb"] > 0

    def test_phase_subset(self, capsys):
        assert main([
            "bench", "--sizes", "8", "--repeats", "1",
            "--phases", "closure",
        ]) == 0
        out = capsys.readouterr().out
        assert "closure" in out
        assert "pig_construction" not in out

    def test_unknown_phase_exits_2(self, capsys):
        assert main(["bench", "--sizes", "8", "--phases", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown bench" in err
        assert "Traceback" not in err

    def test_non_integer_sizes_exit_2(self, capsys):
        assert main(["bench", "--sizes", "8,abc"]) == 2
        assert "must be integers" in capsys.readouterr().err

    def test_non_positive_sizes_exit_2(self, capsys):
        assert main(["bench", "--sizes", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_bad_repeats_exit_2(self, capsys):
        assert main(["bench", "--sizes", "8", "--repeats", "0"]) == 2
        assert "--repeats must be at least 1" in capsys.readouterr().err


class TestBatchCommand:
    def test_fuzz_batch_exit_zero(self, capsys):
        assert main(["batch", "--fuzz", "2", "--max-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "batch: 2 task(s): 2 ok" in out
        assert "[2/2]" in out

    def test_manifest_batch(self, src_file, tmp_path, capsys):
        manifest = tmp_path / "batch.txt"
        manifest.write_text(src_file + "\n")
        assert main(["batch", str(manifest)]) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_json_summary_shape(self, capsys):
        import json

        assert main(["batch", "--fuzz", "2", "--json-summary"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 0
        assert doc["counts"]["ok"] == 2
        assert {t["status"] for t in doc["tasks"]} == {"ok"}
        assert doc["interrupted"] is False

    def test_worker_crash_fault_exits_3(self, capsys):
        code = main([
            "batch", "--fuzz", "2", "--task-timeout", "10",
            "--retries", "0", "--inject-fault", "service.worker:crash",
        ])
        assert code == 3
        out = capsys.readouterr().out
        assert "2 failed" in out
        assert "crash" in out

    def test_ledger_then_resume(self, tmp_path, capsys):
        ledger = str(tmp_path / "run.jsonl")
        assert main(["batch", "--fuzz", "3", "--ledger", ledger]) == 0
        capsys.readouterr()
        assert main(["batch", "--fuzz", "3", "--resume", ledger]) == 0
        out = capsys.readouterr().out
        assert "3 resumed" in out
        assert "(resumed)" in out

    def test_missing_inputs_exit_2(self, capsys):
        assert main(["batch"]) == 2
        assert "manifest file or --fuzz" in capsys.readouterr().err

    def test_manifest_and_fuzz_conflict_exit_2(self, src_file, capsys):
        assert main(["batch", src_file, "--fuzz", "2"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_invalid_manifest_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "batch.json"
        manifest.write_text('{"tasks": [}')
        assert main(["batch", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_unknown_machine_exit_2(self, capsys):
        assert main(["batch", "--fuzz", "1", "--machine", "cray"]) == 2
        assert "unknown machine" in capsys.readouterr().err

    def test_bad_fault_spec_exit_2(self, capsys):
        code = main([
            "batch", "--fuzz", "1", "--inject-fault", "not.a.point",
        ])
        assert code == 2
        assert "unknown fault point" in capsys.readouterr().err
