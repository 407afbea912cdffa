"""Tests for the command-line driver."""

import glob
import os

import pytest

from repro.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: example programs that terminate and pass the analysis gate
RUNNABLE_EXAMPLES = [
    path for path in sorted(glob.glob(
        os.path.join(REPO, "examples", "programs", "*.cilk")))
    if not os.path.basename(path).startswith(("racy_", "deadlock_"))]


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.tapas"
    path.write_text("""
    func double_all(a: i32*, n: i32) {
      cilk_for (var i: i32 = 0; i < n; i = i + 1) {
        a[i] = a[i] * 2;
      }
    }
    """)
    return str(path)


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.tapas"
    path.write_text("""
    func racy_sum(a: i32*, out: i32*, n: i32) {
      cilk_for (var i: i32 = 0; i < n; i = i + 1) {
        out[0] = out[0] + a[i];
      }
    }
    """)
    return str(path)


class TestCommands:
    def test_compile_prints_ir(self, kernel_file, capsys):
        assert main(["compile", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "detach" in out and "sync" in out

    def test_taskgraph_summary(self, kernel_file, capsys):
        assert main(["taskgraph", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "task graph" in out
        assert "spawns" in out

    def test_taskgraph_dot(self, kernel_file, capsys):
        assert main(["taskgraph", kernel_file, "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_analyze_clean_program(self, kernel_file, capsys):
        assert main(["analyze", kernel_file]) == 0
        assert "clean (no findings)" in capsys.readouterr().out

    def test_analyze_racy_program_fails(self, racy_file, capsys):
        assert main(["analyze", racy_file]) == 1
        out = capsys.readouterr().out
        assert "TAP-RACE-001" in out
        assert "spawn site at line" in out

    def test_analyze_json_format(self, racy_file, capsys):
        import json

        assert main(["analyze", racy_file, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["module"] == "racy"
        assert payload["summary"]["errors"] == 2

    def test_analyze_fail_on_warning(self, kernel_file, tmp_path, capsys):
        # a possible (warning-level) race: symbolic stride the affine
        # model cannot prove disjoint
        path = tmp_path / "warned.tapas"
        path.write_text("""
        func rows(a: i32*, n: i32, m: i32) {
          cilk_for (var i: i32 = 0; i < n; i = i + 1) {
            a[i * m] = i;
          }
        }
        """)
        assert main(["analyze", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path), "--fail-on", "warning"]) == 1
        assert "TAP-RACE-002" in capsys.readouterr().out

    def test_analyze_shipped_example_programs(self, capsys):
        """The examples/programs fixtures behave as advertised: racy_*
        fail the gate, everything else is clean."""
        import glob
        import os

        root = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "examples", "programs")
        programs = sorted(glob.glob(os.path.join(root, "*.cilk")))
        assert programs, "examples/programs/*.cilk fixtures missing"
        for program in programs:
            code = main(["analyze", program, "--fail-on", "error"])
            capsys.readouterr()
            if "racy_" in os.path.basename(program):
                assert code == 1, f"{program} should fail the analyzer"
            else:
                assert code == 0, f"{program} should be race-free"

    def test_emit_chisel(self, kernel_file, capsys):
        assert main(["emit", kernel_file]) == 0
        assert "TaskUnit" in capsys.readouterr().out

    def test_emit_verilog(self, kernel_file, capsys):
        assert main(["emit", kernel_file, "--language", "verilog"]) == 0
        out = capsys.readouterr().out
        assert "module" in out and "endmodule" in out

    def test_estimate(self, kernel_file, capsys):
        assert main(["estimate", kernel_file, "--tiles", "2"]) == 0
        out = capsys.readouterr().out
        assert "Cyclone V" in out and "Arria 10" in out
        assert "ALM breakdown" in out

    def test_run_workload(self, capsys):
        assert main(["run", "saxpy"]) == 0
        out = capsys.readouterr().out
        assert "saxpy: OK" in out

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("matrix_add", "dedup", "mergesort"):
            assert name in out


class TestPredict:
    def test_predict_text(self, kernel_file, capsys):
        assert main(["predict", kernel_file, "--tiles", "2",
                     "--size", "8"]) == 0
        out = capsys.readouterr().out
        assert "predicted cycles for double_all" in out
        assert "ranked bottlenecks" in out
        assert "per-task work model" in out

    def test_predict_json(self, kernel_file, capsys):
        import json

        assert main(["predict", kernel_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["predicted_cycles"] > 0
        assert payload["bottlenecks"]
        assert payload["tiles"] == 1

    def test_predict_out_file(self, kernel_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "prediction.json"
        assert main(["predict", kernel_file, "--out", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["predicted_cycles"] > 0

    def test_predict_unknown_entry(self, kernel_file, capsys):
        assert main(["predict", kernel_file, "--entry", "nope"]) == 1
        assert "no entry function" in capsys.readouterr().err

    def test_predict_is_engine_free(self, kernel_file, capsys,
                                    monkeypatch):
        """predict must never tick a simulation engine."""
        from repro.sim.engine import Simulator

        def boom(self, *args, **kwargs):
            raise AssertionError("predict ran the simulator")

        monkeypatch.setattr(Simulator, "run", boom)
        assert main(["predict", kernel_file]) == 0
        capsys.readouterr()


class TestObservability:
    def test_profile_command(self, kernel_file, capsys):
        assert main(["profile", kernel_file, "--size", "6"]) == 0
        out = capsys.readouterr().out
        assert "Cycle accounting (per component)" in out
        assert "Tile occupancy" in out

    def test_profile_trace_out_is_valid_perfetto_json(self, tmp_path,
                                                      capsys):
        import json

        from repro.obs import validate_chrome_trace

        assert len(RUNNABLE_EXAMPLES) >= 5  # double_all is ``kernel_file``
        trace_path = tmp_path / "trace.json"
        for program in RUNNABLE_EXAMPLES:
            assert main(["profile", program,
                         "--trace-out", str(trace_path)]) == 0, program
            capsys.readouterr()
            document = json.loads(trace_path.read_text())
            assert validate_chrome_trace(document) == [], program
            assert document["traceEvents"], program

    def test_profile_host_report(self, kernel_file, capsys):
        assert main(["profile", kernel_file, "--size", "6", "--host"]) == 0
        out = capsys.readouterr().out
        assert "Host profile:" in out
        assert "Host seconds by component class" in out
        assert "TaskUnit" in out
        assert "engine.schedule" in out
        assert "measured_fraction=" in out
        assert "Toolchain phases (host spans)" in out

    def test_profile_host_stats_json(self, kernel_file, tmp_path, capsys):
        import json

        stats_path = tmp_path / "stats.json"
        assert main(["profile", kernel_file, "--size", "6", "--host",
                     "--stats-json", str(stats_path)]) == 0
        capsys.readouterr()
        record = json.loads(stats_path.read_text())
        profile = record["host_profile"]
        assert profile["schema"] == 3
        assert profile["wall_seconds"] > 0
        assert any(row["class"] == "TaskUnit" for row in profile["classes"])

    def test_profile_host_times_the_compiled_kernel(self, tmp_path, capsys):
        """``profile --host`` profiles the default engine: one row per
        plumbing class and one instance-loop row per task, no fallback."""
        import json

        stats_path = tmp_path / "stats.json"
        program = os.path.join(REPO, "examples", "programs", "fib.cilk")
        assert main(["profile", program, "--host",
                     "--stats-json", str(stats_path)]) == 0
        out = capsys.readouterr().out
        assert "engine=compiled\n" in out and "compiled declined" not in out
        profile = json.loads(stats_path.read_text())["host_profile"]
        assert profile["engine"] == "compiled"
        assert profile["compiled_fallback"] is None
        assert sorted(row["class"] for row in profile["classes"]) == [
            "Cache", "DRAMModel", "DataBox", "Demux", "RoundRobinArbiter",
            "TXUTile[fib]", "TaskUnit"]

    def test_profile_trace_out_carries_host_spans(self, kernel_file,
                                                  tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        assert main(["profile", kernel_file, "--size", "6",
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        document = json.loads(trace_path.read_text())
        events = document["traceEvents"]
        assert any(e["ph"] == "M"
                   and e["args"].get("name") == "host toolchain"
                   for e in events)
        host_names = {e["name"] for e in events
                      if e.get("cat", "").startswith("host:")}
        assert {"elaborate", "simulate"} <= host_names

    def test_profile_invalid_trace_exits_nonzero(self, kernel_file,
                                                 tmp_path, capsys,
                                                 monkeypatch):
        import repro.obs

        monkeypatch.setattr(repro.obs, "validate_chrome_trace",
                            lambda document: ["event 0: missing ph"])
        assert main(["profile", kernel_file, "--size", "6",
                     "--trace-out", str(tmp_path / "trace.json")]) == 1
        assert "missing ph" in capsys.readouterr().err

    def test_run_invalid_trace_exits_nonzero(self, tmp_path, capsys,
                                             monkeypatch):
        import repro.obs

        monkeypatch.setattr(repro.obs, "validate_chrome_trace",
                            lambda document: ["event 0: missing ph"])
        assert main(["run", "fibonacci",
                     "--trace-out", str(tmp_path / "trace.json")]) == 1
        assert "missing ph" in capsys.readouterr().err

    def test_run_stats_json_schema(self, tmp_path, capsys):
        import json

        from repro.reports.benchjson import RECORD_KEYS

        stats_path = tmp_path / "stats.json"
        assert main(["run", "saxpy", "--stats-json", str(stats_path)]) == 0
        capsys.readouterr()
        record = json.loads(stats_path.read_text())
        for key in RECORD_KEYS:
            assert key in record, f"stats json missing {key!r}"
        assert record["workload"] == "saxpy"
        assert record["cycles"] > 0
        assert record["utilization"]
        assert isinstance(record["stalls"], dict)
        # flat host-telemetry keys, and no registry pointer
        assert record["host_seconds"] > 0
        assert record["sim_cycles_per_host_second"] > 0
        assert "history" not in record

    def test_run_trace_out(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        assert main(["run", "fibonacci", "--trace-out", str(trace_path)]) == 0
        assert f"trace written to {trace_path}" in capsys.readouterr().out
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) == []
        assert any(e.get("cat", "").startswith("host:")
                   for e in document["traceEvents"])

    def test_run_check_repro(self, capsys):
        assert main(["run", "saxpy", "--check-repro"]) == 0
        out = capsys.readouterr().out
        assert "reproducible" in out
        assert "observability off and on" in out

    def test_run_profile_flag(self, capsys):
        assert main(["run", "saxpy", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "saxpy: OK" in out
        assert "Cycle accounting (per component)" in out

    def test_sweep_runs_grid_and_caches(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "sweep.json"
        argv = ["sweep", "--workloads", "fibonacci", "--tiles", "1,2",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "2 points" in cold and "0 cache hit(s)" in cold
        document = json.loads(out_path.read_text())
        assert document["schema"] == 5
        assert document["sweep"]["cache_misses"] == 2
        assert all(r["cycles"] > 0 for r in document["records"])
        # document blocks: sweep telemetry, and no registry pointer
        assert document["telemetry"]["point_seconds"]["count"] == 2
        assert document["telemetry"]["workers"]
        assert document["telemetry"]["cache"]["misses"] >= 2
        assert "history" not in document
        # second run: every point served from the cache
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "2 cache hit(s)" in warm
        warm_doc = json.loads(out_path.read_text())
        assert warm_doc["sweep"]["cache_hits"] == 2
        assert [r["cycles"] for r in warm_doc["records"]] == \
            [r["cycles"] for r in document["records"]]

    def test_run_and_sweep_write_only_their_named_outputs(
            self, tmp_path, capsys, monkeypatch):
        """In a user's shell (no REPRO_* variable but the cache root,
        which lives outside the working directory) ``run --stats-json``
        and ``sweep --out`` create exactly the files they are given."""
        for name in [n for n in os.environ
                     if n.startswith("REPRO_") and n != "REPRO_CACHE_DIR"]:
            monkeypatch.delenv(name)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fibonacci", "--stats-json", "out.json"]) == 0
        assert main(["sweep", "--workloads", "fibonacci", "--out",
                     "s.json"]) == 0
        capsys.readouterr()
        created = sorted(str(path.relative_to(tmp_path))
                         for path in tmp_path.rglob("*"))
        assert created == ["out.json", "s.json"]

    def test_sweep_no_cache(self, tmp_path, capsys):
        argv = ["sweep", "--workloads", "saxpy", "--no-cache",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "1 cache hit(s)" not in capsys.readouterr().out

    def test_sweep_static_evaluator(self, capsys):
        assert main(["sweep", "--workloads", "saxpy,matrix_add",
                     "--tiles", "1,4", "--evaluator", "static",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "4 points" in out and "0 error(s)" in out
        assert "static" in out  # engine column reflects the evaluator

    def test_sweep_per_workload_scales(self, capsys):
        assert main(["sweep", "--workloads", "fibonacci,saxpy", "--no-cache",
                     "--scales", "fibonacci=2"]) == 0
        rows = {line.split()[0]: line.split()
                for line in capsys.readouterr().out.splitlines()
                if line.startswith(("fibonacci", "saxpy"))}
        # columns: workload, tiles, engine, scale, ...
        assert rows["fibonacci"][3] == "2" and rows["saxpy"][3] == "1"

    def test_sweep_rejects_unknown_workload(self, capsys):
        assert main(["sweep", "--workloads", "nope"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_sweep_rejects_bad_scales(self, capsys):
        assert main(["sweep", "--workloads", "saxpy",
                     "--scales", "bogus"]) == 1
        assert "bad --scales entry" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--tiles", "1,x"),
                                             ("--scales", "fibonacci=x")])
    def test_sweep_rejects_malformed_numbers(self, flag, value, capsys):
        assert main(["sweep", "--workloads", "fibonacci", "--no-cache",
                     flag, value]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag}: 'x' is not an integer\n"

    @pytest.mark.parametrize("command", ["profile", "predict", "diff"])
    def test_negative_size_is_one_error_line(self, command, kernel_file,
                                             capsys):
        assert main([command, kernel_file, "--size", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --size must be >= 0, got -1\n"
        assert captured.out == ""


class TestDiff:
    def test_three_engine_matrix_agrees(self, kernel_file, capsys):
        assert main(["diff", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "engines agree (dense, event, compiled)" in out

    def test_engine_pair_selection(self, kernel_file, capsys):
        assert main(["diff", kernel_file, "--engines", "dense,compiled"]) == 0
        assert "engines agree (dense, compiled)" in capsys.readouterr().out

    def test_rejects_single_or_unknown_engine(self, kernel_file, capsys):
        assert main(["diff", kernel_file, "--engines", "dense"]) == 1
        assert "--engines needs" in capsys.readouterr().err
        assert main(["diff", kernel_file, "--engines", "dense,magic"]) == 1
        assert "--engines needs" in capsys.readouterr().err

    def test_first_movement_divergence_attribution(self):
        """The divergence reporter names the first cycle two logs
        disagree on, the channels involved, and their drivers."""
        from repro.cli import _first_movement_divergence

        base = [(5, ("a.req",)), (9, ("a.req", "b.resp"))]
        other = [(5, ("a.req",)), (9, ("a.req",)), (11, ("b.resp",))]
        where = _first_movement_divergence(
            base, other, "dense", "compiled", {"b.resp": "unit0"})
        assert where == (9, "b.resp (driven by unit0) moved under "
                            "dense only")
        assert _first_movement_divergence(
            base, list(base), "dense", "compiled", {}) is None

    def test_divergence_reported_with_cycle(self, kernel_file, capsys,
                                            monkeypatch):
        """Force one engine to lie about its movement log and outcome:
        diff must fail and point at the first divergent cycle."""
        from repro.accel import accelerator as accel_mod

        real_run = accel_mod.Accelerator.run

        def crooked_run(self, *args, **kwargs):
            result = real_run(self, *args, **kwargs)
            if self.sim.engine == "compiled":
                log = self.sim._movement_log
                if log:
                    cycle, names = log[-1]
                    log[-1] = (cycle, names + ("phantom.ch",))
                result.cycles += 2
            return result

        monkeypatch.setattr(accel_mod.Accelerator, "run", crooked_run)
        assert main(["diff", kernel_file,
                     "--engines", "dense,compiled"]) == 1
        err = capsys.readouterr().err
        assert "dense vs compiled diverge" in err
        assert "first divergent cycle" in err
        assert "phantom.ch" in err


class TestErrors:
    def test_module_entry_point_sets_the_exit_status(self):
        """``python -m repro`` as a process: ``__main__`` hands ``main``'s
        return value to the shell."""
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH", "")]))
        for argv, status, expected in (
                (["workloads"], 0, "mergesort"),
                (["lint", os.path.join(REPO, "examples", "programs",
                                       "deadlock_ring.cilk")], 1,
                 "TAP-NET-004")):
            done = subprocess.run([sys.executable, "-m", "repro"] + argv,
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == status, done.stderr
            assert expected in done.stdout

    def test_sweep_into_unwritable_cache_is_one_error_line(self, tmp_path,
                                                            capsys):
        root = tmp_path / "occupied"
        root.write_text("", encoding="utf-8")
        assert main(["sweep", "--workloads", "fibonacci", "--tiles", "1",
                     "--cache-dir", str(root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the result cache at "
                              f"{root}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent.tapas"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_source_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.tapas"
        path.write_text("func f( {")
        assert main(["compile", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_workload(self, capsys):
        assert main(["run", "nope"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    @pytest.mark.parametrize("name, data", [
        ("latin1", b"// caf\xe9\nfunc f() -> i32 { return 1; }\n"),
        ("parens", b"func f(a: i32) -> i32 { return " + b"(" * 3000 + b"a"
         + b")" * 3000 + b"; }\n"),
        ("chain", b"func f(a: i32) -> i32 { return a" + b" + a" * 599
         + b"; }\n"),
        ("ifs", b"func f(a: i32) -> i32 { " + b"if (a) { " * 400
         + b"} " * 400 + b"return a; }\n"),
        ("whiles", b"func f(a: i32) -> i32 { " + b"while (a) { " * 400
         + b"} " * 400 + b"return a; }\n"),
        ("blocks", b"func f(a: i32) -> i32 { " + b"{ " * 1000 + b"} " * 1000
         + b"return a; }\n"),
    ])
    def test_malformed_source_is_one_error_line(self, tmp_path, capsys,
                                                name, data):
        """Undecodable bytes, and expressions or statements nested past
        the parser's bound, fail closed: a frontend error, never a
        traceback."""
        path = tmp_path / (name + ".cilk")
        path.write_bytes(data)
        assert main(["compile", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        if name == "latin1":
            assert "byte offset 6" in err

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_run_rejects_a_scale_below_one(self, capsys, scale):
        assert main(["run", "saxpy", "--scale", scale]) == 1
        err = capsys.readouterr().err
        assert err == f"error: saxpy: scale must be at least 1, got {scale}\n"


class TestLint:
    @staticmethod
    def _fixture(name):
        import os

        return os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "examples", "programs",
            name + ".cilk")

    def test_lint_clean_program(self, kernel_file, capsys):
        assert main(["lint", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "double_all" in out or "clean" in out

    def test_lint_deadlock_fixture_fails(self, capsys):
        assert main(["lint", self._fixture("deadlock_ring")]) == 1
        out = capsys.readouterr().out
        assert "TAP-NET-004" in out

    def test_lint_dead_task_fails_on_warning(self, capsys):
        fixture = self._fixture("dead_task")
        assert main(["lint", fixture]) == 0  # dead task is only a warning
        capsys.readouterr()
        assert main(["lint", fixture, "--fail-on", "warning"]) == 1
        assert "TAP-NET-002" in capsys.readouterr().out

    def test_lint_fail_on_note(self, capsys):
        # narrow_sum lints clean of warnings but carries width infos
        fixture = self._fixture("narrow_sum")
        assert main(["lint", fixture]) == 0
        capsys.readouterr()
        assert main(["lint", fixture, "--fail-on", "note"]) == 1
        assert "TAP-WIDTH-002" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        import json

        assert main(["lint", self._fixture("deadlock_ring"),
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] >= 1
        assert any(d["code"] == "TAP-NET-004"
                   for d in payload["diagnostics"])

    def test_lint_queue_depth_override_warns(self, capsys):
        fixture = self._fixture("fib")
        assert main(["lint", fixture, "--queue-depth", "4",
                     "--fail-on", "warning"]) == 1
        assert "TAP-NET-003" in capsys.readouterr().out

    def test_lint_no_netlist(self, kernel_file, capsys):
        assert main(["lint", kernel_file, "--no-netlist"]) == 0

    def test_lint_entry_selects_function(self, capsys):
        # with orphan as the entry, triple_sum becomes the dead task
        assert main(["lint", self._fixture("dead_task"), "--entry",
                     "orphan", "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "triple_sum" in out

    def test_lint_unknown_entry_errors(self, kernel_file, capsys):
        assert main(["lint", kernel_file, "--entry", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_analyze_fail_on_note(self, tmp_path, capsys):
        path = tmp_path / "warned.tapas"
        path.write_text("""
        func rows(a: i32*, n: i32, m: i32) {
          cilk_for (var i: i32 = 0; i < n; i = i + 1) {
            a[i * m] = i;
          }
        }
        """)
        assert main(["analyze", str(path), "--fail-on", "note"]) == 1

    def test_estimate_width_aware(self, capsys):
        fixture = self._fixture("narrow_sum")
        assert main(["estimate", fixture]) == 0
        uniform = capsys.readouterr().out
        assert main(["estimate", fixture, "--width-aware"]) == 0
        aware = capsys.readouterr().out
        assert uniform != aware
