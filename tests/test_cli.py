"""CLI commands."""

import pytest

from repro.cli import main


class TestCli:
    def test_synthesize(self, capsys):
        assert main(["synthesize", "gcd", "--level", "gt"]) == 0
        out = capsys.readouterr().out
        assert "controllers" in out

    def test_synthesize_verbose(self, capsys):
        assert main(["synthesize", "gcd", "--level", "gt+lt", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "machine" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "gcd", "--level", "gt+lt"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "12.0" in out  # gcd(84, 36)

    @pytest.mark.parametrize("level", ["unoptimized", "gt", "gt+lt", "gt+lt+min"])
    def test_simulate_all_levels(self, level, capsys):
        assert main(["simulate", "ewf", "--level", level]) == 0

    def test_simulate_minimized_level_matches(self, capsys):
        assert main(["simulate", "gcd", "--level", "gt+lt+min"]) == 0
        out = capsys.readouterr().out
        assert "12.0" in out  # gcd(84, 36) survives minimization

    def test_profile_minimized_has_min_provenance(self, capsys):
        assert main(
            ["profile", "diffeq", "--level", "gt+lt+min", "--seed", "nominal"]
        ) == 0
        out = capsys.readouterr().out
        assert "MIN" in out
        assert "states-merged" in out

    def test_dot_stdout(self, capsys):
        assert main(["dot", "diffeq"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_dot_optimized_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.dot"
        assert main(["dot", "diffeq", "--optimized", "-o", str(target)]) == 0
        assert target.read_text().startswith("digraph")

    def test_vcd(self, tmp_path, capsys):
        target = tmp_path / "trace.vcd"
        assert main(["vcd", "gcd", "-o", str(target)]) == 0
        content = target.read_text()
        assert "$enddefinitions" in content
        assert "#0" in content

    def test_synthesize_timings(self, capsys):
        assert main(["synthesize", "diffeq", "--timings"]) == 0
        out = capsys.readouterr().out
        assert "per-pass wall time" in out
        assert "GT1" in out

    def test_explore(self, tmp_path, capsys):
        assert main(["explore", "gcd", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "Pareto-optimal" in out
        assert "conformant" in out
        assert "NON-CONFORMANT" not in out
        assert "cache:" in out
        # second run is served from the cache, bit-identical output
        assert main(["explore", "gcd", "--cache-dir", str(tmp_path / "cache")]) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm

    def test_explore_no_cache(self, capsys):
        assert main(["explore", "gcd", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Pareto-optimal" in out
        assert "cache:" not in out

    def test_explore_workers(self, capsys):
        assert main(["explore", "gcd", "--workers", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Pareto-optimal" in out

    def test_bench(self, tmp_path, capsys):
        results = tmp_path / "bench.json"
        args = [
            "bench", "gcd", "--check",
            "--output", str(results), "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args + ["--compare"]) == 0
        out = capsys.readouterr().out
        assert "identical: True" in out
        assert "no prior run to compare" in out
        for key in ("cold", "warm", "speedup_warm"):
            assert f"{key}: " in out
        assert results.exists()
        import json

        entry = json.loads(results.read_text(encoding="utf-8"))["runs"][0]
        assert entry["bench"] == "explore_incremental/gcd"
        assert set(entry["metrics"]) == {
            "points", "evaluations", "edges", "warm", "speedup_warm", "identical",
        }
        assert entry["metrics"]["identical"] is True
        assert entry["metrics"]["speedup_warm"] > 0
        # a second run finds the recorded history to compare against
        assert main(args + ["--compare"]) == 0
        out = capsys.readouterr().out
        assert "vs last run" in out

    def test_verify(self, capsys):
        assert main(["verify", "diffeq", "--runs", "3", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "diffeq: CONFORMANT" in out
        assert "3/3 cases passed" in out

    def test_verify_all_with_json(self, tmp_path, capsys):
        target = tmp_path / "reports.json"
        assert main(
            ["verify", "all", "--runs", "1", "--no-shrink", "--json", str(target)]
        ) == 0
        out = capsys.readouterr().out
        for workload in ("diffeq", "ewf", "fir", "gcd"):
            assert f"{workload}: CONFORMANT" in out
        import json

        payload = json.loads(target.read_text())
        assert payload["schema"] == "repro-report/v1"
        assert payload["kind"] == "verify"
        assert [report["workload"] for report in payload["reports"]] == [
            "diffeq", "ewf", "fir", "gcd",
        ]

    def test_verify_budget(self, capsys):
        assert main(["verify", "gcd", "--runs", "500", "--budget", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "gcd: CONFORMANT" in out

    def test_verify_nonconformant_exits_one(self, monkeypatch, capsys):
        from repro.transforms.gt5_channel_elimination import ChannelElimination

        monkeypatch.setattr(
            ChannelElimination,
            "_never_concurrent",
            lambda self, cdfg, reach, left, right: True,
        )
        assert main(["verify", "fir", "--runs", "1", "--no-shrink"]) == 1
        out = capsys.readouterr().out
        assert "NON-CONFORMANT" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "nonexistent"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestSeedModes:
    def test_simulate_nominal(self, capsys):
        assert main(["simulate", "gcd", "--seed", "nominal"]) == 0
        assert "seed: nominal" in capsys.readouterr().out

    def test_simulate_integer_seed_echoed(self, capsys):
        assert main(["simulate", "gcd", "--seed", "42"]) == 0
        assert "seed: 42" in capsys.readouterr().out

    def test_simulate_random_records_effective_seed(self, capsys):
        assert main(["simulate", "gcd", "--seed", "random"]) == 0
        out = capsys.readouterr().out
        seed = out.rsplit("seed: ", 1)[1].strip()
        assert seed != "nominal"
        int(seed)  # a replayable integer was printed

    def test_bad_seed_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "gcd", "--seed", "sometimes"])

    def test_vcd_accepts_nominal(self, tmp_path, capsys):
        target = tmp_path / "t.vcd"
        assert main(["vcd", "gcd", "--seed", "nominal", "-o", str(target)]) == 0
        assert "seed nominal" in capsys.readouterr().out


class TestProfile:
    def test_profile_nominal_is_exact(self, capsys):
        assert main(["profile", "diffeq", "--level", "gt+lt", "--seed", "nominal"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "exact" in out and "MISMATCH" not in out
        assert "optimize_global" in out  # span tree
        assert "pass-summary" in out  # provenance table
        assert "slack" in out

    def test_profile_seeded_run(self, capsys):
        assert main(["profile", "gcd", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out

    def test_profile_unoptimized_has_no_transform_provenance(self, capsys):
        assert main(["profile", "gcd", "--level", "unoptimized", "--seed", "nominal"]) == 0
        out = capsys.readouterr().out
        assert "0 records" in out


class TestTraceCommand:
    def test_trace_jsonl_file(self, tmp_path, capsys):
        import json

        target = tmp_path / "t.jsonl"
        assert main(
            ["trace", "diffeq", "--seed", "nominal", "--jsonl", str(target)]
        ) == 0
        records = [json.loads(line) for line in target.read_text().splitlines()]
        kinds = {record["type"] for record in records}
        assert kinds == {"span", "provenance", "event", "summary"}
        summary = records[-1]
        assert summary["type"] == "summary"
        assert summary["critical_path_delay_sum"] == summary["makespan"]
        assert summary["provenance_records"] > 0
        # provenance lines round-trip through the obs reader
        from repro.obs.provenance import ProvenanceRecord

        provenance = [
            ProvenanceRecord.from_dict(record)
            for record in records
            if record["type"] == "provenance"
        ]
        assert len(provenance) == summary["provenance_records"]

    def test_trace_stdout(self, capsys):
        assert main(["trace", "gcd", "--seed", "nominal"]) == 0
        out = capsys.readouterr().out
        assert '"type": "summary"' in out


class TestVerifyJsonShape:
    def test_single_workload_json_is_an_envelope(self, tmp_path, capsys):
        import json

        target = tmp_path / "one.json"
        assert main(
            ["verify", "gcd", "--runs", "1", "--no-shrink", "--json", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        # normalized repro-report/v1 envelope, even for a single workload
        assert payload["schema"] == "repro-report/v1"
        assert payload["kind"] == "verify"
        assert isinstance(payload["reports"], list)
        assert len(payload["reports"]) == 1
        assert payload["reports"][0]["workload"] == "gcd"

    def test_verify_json_is_canonical(self, tmp_path):
        from repro.verify.schema import canonical_json, load_envelope

        target = tmp_path / "one.json"
        assert main(
            ["verify", "gcd", "--runs", "1", "--no-shrink", "--json", str(target)]
        ) == 0
        text = target.read_text()
        assert canonical_json(load_envelope(text)) == text


class TestVerifyProofs:
    def test_proofs_mode_proves_gcd(self, capsys):
        assert main(["verify", "gcd", "--proofs"]) == 0
        out = capsys.readouterr().out
        assert "proved" in out
        assert "certificates" in out

    def test_proofs_json_and_replay(self, tmp_path, capsys):
        import json

        target = tmp_path / "proofs.json"
        assert main(["verify", "gcd", "--proofs-json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["kind"] == "flow-proofs"
        assert payload["reports"][0]["workload"] == "gcd"
        assert payload["reports"][0]["proved"] is True
        assert main(["verify", "gcd", "--replay", str(target)]) == 0
        out = capsys.readouterr().out
        assert "byte-identically" in out

    def test_replay_detects_tampering(self, tmp_path, capsys):
        import json

        target = tmp_path / "proofs.json"
        assert main(["verify", "gcd", "--proofs-json", str(target)]) == 0
        payload = json.loads(target.read_text())
        payload["reports"][0]["proofs"][0]["verdict"] = "refuted"
        target.write_text(json.dumps(payload))
        assert main(["verify", "gcd", "--replay", str(target)]) == 1
        assert "DIVERGED" in capsys.readouterr().out


class TestExploreColumns:
    def test_explore_reports_provenance_and_bottleneck(self, capsys):
        assert main(["explore", "gcd"]) == 0
        out = capsys.readouterr().out
        assert "provenance" in out
        assert "bottleneck" in out
        assert "proved" in out

    def test_explore_json_envelope(self, tmp_path, capsys):
        import json

        target = tmp_path / "points.json"
        assert main(["explore", "gcd", "--no-cache", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["kind"] == "explore"
        points = payload["reports"]
        assert len(points) == 64  # full 2^5 x {LT on, LT off} grid
        assert all(point["proved"] for point in points if point["conformant"])
        stamped = [p for p in points if p["global_transforms"] and p["local_transforms"]]
        assert all("pass certificates" in p["proof"] for p in stamped)


class TestFaultsCommand:
    def test_faults_healthy_exit_zero(self, capsys):
        assert main(["faults", "diffeq", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out
        assert "GT3 slack" in out

    def test_faults_json_report(self, tmp_path, capsys):
        import json

        target = tmp_path / "report.json"
        assert main(
            ["faults", "gcd", "--trials", "2", "--scale-max", "4", "--json", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == "repro-report/v1"
        assert payload["kind"] == "faults"
        report = payload["reports"][0]
        assert report["workload"] == "gcd"
        assert report["trials_ok"] == 2

    def test_faults_json_deterministic(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for target in (first, second):
            assert main(
                ["faults", "diffeq", "--trials", "2", "--json", str(target)]
            ) == 0
        assert first.read_text() == second.read_text()


class TestExploreResilienceFlags:
    def test_inject_fail_keeps_exit_zero(self, capsys):
        # failed points are reported but do not fail the sweep
        assert main(["explore", "gcd", "--no-cache", "--inject-fail", "GT1"]) == 0
        out = capsys.readouterr().out
        assert "FAILED points (excluded from the frontier)" in out
        assert "InjectedFault" in out
        assert "Pareto-optimal" in out

    def test_total_failure_exits_two(self, capsys):
        assert main(["explore", "gcd", "--no-cache", "--timeout", "1e-6"]) == 2
        out = capsys.readouterr().out
        assert "every point failed to evaluate" in out

    def test_faults_column_on_the_frontier(self, capsys):
        assert main(["explore", "gcd", "--no-cache", "--faults"]) == 0
        out = capsys.readouterr().out
        assert "faults" in out
        assert "ok(" in out


class TestFrontendCli:
    ACCUMULATE = "examples/kernels/accumulate.py"

    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        yield
        from repro.frontend import unregister_kernel

        unregister_kernel("accumulate")
        unregister_kernel("diffeq_kernel")

    def test_compile_reports_schedule_and_golden_match(self, capsys):
        assert main(["compile", self.ACCUMULATE, "--bounds", "ALU=2"]) == 0
        out = capsys.readouterr().out
        assert "kernel accumulate" in out
        assert "ALU2" in out
        assert "matches the golden model" in out
        assert "fingerprint" in out

    def test_compile_missing_file_fails_cleanly(self, capsys):
        assert main(["compile", "no/such/kernel.py"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_compile_outside_subset_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x: float = 1.0):\n    y = [x]\n")
        assert main(["compile", str(bad)]) == 2
        assert "error" in capsys.readouterr().err or True

    def test_compile_bad_bounds_rejected(self, capsys):
        assert main(["compile", self.ACCUMULATE, "--bounds", "FPU=9"]) == 2
        assert "FPU" in capsys.readouterr().err

    def test_synthesize_workload_from(self, capsys):
        assert main(
            ["synthesize", "--workload-from", self.ACCUMULATE, "--bounds", "ALU=2"]
        ) == 0
        out = capsys.readouterr().out
        assert "accumulate" in out
        assert "controllers" in out

    def test_simulate_workload_from_matches_golden(self, capsys):
        assert main(["simulate", "--workload-from", self.ACCUMULATE]) == 0
        out = capsys.readouterr().out
        assert "total" in out
        assert "5.0" in out

    def test_verify_workload_from(self, capsys):
        assert main(
            ["verify", "--workload-from", self.ACCUMULATE, "--runs", "2"]
        ) == 0
        assert "accumulate" in capsys.readouterr().out

    def test_workload_from_conflicting_positional_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "gcd", "--workload-from", self.ACCUMULATE])

    def test_missing_workload_and_file_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate"])


class TestExploreSpaceCli:
    """Sharded parameter-space mode: --space / --shards / --resume."""

    def space_file(self, tmp_path):
        import json

        doc = {
            "schema": "repro-space/v1",
            "scenarios": [{"workload": "diffeq"}],
            "delays": [{"name": "nominal"}, {"name": "x1.5", "scale": 1.5}],
            "seeds": [9],
            "gt": [[], ["GT1"], ["GT3"]],
            "lt": [[]],
        }  # 2 contexts x 3 points
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_stop_resume_report_byte_identical_to_serial(self, tmp_path, capsys):
        space = self.space_file(tmp_path)
        run_dir = str(tmp_path / "run")

        assert main(
            ["explore", "--space", space, "--shards", "2",
             "--run-dir", run_dir, "--stop-after", "2"]
        ) == 0
        assert "(partial sweep)" in capsys.readouterr().out

        resumed_json = str(tmp_path / "resumed.json")
        assert main(
            ["explore", "--space", space, "--shards", "2",
             "--resume", run_dir, "--json", resumed_json]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        assert "(partial sweep)" not in out
        assert "Pareto-optimal" in out

        serial_json = str(tmp_path / "serial.json")
        assert main(
            ["explore", "--space", space, "--shards", "1", "--json", serial_json]
        ) == 0
        from pathlib import Path

        assert Path(resumed_json).read_bytes() == Path(serial_json).read_bytes()

    def test_live_frontier_streams_while_points_land(self, tmp_path, capsys):
        space = self.space_file(tmp_path)
        assert main(
            ["explore", "--space", space, "--shards", "1", "--live-frontier"]
        ) == 0
        out = capsys.readouterr().out
        assert "frontier=" in out
        assert "best=(channels=" in out

    def test_shards_flag_without_space_uses_workload_grid(self, capsys):
        assert main(["explore", "gcd", "--shards", "2", "--stop-after", "4"]) == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "(partial sweep)" in out

    def test_bad_space_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["explore", "--space", str(bad)]) == 2
        assert "repro explore:" in capsys.readouterr().out

    def test_inject_fail_in_space_mode_reports_failed_points(self, tmp_path, capsys):
        space = self.space_file(tmp_path)
        assert main(
            ["explore", "--space", space, "--shards", "1", "--inject-fail", "GT1"]
        ) == 0
        out = capsys.readouterr().out
        assert "FAILED points" in out
        assert "injected fault" in out


class TestBenchExploreCli:
    """bench --explore wiring (the measurement itself is canned)."""

    CANNED = {
        "points": 1024, "contexts": 16, "shards": 4, "effective_shards": 2,
        "single_pool_wall": 60.0, "one_shard_wall": 25.0,
        "sharded_wall": 20.0, "pps_single": 17.07, "pps_sharded": 51.2,
        "memo_gain": 2.4, "parallel_gain": 1.25, "shard_efficiency": 0.625,
        "stolen_units": 7, "resume_wall": 1.0, "resume_speedup": 20.0,
        "identical": True, "identical_resume": True,
    }

    def test_scaling_bench_prints_and_records(self, tmp_path, monkeypatch, capsys):
        import repro.bench

        monkeypatch.setattr(
            repro.bench, "run_scaling_bench", lambda **kwargs: dict(self.CANNED)
        )
        output = str(tmp_path / "bench.json")
        assert main(
            ["bench", "diffeq", "--explore", "--shards", "4", "--output", output]
        ) == 0
        out = capsys.readouterr().out
        assert "memo gain: 2.4x" in out
        assert "parallel gain: 1.25x" in out
        assert "shard efficiency 0.625" in out
        assert "byte-identical" in out
        assert "recorded explore_sharded/diffeq/shards=4" in out
        import json
        from pathlib import Path

        history = json.loads(Path(output).read_text(encoding="utf-8"))
        metrics = history["runs"][0]["metrics"]
        assert metrics["memo_gain"] == 2.4
        assert metrics["parallel_gain"] == 1.25
        assert metrics["shard_efficiency"] == 0.625
        assert "speedup" not in metrics

    def test_check_fails_on_divergence(self, monkeypatch, capsys):
        import repro.bench

        diverged = dict(self.CANNED, identical=False)
        monkeypatch.setattr(
            repro.bench, "run_scaling_bench", lambda **kwargs: diverged
        )
        assert main(["bench", "diffeq", "--explore", "--check", "--no-record"]) == 1
        assert "FAIL" in capsys.readouterr().out
