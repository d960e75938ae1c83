"""``bench/run.py`` end to end: the metric contract and the output checks."""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench.workloads import WORKLOAD_CLASSES

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(root: Path, *args: str, timeout: float = 170.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=str(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_spec_names_units_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_CLASSES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(WORKLOAD_CLASSES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_short_run_prints_exactly_the_declared_metrics(trace, section):
    started = time.monotonic()
    completed = run_bench(ROOT, "--workload", "sweep_cold", "--seconds", "1", "--trace", trace)
    assert time.monotonic() - started < 60.0
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\s", completed.stdout, re.M)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _copy_checkout(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(ROOT / "bench", target / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")


def test_corrupted_golden_fails_the_run(tmp_path):
    _copy_checkout(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    reports = tmp_path / "tests" / "golden" / "reports"
    shutil.copytree(ROOT / "tests" / "golden" / "reports", reports)
    golden = reports / "explore_diffeq.json"
    golden.write_text(golden.read_text().replace('"channels": 15', '"channels": 16', 1))
    completed = run_bench(tmp_path, "--workload", "sweep_cold", "--seconds", "1")
    assert completed.returncode != 0
    result = result_of(completed)
    assert result["correct"] is False and result["failed"] >= 1
    assert "explore_diffeq.json" in completed.stdout


def test_bench_alone_exits_nonzero_without_a_result(tmp_path):
    _copy_checkout(tmp_path)
    completed = run_bench(tmp_path, "--workload", "sweep_cold", "--seconds", "1", timeout=60.0)
    assert completed.returncode != 0
    assert not any(line.startswith("{") for line in completed.stdout.splitlines())
