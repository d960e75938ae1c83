"""Verdicts of ``bench/compare.py``."""

import json

from bench.compare import main, verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_consistent_win_beyond_the_parent_spread_is_improved():
    change = [value * 0.9 for value in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "improved"


def test_too_few_pairs_cannot_improve():
    change = [value * 0.9 for value in PARENT[:5]]
    assert verdict(PARENT[:5], change, "lower", 0.1) == "within bound"


def test_median_worse_than_the_bound_is_regressed():
    change = [value * 1.2 for value in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "regressed"
    assert verdict(PARENT, change, "higher", 0.1) == "improved"


def test_small_change_is_within_bound():
    change = [value * 1.02 for value in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "within bound"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 70.0]
    assert verdict(noisy, [value * 1.02 for value in noisy], "lower", 0.1) == "unresolved"


def test_unbounded_metrics_use_the_pair_rule_both_ways():
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "lower", None) == "regressed"
    assert verdict(PARENT, list(PARENT), "lower", None) == "unresolved"


def test_main_exits_nonzero_on_a_regression(tmp_path, capsys):
    def write(path, scale):
        with open(path, "w") as handle:
            for value in PARENT:
                metrics = {"latency_p90_ms": {"value": value * scale, "unit": "ms"}}
                handle.write(json.dumps({"workload": "sweep_cold", "metrics": metrics}) + "\n")

    write(tmp_path / "a.jsonl", 1.0)
    write(tmp_path / "b.jsonl", 1.5)
    assert main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 1
    assert "regressed" in capsys.readouterr().out
    assert main([str(tmp_path / "a.jsonl"), str(tmp_path / "a.jsonl")]) == 0
