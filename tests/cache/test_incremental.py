"""Cold/warm/incremental equivalence of the exploration engine.

The contract under test: the shared-prefix engine, with or without a
persistent cache, produces DesignPoint lists *bit-identical* to the
independent per-point oracle (``tests/per_point.py``) — same metrics,
same conformance stamps, same bottleneck labels, same provenance
counts, same order.
"""

import json

import pytest

from repro.cache import ArtifactCache
from repro.cache.incremental import IncrementalExplorer, assemble_point
from repro.explore import explore_design_space
from repro.sim.seeding import NOMINAL
from repro.sim.token_sim import simulate_tokens
from repro.timing.delays import DelayModel
from repro.workloads import build_diffeq_cdfg, diffeq_reference
from tests.per_point import explore_per_point

GT_SUBSETS = [(), ("GT1",), ("GT1", "GT2"), ("GT2", "GT3"), ("GT1", "GT2", "GT3", "GT4", "GT5")]
LT_SUBSETS = [(), ("LT4", "LT2", "LT1", "LT5")]


def _sweep(cdfg, explore=explore_design_space, **kwargs):
    kwargs.setdefault("global_subsets", GT_SUBSETS)
    kwargs.setdefault("local_subsets", LT_SUBSETS)
    kwargs.setdefault("reference", diffeq_reference())
    return explore(cdfg, **kwargs)


class TestIncrementalEquivalence:
    def test_matches_per_point_path(self, diffeq):
        baseline = _sweep(diffeq, explore=explore_per_point)
        incremental = _sweep(diffeq)
        assert incremental.points == baseline.points

    def test_conformance_and_bottleneck_survive(self, diffeq):
        for point in _sweep(diffeq).points:
            assert point.conformance == "conformant"
            assert point.conformant
            assert point.bottleneck

    def test_non_canonical_subset_order(self, diffeq):
        subsets = [("GT2", "GT1"), ("GT5", "GT3")]
        baseline = _sweep(diffeq, global_subsets=subsets, explore=explore_per_point)
        incremental = _sweep(diffeq, global_subsets=subsets)
        assert incremental.points == baseline.points
        # the *reported* subset keeps the caller's spelling
        assert incremental.points[0].global_transforms == ("GT2", "GT1")

    def test_unknown_transform_rejected(self, diffeq):
        with pytest.raises(KeyError):
            _sweep(diffeq, global_subsets=[("GT9",)])
        with pytest.raises(KeyError):
            _sweep(diffeq, local_subsets=[("LT9",)])

    def test_shares_work_across_grid(self, diffeq):
        result = _sweep(diffeq)
        points = len(GT_SUBSETS) * len(LT_SUBSETS)
        assert len(result.points) == points
        # distinct transform applications <= trie edges < per-point total
        assert result.stats["edges"] <= sum(len(s) for s in GT_SUBSETS)
        assert result.stats["evaluations"] <= points


class TestWarmCache:
    def test_cold_vs_warm_bit_identical(self, diffeq, tmp_path):
        cold = _sweep(diffeq, cache_dir=str(tmp_path / "cache"))
        warm = _sweep(diffeq, cache_dir=str(tmp_path / "cache"))
        assert warm.points == cold.points
        # equality above is field-by-field on frozen dataclasses, so it
        # already covers conformance stamps and bottleneck labels; make
        # the two headline fields explicit anyway
        for a, b in zip(cold.points, warm.points):
            assert a.conformance == b.conformance
            assert a.bottleneck == b.bottleneck
            assert a.makespan == b.makespan

    def test_warm_run_computes_nothing(self, diffeq, tmp_path):
        _sweep(diffeq, cache_dir=str(tmp_path / "cache"))
        warm = _sweep(diffeq, cache_dir=str(tmp_path / "cache"))
        assert warm.stats["evaluations"] == 0
        assert warm.stats["edges"] == 0
        assert warm.stats["cache"]["hits"] > 0
        assert warm.stats["cache"]["misses"] == 0

    def test_warm_evaluate_prefix_reads_the_cache(self, diffeq, tmp_path):
        """The shard runner's per-point entry and the serial sweep share
        one cache path: over a filled cache, every point is a hit."""
        cold = _sweep(diffeq, cache_dir=str(tmp_path / "cache"))
        cache = ArtifactCache(str(tmp_path / "cache"))
        explorer = IncrementalExplorer(
            diffeq,
            golden=simulate_tokens(diffeq, seed=NOMINAL).registers,
            cache=cache,
        )
        points = [
            assemble_point(gt, lt, explorer.evaluate_prefix(gt, lt), golden_checked=True)
            for gt in GT_SUBSETS
            for lt in LT_SUBSETS
        ]
        assert points == cold.points
        assert explorer.evaluations_computed == 0
        assert explorer.edges_applied == 0
        assert cache.stats()["misses"] == 0

    def test_cache_file_round_trips(self, diffeq, tmp_path):
        cold = _sweep(diffeq, cache_dir=str(tmp_path / "cache"))
        path = tmp_path / "cache" / "explore.json"
        assert path.exists()
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["version"] == 1
        assert len(data["entries"]) == cold.stats["cache"]["entries"]

    def test_corrupt_cache_degrades_to_cold(self, diffeq, tmp_path):
        cold = _sweep(diffeq, cache_dir=str(tmp_path / "cache"))
        (tmp_path / "cache" / "explore.json").write_text("{not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt artifact cache"):
            again = _sweep(diffeq, cache_dir=str(tmp_path / "cache"))
        assert again.points == cold.points
        assert again.stats["evaluations"] > 0

    def test_cdfg_mutation_invalidates(self, tmp_path):
        _sweep(build_diffeq_cdfg(), cache_dir=str(tmp_path / "cache"))
        nudged = explore_design_space(
            build_diffeq_cdfg({"x0": 99.0}),
            global_subsets=GT_SUBSETS,
            local_subsets=LT_SUBSETS,
            cache_dir=str(tmp_path / "cache"),
        )
        assert nudged.stats["evaluations"] > 0

    def test_delay_mutation_invalidates(self, diffeq, tmp_path):
        _sweep(diffeq, cache_dir=str(tmp_path / "cache"))
        tweaked = _sweep(
            diffeq,
            delays=DelayModel(overrides={("MUL1", None): (5.0, 7.0)}),
            cache_dir=str(tmp_path / "cache"),
        )
        assert tweaked.stats["evaluations"] > 0

    def test_shared_cache_object(self, diffeq):
        cache = ArtifactCache()  # purely in-process
        cold = _sweep(diffeq, cache=cache)
        warm = _sweep(diffeq, cache=cache)
        assert warm.points == cold.points
        assert warm.stats["evaluations"] == 0
