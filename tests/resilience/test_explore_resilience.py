"""Fault-tolerant serial exploration: bad points, timeouts, interrupts.

Crashed pool workers are the shard runner's concern: see
``tests/cache/test_shards.py::test_killed_pool_worker_rebuilds_and_reports``
and ``::test_persistent_crasher_follows_the_retry_policy``.
"""

import pytest

from repro.cache.store import ArtifactCache
from repro.explore import explore_design_space
from repro.resilience.injection import ConfigFaultInjector
from repro.workloads import build_diffeq_cdfg

SMALL_GTS = [(), ("GT1",), ("GT1", "GT2"), ("GT1", "GT2", "GT3")]
SMALL_LTS = [(), ("LT4", "LT2", "LT1", "LT5")]


class TestInjectedPointFailures:
    def test_raise_injection_fails_exactly_the_targets(self, diffeq):
        injector = ConfigFaultInjector.for_configs([("GT1",), ()])
        result = explore_design_space(
            diffeq,
            global_subsets=SMALL_GTS,
            local_subsets=SMALL_LTS,
            fault_injector=injector,
        )
        assert len(result.points) == len(SMALL_GTS) * len(SMALL_LTS)
        failed = result.failed_points()
        assert sorted(point.global_transforms for point in failed) == [
            (),
            (),
            ("GT1",),
            ("GT1",),
        ]
        assert all("InjectedFault" in point.error for point in failed)

    def test_failed_points_stay_off_the_frontier(self, diffeq):
        injector = ConfigFaultInjector.for_configs([("GT1", "GT2", "GT3")])
        result = explore_design_space(
            diffeq,
            global_subsets=SMALL_GTS,
            local_subsets=SMALL_LTS,
            fault_injector=injector,
        )
        frontier = result.pareto_points()
        assert frontier
        assert all(point.status == "ok" for point in frontier)
        assert result.best("makespan").status == "ok"

    def test_all_points_failed_has_no_best(self, diffeq):
        result = explore_design_space(
            diffeq,
            global_subsets=[()],
            local_subsets=[()],
            fault_injector=ConfigFaultInjector.for_configs([()]),
        )
        assert len(result.failed_points()) == 1
        with pytest.raises(ValueError, match="no successfully evaluated"):
            result.best("makespan")

    def test_point_timeout_becomes_a_failed_point(self, diffeq):
        result = explore_design_space(
            diffeq,
            global_subsets=[(), ("GT1",)],
            local_subsets=[()],
            point_timeout=1e-6,
        )
        assert len(result.points) == 2
        assert all(point.status == "failed" for point in result.points)
        assert all("PointTimeout" in point.error for point in result.points)


class TestFailuresNeverCached:
    def test_warm_run_reattempts_failed_points(self, diffeq, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        injector = ConfigFaultInjector.for_configs([("GT1",)])
        cold = explore_design_space(
            diffeq,
            global_subsets=SMALL_GTS,
            local_subsets=SMALL_LTS,
            cache=cache,
            fault_injector=injector,
        )
        assert len(cold.failed_points()) == 2

        # same cache, injector gone: the crash must not have been
        # memoized, so the formerly-failed points are re-evaluated
        warm_cache = ArtifactCache(str(tmp_path))
        warm = explore_design_space(
            diffeq,
            global_subsets=SMALL_GTS,
            local_subsets=SMALL_LTS,
            cache=warm_cache,
        )
        assert warm.failed_points() == []
        assert len(warm.points) == len(SMALL_GTS) * len(SMALL_LTS)
        assert all(point.conformant for point in warm.points)
        assert warm.stats["evaluations"] > 0  # the failed points re-ran


def _interrupt_gt1_gt2(global_transforms, local_transforms):
    if tuple(global_transforms) == ("GT1", "GT2"):
        raise KeyboardInterrupt


class TestInterruptPreservesPartials:
    def test_serial_interrupt_returns_completed_points(self, diffeq):
        result = explore_design_space(
            diffeq,
            global_subsets=SMALL_GTS,
            local_subsets=SMALL_LTS,
            fault_injector=_interrupt_gt1_gt2,
        )
        assert result.stats["interrupted"] is True
        # payloads run in grid order: everything before the interrupt
        # point completed and is preserved
        assert len(result.points) == 4
        assert all(point.status == "ok" for point in result.points)
