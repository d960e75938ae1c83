"""Design-space exploration module."""

import pytest

from repro.explore import (
    DesignPoint,
    ExplorationResult,
    explore_design_space,
    failed_point,
)
from repro.workloads import build_diffeq_cdfg, diffeq_reference
from tests.per_point import evaluate_point


@pytest.fixture(scope="module")
def sweep(diffeq):
    # a focused sweep to keep test time bounded
    return explore_design_space(
        diffeq,
        global_subsets=[(), ("GT1", "GT2"), ("GT1", "GT2", "GT3", "GT4", "GT5")],
        local_subsets=[(), ("LT4", "LT2", "LT1", "LT5")],
        reference=diffeq_reference(),
    )


class TestEvaluatePoint:
    def test_full_script_point(self, diffeq):
        point = evaluate_point(
            diffeq,
            ("GT1", "GT2", "GT3", "GT4", "GT5"),
            ("LT4", "LT2", "LT1", "LT3", "LT5"),
            reference=diffeq_reference(),
        )
        assert point.channels == 5
        assert point.makespan > 0

    def test_reference_mismatch_raises(self, diffeq):
        with pytest.raises(AssertionError):
            evaluate_point(diffeq, (), (), reference={"X": -123.0})


class TestSweep:
    def test_all_points_evaluated(self, sweep):
        assert len(sweep.points) == 6

    def test_pareto_frontier_nonempty(self, sweep):
        frontier = sweep.pareto_points()
        assert frontier
        for point in frontier:
            assert not any(other.dominates(point) for other in sweep.points)

    def test_full_script_on_channel_frontier(self, sweep):
        best = sweep.best("channels")
        assert best.channels == 5

    def test_best_makespan_has_local_transforms(self, sweep):
        best = sweep.best("makespan")
        assert best.local_transforms  # LTs always help latency here

    def test_unknown_objective(self, sweep):
        with pytest.raises(ValueError):
            sweep.best("beauty")


class TestConformanceStamp:
    def test_sweep_points_are_stamped(self, sweep):
        for point in sweep.points:
            assert point.conformant
            assert point.conformance == "conformant"

    def test_verify_false_leaves_points_unchecked(self, diffeq):
        result = explore_design_space(
            diffeq, global_subsets=[()], local_subsets=[()], verify=False
        )
        assert result.points[0].conformance == "unchecked"
        assert result.points[0].conformant  # unchecked is not a failure

    def test_wrong_golden_marks_point_nonconformant(self, diffeq):
        point = evaluate_point(diffeq, (), (), golden={"x": -1e9})
        assert not point.conformant
        assert point.conformance.startswith("failed: register x")

    def test_matching_golden_marks_point_conformant(self, diffeq):
        point = evaluate_point(diffeq, ("GT1",), (), golden=diffeq_reference())
        assert point.conformant
        assert point.conformance == "conformant"


class TestBestFrontierAgreement:
    """``best()`` must return a frontier point, whatever the mix.

    Regression: with ties on the chosen objective, a plain ``min`` by
    that objective alone can return a point *dominated* by another tie
    member (arrival order decides), so ``best('channels')`` would name
    a design ``pareto_points()`` rejects.  Ties are now broken by the
    full objective vector.
    """

    def mixed(self):
        return ExplorationResult(
            points=[
                # ties best() on channels with its own dominator below
                DesignPoint(("GT1",), (), 2, 50, 55, 100.0),
                DesignPoint(("GT2",), (), 2, 30, 33, 80.0),
                DesignPoint(("GT3",), (), 3, 20, 22, 60.0),
                # zeroed failed point: would win every objective if the
                # status filter dropped out of either method
                failed_point(("GT4",), (), "injected"),
            ]
        )

    def test_best_is_on_the_frontier_for_every_objective(self):
        result = self.mixed()
        frontier = {id(point) for point in result.pareto_points()}
        for objective in ("channels", "states", "makespan"):
            assert id(result.best(objective)) in frontier

    def test_tie_on_objective_resolves_to_the_dominator(self):
        assert self.mixed().best("channels").global_transforms == ("GT2",)

    def test_failed_points_excluded_from_both(self):
        result = self.mixed()
        assert all(p.status == "ok" for p in result.pareto_points())
        assert result.best("makespan").status == "ok"

    def test_all_failed_raises(self):
        result = ExplorationResult(points=[failed_point((), (), "boom")])
        assert result.pareto_points() == []
        with pytest.raises(ValueError):
            result.best("channels")


class TestDominance:
    def test_dominates(self):
        a = DesignPoint((), (), 5, 50, 55, 100.0)
        b = DesignPoint((), (), 6, 60, 66, 120.0)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(a)

    def test_incomparable(self):
        a = DesignPoint((), (), 5, 80, 88, 100.0)
        b = DesignPoint((), (), 6, 50, 55, 100.0)
        assert not a.dominates(b)
        assert not b.dominates(a)
