"""Pass manager and precedence-preservation checking."""

import pytest

from repro.cdfg import Cdfg
from repro.errors import TransformError, ValidationError
from repro.transforms import (
    MergeAssignmentNodes,
    PassManager,
    RemoveDominatedConstraints,
    Transform,
    TransformReport,
    check_precedence_preserved,
)
from repro.workloads import build_diffeq_cdfg
from repro.workloads.diffeq import N_M1A, N_U


class _BreakOrdering(Transform):
    """Deliberately removes a load-bearing arc (for testing)."""

    name = "break"

    def apply(self, cdfg: Cdfg) -> TransformReport:
        cdfg.remove_arc("M1 := A * B", N_U)
        return TransformReport(self.name, applied=True)


class _DropEnd(Transform):
    """Deliberately leaves the graph without an END node (for testing)."""

    name = "drop-end"

    def apply(self, cdfg: Cdfg) -> TransformReport:
        cdfg.remove_node(cdfg.end.name)
        return TransformReport(self.name, applied=True)


class TestPassManager:
    def test_runs_on_a_copy(self, diffeq):
        manager = PassManager()
        before = diffeq.arc_count()
        result, reports = manager.run(diffeq, [RemoveDominatedConstraints()])
        assert diffeq.arc_count() == before
        assert result.arc_count() < before
        assert len(reports) == 1

    def test_checked_mode_validates(self, diffeq):
        manager = PassManager()
        result, __ = manager.run(diffeq, [RemoveDominatedConstraints(), MergeAssignmentNodes()])
        assert result is not diffeq
        with pytest.raises(ValidationError, match="END"):
            manager.run(diffeq, [_DropEnd()])

    def test_oracle_sees_each_pass_input_and_result(self, diffeq):
        """Pass 1's ``before`` is the caller's graph, pass k's is pass
        k-1's result, and the caller's graph is never mutated."""
        seen = []
        generation, arcs = diffeq.generation, diffeq.arc_count()
        result, __ = PassManager().run(
            diffeq,
            [RemoveDominatedConstraints(), MergeAssignmentNodes()],
            oracle=lambda report, before, after: seen.append((before, after)),
        )
        (first_before, first_after), (second_before, second_after) = seen
        assert first_before is diffeq
        assert second_before is first_after
        assert second_after is result
        assert first_after is not diffeq and second_after is not first_after
        assert (diffeq.generation, diffeq.arc_count()) == (generation, arcs)


class TestPrecedenceChecking:
    def test_gt2_preserves_everything(self, diffeq):
        manager = PassManager()
        after, __ = manager.run(diffeq, [RemoveDominatedConstraints()])
        assert check_precedence_preserved(diffeq, after) == []

    def test_lost_ordering_detected(self, diffeq):
        after = diffeq.copy()
        _BreakOrdering().apply(after)
        missing = check_precedence_preserved(diffeq, after, allow_missing=True)
        assert missing
        assert any(src.startswith("M1 := A * B") for src, __ in missing)

    def test_raises_unless_allowed(self, diffeq):
        after = diffeq.copy()
        _BreakOrdering().apply(after)
        with pytest.raises(TransformError):
            check_precedence_preserved(diffeq, after)

    def test_merged_nodes_resolve(self, diffeq):
        manager = PassManager()
        after, __ = manager.run(diffeq, [MergeAssignmentNodes()])
        assert check_precedence_preserved(diffeq, after) == []

    def test_report_summary_format(self):
        report = TransformReport("GTX", applied=True, removed_arcs=["a"], added_arcs=["b", "c"])
        summary = report.summary()
        assert "GTX" in summary and "-1 arcs" in summary and "+2 arcs" in summary
