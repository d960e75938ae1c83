"""Metamorphic per-transform oracles: clean runs pass, mutations fail."""

import pytest

from repro.afsm.extract import extract_controllers
from repro.cdfg.arc import Arc, ArcRole, control_tag
from repro.errors import VerificationError
from repro.local_transforms import optimize_local
from repro.local_transforms.base import LocalReport
from repro.transforms import optimize_global
from repro.transforms.base import TransformReport, operation_order_pairs
from repro.transforms.scripts import STANDARD_SEQUENCE
from repro.verify import check_global_flow, make_global_oracle, make_local_oracle
from repro.workloads import build_workload, workload_names


@pytest.mark.parametrize("workload", sorted(workload_names()))
def test_full_flow_passes_under_oracles(workload):
    cdfg = build_workload(workload)
    optimized = optimize_global(cdfg, oracle=make_global_oracle())
    design = extract_controllers(optimized.cdfg, optimized.plan)
    optimize_local(design, oracle=make_local_oracle())


def test_oracle_skips_unapplied_passes(diffeq):
    report = TransformReport("GT1", applied=False)
    # before/after wildly different, but the pass did nothing: no error
    make_global_oracle()(report, diffeq, build_workload("gcd"))


def _ordering_added(before):
    """``before`` plus one arc that genuinely orders two operations."""
    pairs_before = operation_order_pairs(before)
    ops = [node.name for node in before.operation_nodes()]
    for left in ops:
        for right in ops:
            if left == right or before.has_arc(left, right):
                continue
            candidate = before.copy()
            candidate.add_arc(Arc(left, right, frozenset({control_tag()})))
            if operation_order_pairs(candidate) - pairs_before:
                return candidate
    raise AssertionError("no arc adds ordering")


def _arc_removed(cdfg):
    """``cdfg`` minus its first non-scheduling forward arc."""
    after = cdfg.copy()
    removable = next(
        arc
        for arc in after.arcs()
        if not arc.has_role(ArcRole.SCHEDULING) and not arc.backward
    )
    after.remove_arc(removable.src, removable.dst)
    return after


def test_gt1_oracle_rejects_added_ordering(diffeq_optimized):
    """GT1 may only relax the firing order; adding an arc must fail."""
    before = diffeq_optimized.cdfg
    report = TransformReport("GT1", applied=True)
    with pytest.raises(VerificationError, match=r"oracle\[GT1\]"):
        make_global_oracle()(report, before, _ordering_added(before))


def test_gt2_oracle_rejects_any_order_change(diffeq):
    report = TransformReport("GT2", applied=True)
    with pytest.raises(VerificationError, match=r"oracle\[GT2\]"):
        make_global_oracle()(report, diffeq, _arc_removed(diffeq))


def test_gt5_oracle_requires_a_plan(diffeq_optimized):
    report = TransformReport("GT5", applied=True)  # no channel_plan artifact
    cdfg = diffeq_optimized.cdfg
    with pytest.raises(VerificationError, match="no channel plan"):
        make_global_oracle()(report, cdfg, cdfg)


def test_local_oracle_rejects_lost_output_edge(gcd_optimized):
    design = extract_controllers(gcd_optimized.cdfg, gcd_optimized.plan)
    controller = next(iter(design.controllers.values()))
    before = controller.machine
    after = before.copy()
    victim = next(t for t in after.transitions() if t.output_burst.edges)
    dropped = victim.output_burst.edges[0]
    after.set_output_burst(
        victim.uid, victim.output_burst.without_signal(dropped.signal)
    )
    report = LocalReport("LT1", machine=after.name, applied=True)
    with pytest.raises(VerificationError, match=r"oracle\[LT1\]"):
        make_local_oracle()(report, before, after)


def test_local_oracle_allows_lt4_ack_removal(gcd_optimized):
    """LT4's own legitimate effect (dropping ack waits) must pass."""
    design = extract_controllers(gcd_optimized.cdfg, gcd_optimized.plan)
    optimize_local(design, enabled=("LT4",), oracle=make_local_oracle())


# ----------------------------------------------------------------------
# the metamorphic GT oracle is the raising form of the flow obligations
# ----------------------------------------------------------------------
def _flow_order_and_coverage(report, before, after):
    """The first refuted ``order``/plan-coverage detail of the pass's
    flow proof, or None.  Coverage is decided here from the plan
    itself, because the ``occupancy`` obligation also simulates."""
    proof = check_global_flow(report, before, after)
    details = {obligation.name: obligation for obligation in proof.obligations}
    if not details["order"].proved:
        return details["order"].detail
    if report.name == "GT5":
        plan = report.artifacts.get("channel_plan")
        covered = plan is not None and all(
            arc.key in plan.arc_to_channel for arc in after.inter_fu_arcs()
        )
        if not covered:
            assert not details["occupancy"].proved
            return details["occupancy"].detail
    return None


def _oracle_failure(report, before, after):
    try:
        make_global_oracle()(report, before, after)
    except VerificationError as exc:
        return str(exc)
    return None


def _assert_same_verdict(report, before, after):
    expected = _flow_order_and_coverage(report, before, after)
    got = _oracle_failure(report, before, after)
    if expected is None:
        assert got is None
    else:
        assert got == f"oracle[{report.name}]: {expected}"
    return expected


@pytest.mark.parametrize("workload", ["diffeq", "fir", "gcd", "ewf"])
def test_gt_oracle_agrees_with_flow_on_every_pass(workload):
    passes = []
    optimize_global(
        build_workload(workload),
        oracle=lambda report, before, after: passes.append((report, before, after.copy())),
    )
    assert [report.name for report, __, __ in passes] == list(STANDARD_SEQUENCE)
    for report, before, after in passes:
        if report.applied:
            assert _assert_same_verdict(report, before, after) is None


def test_gt_oracle_agrees_with_flow_on_bad_graphs(diffeq, diffeq_optimized):
    before, after = diffeq_optimized.cdfg, _ordering_added(diffeq_optimized.cdfg)
    assert _assert_same_verdict(TransformReport("GT1", applied=True), before, after)

    after = _arc_removed(diffeq)
    assert _assert_same_verdict(TransformReport("GT2", applied=True), diffeq, after)

    cdfg = diffeq_optimized.cdfg
    assert _assert_same_verdict(TransformReport("GT5", applied=True), cdfg, cdfg)
