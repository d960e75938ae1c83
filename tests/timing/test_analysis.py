"""The GT3 relative-timing dominance proof."""

import pytest

from repro.errors import TimingError
from repro.timing import DelayModel, relative_arc_dominates
from repro.transforms import LoopParallelism, RemoveDominatedConstraints
from repro.workloads import build_diffeq_cdfg
from repro.workloads.diffeq import N_M1B, N_M2, N_U


@pytest.fixture
def prepared():
    cdfg = build_diffeq_cdfg()
    LoopParallelism().apply(cdfg)
    RemoveDominatedConstraints().apply(cdfg)
    return cdfg


class TestRelativeDominance:
    def test_paper_example(self, prepared):
        candidate = prepared.arc(N_M2, N_U)  # arc 10
        witness = prepared.arc(N_M1B, N_U)  # arc 11
        assert relative_arc_dominates(prepared, candidate, witness)

    def test_not_symmetric(self, prepared):
        candidate = prepared.arc(N_M2, N_U)
        witness = prepared.arc(N_M1B, N_U)
        assert not relative_arc_dominates(prepared, witness, candidate)

    def test_requires_shared_destination(self, prepared):
        left = prepared.arc(N_M2, N_U)
        other = prepared.arc("M1 := U * X1", "A := Y + M1")
        with pytest.raises(TimingError):
            relative_arc_dominates(prepared, left, other)

    def test_delay_sensitivity(self, prepared):
        slow_alu = DelayModel().with_override("ALU1", "+", (50.0, 60.0))
        fast_mul = slow_alu.with_override("MUL1", "*", (0.5, 1.0))
        candidate = prepared.arc(N_M2, N_U)
        witness = prepared.arc(N_M1B, N_U)
        # with a 50-cycle ALU in the witness chain the proof still holds
        assert relative_arc_dominates(prepared, candidate, witness, delays=slow_alu)
        # an (implausibly) slow candidate multiplier breaks it
        slow_m2 = DelayModel().with_override("MUL2", "*", (100.0, 120.0))
        assert not relative_arc_dominates(prepared, candidate, witness, delays=slow_m2)

    def test_backward_arcs_not_provable(self, prepared):
        backward = next(arc for arc in prepared.arcs() if arc.backward)
        same_dst = [
            arc
            for arc in prepared.arcs_to(backward.dst)
            if arc.key != backward.key and not prepared.is_iterate_arc(arc)
        ]
        for witness in same_dst:
            assert not relative_arc_dominates(prepared, backward, witness)
