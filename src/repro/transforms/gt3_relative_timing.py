"""GT3: relative-timing optimization (paper Section 3.3).

Uses bounded-delay timing analysis to delete constraint arcs that can
never be the last to arrive at their destination: the paper's example
removes arc 10 ``(M2 := U * dx, U := U - M1)`` because arc 11
``(M1 := A * B, U := U - M1)`` is enabled only after a chain of three
computations and is therefore always slower.

Safety follows the paper's requirement: "it must be verified that the
removed constraint arc is under no execution path the last to occur."
:func:`repro.timing.analysis.relative_arc_dominates` provides that
proof: a witness arc into the same destination is shown to arrive no
earlier under every assignment of the delay model's ``[min, max]``
intervals, by comparing anchored longest max- and min-delay paths.
Removals are applied one at a time with the proof re-derived in
between, because deleting a constraint lets its destination fire
earlier, which can invalidate a previously-found witness for another
arc.  The flow proof's ``timing-witnesses`` obligation replays the same
sequence through the same function.

Only data/register-allocation arcs are candidates: control and
scheduling arcs carry structural roles (loop entry, FU ordering) that
the timing argument does not cover.
"""

from __future__ import annotations

from typing import Optional

from repro.cdfg.arc import ArcRole
from repro.cdfg.graph import Cdfg
from repro.timing.analysis import relative_arc_dominates
from repro.timing.delays import DelayModel
from repro.transforms.base import Transform, TransformReport


class RelativeTimingOptimization(Transform):
    """GT3: remove provably-never-last constraint arcs."""

    name = "GT3"

    def __init__(self, delays: Optional[DelayModel] = None):
        self.delays = delays or DelayModel()

    def apply(self, cdfg: Cdfg) -> TransformReport:
        report = TransformReport(self.name)
        changed = True
        while changed:
            changed = False
            for arc in sorted(self._candidates(cdfg), key=lambda a: a.key):
                witness = self._find_witness(cdfg, arc)
                if witness is not None:
                    src_node = cdfg.node(arc.src)
                    cdfg.remove_arc(arc.src, arc.dst)
                    report.removed_arcs.append(str(arc))
                    report.record(
                        "timed-arc-removed", str(arc),
                        witness=f"{witness.src} -> {witness.dst}",
                        proof="witness arc provably arrives no earlier "
                        "under the [min, max] delay model",
                        # structured fields for the fault-campaign slack
                        # sweep (repro.resilience): which FU/operators to
                        # stress to test the removal's timing margin
                        src=arc.src,
                        dst=arc.dst,
                        fu=cdfg.fu_of(arc.src),
                        operators=sorted(
                            {
                                statement.operator
                                for statement in src_node.statements
                                if statement.operator is not None
                            }
                        ),
                    )
                    report.note(
                        f"removed never-last arc {arc} "
                        f"(witness: {witness.src} -> {witness.dst})"
                    )
                    changed = True
                    break  # re-derive proofs on the updated graph
        report.applied = bool(report.removed_arcs)
        return report

    def _find_witness(self, cdfg: Cdfg, candidate) -> Optional[object]:
        """An incoming arc of the same destination that provably always
        arrives no earlier than ``candidate``."""
        for witness in sorted(cdfg.arcs_to(candidate.dst), key=lambda a: a.key):
            if witness.key == candidate.key or witness.backward:
                continue
            if cdfg.is_iterate_arc(witness):
                continue
            try:
                if relative_arc_dominates(cdfg, candidate, witness, delays=self.delays):
                    return witness
            except Exception:
                continue
        return None

    @staticmethod
    def _candidates(cdfg: Cdfg):
        for arc in cdfg.forward_arcs():
            roles = arc.roles
            if ArcRole.CONTROL in roles or ArcRole.SCHEDULING in roles:
                continue
            # removing the sole remaining constraint would leave the
            # destination untriggered: never a candidate
            incoming = [
                other for other in cdfg.arcs_to(arc.dst)
                if not other.backward and not cdfg.is_iterate_arc(other)
            ]
            if len(incoming) < 2:
                continue
            yield arc
