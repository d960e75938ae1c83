"""Canonical local-transformation script.

Order matters: LT4 first removes the acknowledgment waits (enabling
folding), LT2 packs reset phases into late bursts, LT1 hoists the
global dones to the latch burst, LT3 pre-selects the next fragment's
muxes, and LT5 finally merges wires that now switch identically.
Machines are folded and re-validated after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.afsm.extract import Controller, DistributedDesign
from repro.obs.provenance import ProvenanceRecord, write_jsonl
from repro.obs.spans import span
from repro.afsm.machine import BurstModeMachine
from repro.afsm.signals import SignalKind
from repro.afsm.validate import check_machine
from repro.local_transforms.base import LocalReport, LocalTransform
from repro.local_transforms.lt1_move_up import MoveUp
from repro.local_transforms.lt2_move_down import MoveDown
from repro.local_transforms.lt3_mux_preselection import MuxPreselection
from repro.local_transforms.lt4_remove_acks import RemoveAcknowledgments
from repro.local_transforms.lt5_signal_sharing import SignalSharing

#: canonical application order
STANDARD_LOCAL_SEQUENCE = ("LT4", "LT2", "LT1", "LT3", "LT5")


@dataclass
class LocalOptimizationResult:
    """A locally-optimized design plus per-machine reports."""

    design: DistributedDesign
    reports: List[LocalReport] = field(default_factory=list)

    def reports_for(self, fu: str) -> List[LocalReport]:
        return [report for report in self.reports if report.machine == fu]

    @property
    def provenance(self) -> List[ProvenanceRecord]:
        """Every pass's provenance records, in application order."""
        return [entry for report in self.reports for entry in report.provenance]

    def export_provenance(self, target) -> int:
        """Write the provenance as JSONL to a path or stream."""
        return write_jsonl(self.provenance, target)


def build_local_sequence(enabled: Sequence[str] = STANDARD_LOCAL_SEQUENCE) -> List[LocalTransform]:
    catalog = {
        "LT1": MoveUp,
        "LT2": MoveDown,
        "LT3": MuxPreselection,
        "LT4": RemoveAcknowledgments,
        "LT5": SignalSharing,
    }
    unknown = [name for name in enabled if name not in catalog]
    if unknown:
        raise KeyError(f"unknown local transforms: {unknown}")
    return [catalog[name]() for name in STANDARD_LOCAL_SEQUENCE if name in enabled]


def optimize_machine(
    fu: str,
    machine: BurstModeMachine,
    transforms: Sequence[LocalTransform],
    oracle: Optional[
        Callable[[LocalReport, BurstModeMachine, BurstModeMachine], None]
    ] = None,
) -> Tuple[Controller, List[LocalReport]]:
    """Run the local-transform pipeline on a copy of one machine.

    The per-machine unit of :func:`optimize_local`, exposed so the
    incremental exploration engine (:mod:`repro.cache.incremental`) can
    memoize locally-optimized controllers by machine fingerprint while
    sharing this exact code path.  Returns the rebuilt
    :class:`~repro.afsm.extract.Controller` and the per-pass reports.
    """
    machine = machine.copy()
    reports: List[LocalReport] = []
    for transform in transforms:
        snapshot = machine.copy() if oracle is not None else None
        with span(f"local/{transform.name}", machine=fu) as section:
            report = transform.apply(machine)
        report.duration = section.duration
        section.attributes.update(
            applied=report.applied, moved_edges=len(report.moved_edges)
        )
        if not report.provenance:
            _derive_generic_provenance(report)
        report.record(
            "pass-summary",
            fu,
            applied=report.applied,
            moved_edges=len(report.moved_edges),
            removed_signals=len(report.removed_signals),
            merged_signals=len(report.merged_signals),
            folded_states=report.folded_states,
        )
        reports.append(report)
        with span("local/check_machine", machine=fu):
            check_machine(machine)
        if oracle is not None:
            oracle(report, snapshot, machine)
    machine.fold_trivial_states()
    machine.prune_unreachable()
    controller = Controller(
        fu=fu,
        machine=machine,
        input_wires=[
            s.name for s in machine.inputs() if s.kind is SignalKind.GLOBAL_READY
        ],
        output_wires=[
            s.name for s in machine.outputs() if s.kind is SignalKind.GLOBAL_READY
        ],
    )
    return controller, reports


def optimize_local(
    design: DistributedDesign,
    enabled: Sequence[str] = STANDARD_LOCAL_SEQUENCE,
    oracle: Optional[
        Callable[[LocalReport, BurstModeMachine, BurstModeMachine], None]
    ] = None,
) -> LocalOptimizationResult:
    """Apply the local-transform script to a copy of every controller.

    ``oracle`` is a per-pass invariant check called as
    ``oracle(report, before, after)`` after every ``apply()`` on every
    machine (``before`` is a snapshot of the machine the pass
    received); it should raise on violation.  The metamorphic
    per-transform oracles live in :mod:`repro.verify.oracles`.
    """
    transforms = build_local_sequence(enabled)
    optimized = DistributedDesign(
        cdfg=design.cdfg, plan=design.plan, phases=design.phases
    )
    reports: List[LocalReport] = []
    with span("optimize_local", workload=design.cdfg.name, enabled="+".join(enabled)):
        for fu, controller in design.controllers.items():
            rebuilt, machine_reports = optimize_machine(
                fu, controller.machine, transforms, oracle=oracle
            )
            reports.extend(machine_reports)
            optimized.controllers[fu] = rebuilt
    return LocalOptimizationResult(design=optimized, reports=reports)


def _derive_generic_provenance(report: LocalReport) -> None:
    """Fallback records for a local pass without bespoke instrumentation."""
    for edge in report.moved_edges:
        report.record("edge-moved", edge)
    for signal in report.removed_signals:
        report.record("signal-removed", signal)
    for signal in report.merged_signals:
        report.record("signals-merged", signal)
