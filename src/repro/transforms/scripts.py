"""Standard global-transformation scripts.

The paper presents the transforms as a toolbox ("much like the
transforms of SIS") and announces scripts as future work; this module
provides the canonical script used throughout the evaluation —
GT1 -> GT2 -> GT3 -> GT4 -> GT5 — plus hooks for ablation studies
(every transform can be disabled individually).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.cdfg.graph import Cdfg
from repro.channels.model import ChannelPlan, derive_channels
from repro.obs.provenance import ProvenanceRecord, write_jsonl
from repro.obs.spans import span
from repro.timing.delays import DelayModel
from repro.transforms.base import PassManager, Transform, TransformReport
from repro.transforms.gt1_loop_parallelism import LoopParallelism
from repro.transforms.gt2_dominated import RemoveDominatedConstraints
from repro.transforms.gt3_relative_timing import RelativeTimingOptimization
from repro.transforms.gt4_merge_assignments import MergeAssignmentNodes
from repro.transforms.gt5_channel_elimination import ChannelElimination

#: Canonical order of the global transforms.
STANDARD_SEQUENCE = ("GT1", "GT2", "GT3", "GT4", "GT5")


@dataclass
class GlobalOptimizationResult:
    """Output of :func:`optimize_global`."""

    cdfg: Cdfg
    reports: List[TransformReport] = field(default_factory=list)
    channel_plan: Optional[ChannelPlan] = None

    def report(self, name: str) -> TransformReport:
        for report in self.reports:
            if report.name == name:
                return report
        raise KeyError(f"no report for transform {name!r}")

    @property
    def provenance(self) -> List[ProvenanceRecord]:
        """Every pass's provenance records, in application order."""
        return [entry for report in self.reports for entry in report.provenance]

    def export_provenance(self, target) -> int:
        """Write the provenance as JSONL to a path or stream."""
        return write_jsonl(self.provenance, target)

    @property
    def plan(self) -> ChannelPlan:
        """The channel plan (GT5's if it ran, else one-wire-per-arc)."""
        if self.channel_plan is not None:
            return self.channel_plan
        return derive_channels(self.cdfg)


def build_sequence(
    enabled: Sequence[str] = STANDARD_SEQUENCE,
    delays: Optional[DelayModel] = None,
) -> List[Transform]:
    """Instantiate the requested transforms in canonical order."""
    delays = delays or DelayModel()
    catalog = {
        "GT1": lambda: LoopParallelism(),
        "GT2": lambda: RemoveDominatedConstraints(),
        "GT3": lambda: RelativeTimingOptimization(delays=delays),
        "GT4": lambda: MergeAssignmentNodes(),
        "GT5": lambda: ChannelElimination(delays=delays),
    }
    unknown = [name for name in enabled if name not in catalog]
    if unknown:
        raise KeyError(f"unknown transforms: {unknown}")
    return [catalog[name]() for name in STANDARD_SEQUENCE if name in enabled]


def apply_transform(
    cdfg: Cdfg,
    name: str,
    delays: Optional[DelayModel] = None,
    oracle: Optional[Callable[[TransformReport, Cdfg, Cdfg], None]] = None,
) -> "GlobalOptimizationResult":
    """Apply ONE global transform to a copy of ``cdfg``.

    The single-step entry point of the incremental exploration engine
    (:mod:`repro.cache.incremental`): applying the canonical script one
    transform at a time through this helper is pass-for-pass identical
    to one :func:`optimize_global` call with the full subset, because
    both run each pass through the same :class:`PassManager` on the
    graph state left by the previous pass.
    """
    return optimize_global(cdfg, enabled=(name,), delays=delays, oracle=oracle)


def optimize_global(
    cdfg: Cdfg,
    enabled: Sequence[str] = STANDARD_SEQUENCE,
    delays: Optional[DelayModel] = None,
    oracle: Optional[Callable[[TransformReport, Cdfg, Cdfg], None]] = None,
) -> GlobalOptimizationResult:
    """Run the global-transform script on a copy of ``cdfg``.

    ``enabled`` selects a subset of GT1..GT5 (canonical order is always
    respected); graph well-formedness is validated after each
    transform.  ``oracle`` is forwarded to the pass manager and called
    as ``oracle(report, before, after)`` after every pass (see
    :class:`~repro.transforms.base.PassManager`); the metamorphic
    per-transform oracles live in :mod:`repro.verify.oracles`.
    """
    transforms = build_sequence(enabled, delays=delays)
    with span("optimize_global", workload=cdfg.name, enabled="+".join(enabled)):
        optimized, reports = PassManager().run(cdfg, transforms, oracle=oracle)

    channel_plan: Optional[ChannelPlan] = None
    for report in reports:
        plan = report.artifacts.get("channel_plan")
        if plan is not None:
            channel_plan = plan  # type: ignore[assignment]
    return GlobalOptimizationResult(cdfg=optimized, reports=reports, channel_plan=channel_plan)
