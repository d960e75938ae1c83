"""Transform framework: reports, the pass manager and safety checks."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cdfg.graph import Cdfg
from repro.cdfg.validate import check_well_formed
from repro.errors import TransformError
from repro.obs.provenance import ProvenanceRecord
from repro.obs.spans import span
from repro.transforms.unfold import cached_unfolded_reach


@dataclass
class TransformReport:
    """What a transform did to a CDFG."""

    name: str
    applied: bool = False
    removed_arcs: List[str] = field(default_factory=list)
    added_arcs: List[str] = field(default_factory=list)
    merged_nodes: List[str] = field(default_factory=list)
    details: List[str] = field(default_factory=list)
    #: transform-specific outputs (GT5 stores its ChannelPlan here)
    artifacts: Dict[str, object] = field(default_factory=dict)
    #: wall time of the pass in seconds (filled by PassManager.run)
    duration: float = 0.0
    #: typed provenance of every individual action of the pass
    provenance: List[ProvenanceRecord] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.details.append(message)

    def record(self, kind: str, subject: str, **detail: object) -> ProvenanceRecord:
        """Append (and return) a provenance record for this pass."""
        entry = ProvenanceRecord(self.name, kind, subject, dict(detail))
        self.provenance.append(entry)
        return entry

    def summary(self) -> str:
        parts = [self.name, "applied" if self.applied else "no-op"]
        if self.removed_arcs:
            parts.append(f"-{len(self.removed_arcs)} arcs")
        if self.added_arcs:
            parts.append(f"+{len(self.added_arcs)} arcs")
        if self.merged_nodes:
            parts.append(f"{len(self.merged_nodes)} merges")
        if self.duration:
            parts.append(f"[{self.duration:.3f}s]")
        return " ".join(parts)


class Transform(abc.ABC):
    """A CDFG transformation.  ``apply`` mutates the graph in place."""

    #: Short name (GT1..GT5) used in reports and logs.
    name: str = "transform"

    @abc.abstractmethod
    def apply(self, cdfg: Cdfg) -> TransformReport:
        """Apply the transform to ``cdfg``; return a report."""


class PassManager:
    """Run a sequence of transforms, checking each pass's result.

    After every transform the manager validates the graph's
    well-formedness (:func:`~repro.cdfg.validate.check_well_formed`)
    and then calls the installed ``oracle``, if any.  It checks nothing
    about the firing order itself: the per-pass order contracts belong
    to the oracles, above all the flow proof (:mod:`repro.verify.flow`).
    """

    def run(
        self,
        cdfg: Cdfg,
        transforms: Sequence[Transform],
        oracle: Optional[Callable[[TransformReport, Cdfg, Cdfg], None]] = None,
    ) -> Tuple[Cdfg, List[TransformReport]]:
        """Apply ``transforms`` to a copy of ``cdfg``; ``cdfg`` is never
        mutated.

        ``oracle`` is a per-pass invariant check, called as
        ``oracle(report, before, after)`` after every ``apply()`` and
        well-formedness validation.  ``before`` is the graph the pass
        received: ``cdfg`` itself for the first pass, the previous
        pass's result after that, and each pass mutates a fresh copy of
        it.  Without an oracle every pass mutates one up-front copy.
        The oracle should raise (e.g.
        :class:`~repro.errors.VerificationError`) on violation.

        Each pass runs inside a :func:`repro.obs.spans.span` named
        ``global/<name>``, its wall time is recorded on its report, and
        it is guaranteed at least one provenance record: transforms
        emit typed records for every action, and the manager appends a
        ``pass-summary`` record with the aggregate counts.
        """
        working = cdfg if oracle is not None and transforms else cdfg.copy()
        reports: List[TransformReport] = []
        for transform in transforms:
            before = working
            if oracle is not None:
                working = before.copy()
            with span(f"global/{transform.name}", workload=cdfg.name) as section:
                report = transform.apply(working)
            report.duration = section.duration
            section.attributes.update(
                applied=report.applied,
                removed_arcs=len(report.removed_arcs),
                added_arcs=len(report.added_arcs),
            )
            if not report.provenance:
                _derive_generic_provenance(report)
            report.record(
                "pass-summary",
                cdfg.name,
                applied=report.applied,
                removed_arcs=len(report.removed_arcs),
                added_arcs=len(report.added_arcs),
                merged_nodes=len(report.merged_nodes),
            )
            reports.append(report)
            with span("global/check_well_formed"):
                check_well_formed(working)
            if oracle is not None:
                oracle(report, before, working)
        return working, reports


def _derive_generic_provenance(report: TransformReport) -> None:
    """Fallback records for a transform without bespoke instrumentation."""
    for arc in report.removed_arcs:
        report.record("arc-removed", arc)
    for arc in report.added_arcs:
        report.record("arc-added", arc)
    for node in report.merged_nodes:
        report.record("nodes-merged", node)


def operation_order_pairs(cdfg: Cdfg, unfold: int = 2) -> Set[Tuple[str, str]]:
    """Ordered pairs of *operation* node copies implied by the constraints.

    Computed over an ``unfold``-copy loop unfolding so cross-iteration
    ordering (backward arcs) is included.  Shared node names are paired
    with their unfolded iteration index.
    """
    reach = cached_unfolded_reach(cdfg, unfold=unfold)
    pairs: Set[Tuple[str, str]] = set()
    operations = [node.name for node in cdfg.operation_nodes()]
    for src in operations:
        for src_copy in reach.copies(src):
            for dst_copy in reach.reachable(src_copy):
                dst, dst_k = dst_copy
                if dst in operations:
                    pairs.add((_copy_id(src_copy), _copy_id(dst_copy)))
    return pairs


def _copy_id(copy: Tuple[str, Optional[int]]) -> str:
    name, iteration = copy
    return name if iteration is None else f"{name}@{iteration}"


def check_precedence_preserved(
    before: Cdfg,
    after: Cdfg,
    allow_missing: bool = False,
    unfold: int = 2,
) -> List[Tuple[str, str]]:
    """Ordered operation pairs of ``before`` missing from ``after``.

    Node renaming from GT4 merges is resolved: a merged node stands in
    for each of its constituents.  Returns the missing pairs (empty
    means full preservation); raises :class:`TransformError` unless
    ``allow_missing`` is set.
    """
    alias: Dict[str, str] = {}
    for node in after.operation_nodes():
        for part in node.name.split("; "):
            alias[part] = node.name
        alias[node.name] = node.name

    before_pairs = operation_order_pairs(before, unfold=unfold)
    after_pairs = operation_order_pairs(after, unfold=unfold)

    missing: List[Tuple[str, str]] = []
    for src_id, dst_id in sorted(before_pairs):
        src, __, src_k = src_id.partition("@")
        dst, __, dst_k = dst_id.partition("@")
        if src not in alias or dst not in alias:
            continue  # node disappeared entirely (not produced by our transforms)
        mapped_src = alias[src] + (f"@{src_k}" if src_k else "")
        mapped_dst = alias[dst] + (f"@{dst_k}" if dst_k else "")
        if mapped_src == mapped_dst:
            continue  # the pair collapsed into one node (GT4)
        if (mapped_src, mapped_dst) not in after_pairs:
            missing.append((src_id, dst_id))
    if missing and not allow_missing:
        raise TransformError(
            "precedence", f"ordering lost for {len(missing)} pairs, e.g. {missing[:3]}"
        )
    return missing
