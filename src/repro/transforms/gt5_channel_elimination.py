"""GT5: communication channel elimination (paper Section 3.5).

After GT1-GT4, every remaining controller-controller constraint arc
would become a dedicated single-wire channel.  GT5 reduces the channel
count with three sub-transforms:

GT5.1 *Channel multiplexing* — two channels connecting the same
  controllers share one wire when their events are never concurrently
  active; the events become different phases of the shared wire.

GT5.2 *Concurrency reduction* — a constraint ``a -> c`` is replaced by
  a chain ``a -> b``, ``b -> c`` through a hub on a third unit, so the
  resulting pieces can be multiplexed with existing channels and the
  direct ``fu(a) -> fu(c)`` wire disappears.  Applied only to arcs with
  timing slack (the hub may delay ``c``).

GT5.3 *Channel symmetrization* — the "done" event of one source node
  that constrains nodes on several units naturally broadcasts on one
  *multi-way* channel; two event groups from the same sender with
  overlapping (but not identical) receiver sets are made symmetric by
  *safe addition* of already-implied arcs, after which they multiplex
  into a single multi-way wire.

Concurrency is proven structurally: two arcs never share the wire at
the same time when consumption of each instance of one precedes
production of the relevant instance of the other along a path of
constraints in the unfolded iteration graph (see
:meth:`ChannelElimination._never_concurrent`).  The check is
conservative — a failed path query only prevents a merge, never an
unsound one.

The optimized :class:`~repro.channels.model.ChannelPlan` is stored in
``report.artifacts["channel_plan"]``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.cdfg.arc import Arc, control_tag
from repro.cdfg.graph import ENV, Cdfg
from repro.channels.model import ArcKey, Channel, ChannelPlan
from repro.timing.analysis import relative_arc_dominates
from repro.timing.delays import DelayModel
from repro.transforms.base import Transform, TransformReport
from repro.transforms.unfold import Copy, UnfoldedReach, cached_unfolded_reach


class _Group:
    """All controller-controller arcs fired by one source node's done."""

    def __init__(self, source: str, src_fu: str):
        self.source = source
        self.src_fu = src_fu
        self.arcs: List[ArcKey] = []

    def receiver_fus(self, cdfg: Cdfg) -> FrozenSet[str]:
        return frozenset(cdfg.fu_of(dst) for __, dst in self.arcs)


class ChannelElimination(Transform):
    """GT5: multiplexing, concurrency reduction, symmetrization."""

    name = "GT5"

    def __init__(
        self,
        delays: Optional[DelayModel] = None,
        unfold: int = 4,
        max_added_arcs_per_merge: int = 1,
        enable_concurrency_reduction: bool = True,
        enable_symmetrization: bool = True,
        allow_backward_additions: bool = False,
    ):
        self.delays = delays or DelayModel()
        self.unfold = max(unfold, 3)
        self.max_added_arcs_per_merge = max_added_arcs_per_merge
        self.enable_concurrency_reduction = enable_concurrency_reduction
        self.enable_symmetrization = enable_symmetrization
        #: cross-iteration safe additions create pre-enabled wires whose
        #: reset timing is hard to discharge; off by default
        self.allow_backward_additions = allow_backward_additions

    # ------------------------------------------------------------------
    def apply(self, cdfg: Cdfg) -> TransformReport:
        report = TransformReport(self.name)

        # GT5's grouping and concurrency proofs assume an irredundant
        # constraint graph (the paper's flow always runs GT2 first):
        # dominated arcs would put spurious events on shared wires.
        # Apply the reduction here if the caller skipped it.
        from repro.transforms.gt2_dominated import RemoveDominatedConstraints

        reduction = RemoveDominatedConstraints().apply(cdfg)
        if reduction.applied:
            report.removed_arcs.extend(reduction.removed_arcs)
            for entry in reduction.provenance:
                report.record(
                    "pre-reduction-arc-removed", entry.subject,
                    delegated_to="GT2", **entry.detail,
                )
            report.note(
                f"pre-reduced {len(reduction.removed_arcs)} dominated arcs "
                "(GT5 requires a transitively-reduced CDFG)"
            )

        if self.enable_concurrency_reduction:
            self._concurrency_reduction(cdfg, report)

        groups = self._source_groups(cdfg)
        if self.enable_symmetrization:
            self._symmetrize(cdfg, groups, report)
        plan = self._build_plan(cdfg, groups, report)
        report.artifacts["channel_plan"] = plan
        report.applied = True
        report.note(
            f"final plan: {plan.count()} channels "
            f"({plan.count(include_env=False)} controller-controller, "
            f"{plan.multiway_count()} multi-way)"
        )
        return report

    # ------------------------------------------------------------------
    # grouping
    # ------------------------------------------------------------------
    def _cc_arcs(self, cdfg: Cdfg) -> List[Arc]:
        """Controller-controller arcs (environment wires stay as-is)."""
        return [
            arc
            for arc in cdfg.inter_fu_arcs()
            if cdfg.fu_of(arc.src) != ENV and cdfg.fu_of(arc.dst) != ENV
        ]

    def _source_groups(self, cdfg: Cdfg) -> List[_Group]:
        groups: Dict[str, _Group] = {}
        for arc in sorted(self._cc_arcs(cdfg), key=lambda a: a.key):
            group = groups.get(arc.src)
            if group is None:
                group = groups[arc.src] = _Group(arc.src, cdfg.fu_of(arc.src))
            group.arcs.append(arc.key)
        return list(groups.values())

    @staticmethod
    def _mixed_receivers(cdfg: Cdfg, arcs: Sequence[ArcKey]) -> bool:
        """True when some receiver FU would hold both backward and
        forward arcs on one wire.  A backward arc makes the wire
        pre-enabled; a receiver with only forward arcs then absorbs the
        startup transition, but a receiver with *both* cannot tell the
        startup event from a same-iteration one, and extraction rejects
        the channel."""
        flags: Dict[str, Set[bool]] = {}
        for src, dst in arcs:
            flags.setdefault(cdfg.fu_of(dst), set()).add(cdfg.arc(src, dst).backward)
        return any(len(seen) > 1 for seen in flags.values())

    def _split_mixed_groups(
        self,
        cdfg: Cdfg,
        groups: List[_Group],
        report: Optional[TransformReport] = None,
    ) -> List[_Group]:
        """Give backward and forward arcs separate wires where a
        receiver would otherwise see both (the unoptimized plan keeps
        them separate anyway; only the mixed case pays the extra
        channel)."""
        result: List[_Group] = []
        for group in groups:
            if not self._mixed_receivers(cdfg, group.arcs):
                result.append(group)
                continue
            forward = _Group(group.source, group.src_fu)
            backward = _Group(group.source, group.src_fu)
            for key in group.arcs:
                target = backward if cdfg.arc(*key).backward else forward
                target.arcs.append(key)
            result.extend([forward, backward])
            if report is not None:
                report.record(
                    "group-split-pre-enabled", group.source,
                    sub_transform="GT5.1",
                    forward=[f"{s} -> {d}" for s, d in sorted(forward.arcs)],
                    backward=[f"{s} -> {d}" for s, d in sorted(backward.arcs)],
                )
                report.note(
                    f"5.1: split {group.source}'s wire: a receiver mixed "
                    "backward and forward arcs (pre-enabled wire)"
                )
        return result

    # ------------------------------------------------------------------
    # GT5.2 concurrency reduction
    # ------------------------------------------------------------------
    def _concurrency_reduction(self, cdfg: Cdfg, report: TransformReport) -> None:
        """Reroute lone-pair arcs through hubs where profitable.

        Each original arc is rerouted at most once and arcs created by
        a reroute are never themselves rerouted, so the pass terminates
        (an unbounded loop could otherwise ping-pong constraints
        between hubs).
        """
        attempted: set = set()
        changed = True
        while changed:
            changed = False
            pair_counts = self._pair_counts(cdfg)
            for arc in sorted(self._cc_arcs(cdfg), key=lambda a: a.key):
                if arc.backward:
                    continue  # a chain of two forward arcs cannot replace it
                if arc.label == "GT5.2" or arc.key in attempted:
                    continue
                attempted.add(arc.key)
                pair = (cdfg.fu_of(arc.src), cdfg.fu_of(arc.dst))
                if pair_counts.get(pair, 0) != 1:
                    continue  # the direct wire is shared anyway
                if not self._non_critical(cdfg, arc):
                    continue  # on or near the critical path: keep direct
                hub = self._find_hub(cdfg, arc, pair_counts)
                if hub is None:
                    continue
                cdfg.remove_arc(arc.src, arc.dst)
                if not cdfg.has_arc(arc.src, hub):
                    cdfg.add_arc(
                        Arc(arc.src, hub, frozenset({control_tag()}), label="GT5.2")
                    )
                    report.added_arcs.append(f"{arc.src} -> {hub}")
                if not cdfg.has_arc(hub, arc.dst):
                    cdfg.add_arc(
                        Arc(hub, arc.dst, frozenset({control_tag()}), label="GT5.2")
                    )
                    report.added_arcs.append(f"{hub} -> {arc.dst}")
                report.removed_arcs.append(str(arc))
                report.record(
                    "arc-rerouted", str(arc), sub_transform="GT5.2", hub=hub,
                    hub_fu=cdfg.fu_of(hub),
                )
                report.note(f"5.2: rerouted {arc} via hub {hub!r}")
                changed = True
                break

    def _non_critical(self, cdfg: Cdfg, arc: Arc) -> bool:
        """The paper applies concurrency reduction "to non-critical
        constraints": an arc is provably non-critical when a sibling
        constraint of the same destination always arrives no earlier
        (the same anchored relative-timing proof GT3 uses)."""
        for witness in cdfg.arcs_to(arc.dst):
            if witness.key == arc.key or witness.backward:
                continue
            if cdfg.is_iterate_arc(witness):
                continue
            try:
                if relative_arc_dominates(cdfg, arc, witness, delays=self.delays):
                    return True
            except Exception:
                continue
        return False

    @staticmethod
    def _pair_counts(cdfg: Cdfg) -> Dict[Tuple[str, str], int]:
        counts: Dict[Tuple[str, str], int] = {}
        for arc in cdfg.inter_fu_arcs():
            pair = (cdfg.fu_of(arc.src), cdfg.fu_of(arc.dst))
            counts[pair] = counts.get(pair, 0) + 1
        return counts

    def _find_hub(
        self, cdfg: Cdfg, arc: Arc, pair_counts: Dict[Tuple[str, str], int]
    ) -> Optional[str]:
        """A node b with existing traffic fu(a)->fu(b) and fu(b)->fu(c),
        positioned between a and c (no cycles), same block as the arc."""
        src_fu = cdfg.fu_of(arc.src)
        dst_fu = cdfg.fu_of(arc.dst)
        for hub in cdfg.node_names():
            hub_fu = cdfg.fu_of(hub)
            if hub_fu in (src_fu, dst_fu, ENV):
                continue
            if cdfg.block_of(hub) != cdfg.block_of(arc.src):
                continue
            if cdfg.block_of(hub) != cdfg.block_of(arc.dst):
                continue
            if cdfg.branch_of(hub) != cdfg.branch_of(arc.src):
                continue
            if pair_counts.get((src_fu, hub_fu), 0) < 1:
                continue
            if pair_counts.get((hub_fu, dst_fu), 0) < 1:
                continue
            # ordering feasibility: hub must be placeable between a and c
            if cdfg.implies(hub, arc.src) or cdfg.implies(arc.dst, hub):
                continue
            return hub
        return None

    # ------------------------------------------------------------------
    # GT5.3 symmetrization
    # ------------------------------------------------------------------
    def _symmetrize(
        self, cdfg: Cdfg, groups: List[_Group], report: TransformReport
    ) -> None:
        """Equalize receiver sets of mergeable groups by safe addition.

        Only *implied* arcs are added (zero semantic cost), and at most
        ``max_added_arcs_per_merge`` per group pair, so the controllers
        do not accumulate gratuitous synchronization.
        """
        changed = True
        while changed:
            changed = False
            for narrow in groups:
                for wide in groups:
                    if narrow is wide or narrow.src_fu != wide.src_fu:
                        continue
                    narrow_set = narrow.receiver_fus(cdfg)
                    wide_set = wide.receiver_fus(cdfg)
                    missing = wide_set - narrow_set
                    if not missing or not (narrow_set & wide_set):
                        continue  # identical already, or no overlap
                    if not narrow_set < wide_set:
                        continue
                    if len(missing) > self.max_added_arcs_per_merge:
                        continue
                    additions = self._plan_additions(cdfg, narrow, missing)
                    if additions is None:
                        continue
                    for new_arc in additions:
                        cdfg.add_arc(new_arc)
                        narrow.arcs.append(new_arc.key)
                        report.added_arcs.append(str(new_arc))
                        report.record(
                            "safe-addition", str(new_arc), sub_transform="GT5.3",
                            group_source=narrow.source,
                            widened_toward=sorted(missing),
                        )
                        report.note(f"5.3: safe addition {new_arc}")
                    changed = True

    def _plan_additions(
        self, cdfg: Cdfg, group: _Group, missing: FrozenSet[str]
    ) -> Optional[List[Arc]]:
        """Implied arcs from the group's source to each missing FU."""
        reach = cached_unfolded_reach(cdfg, unfold=2)
        additions: List[Arc] = []
        src = group.source
        for fu in sorted(missing):
            candidate = self._implied_target(cdfg, reach, src, fu)
            if candidate is None:
                return None
            dst, backward = candidate
            additions.append(
                Arc(src, dst, frozenset({control_tag()}), backward=backward, label="GT5.3")
            )
        return additions

    def _implied_target(
        self, cdfg: Cdfg, reach: UnfoldedReach, src: str, fu: str
    ) -> Optional[Tuple[str, bool]]:
        for dst in cdfg.fu_schedule(fu):
            if dst == src or cdfg.has_arc(src, dst):
                continue
            if not cdfg.node(dst).is_operation:
                continue
            if not self._addition_position_ok(cdfg, src, dst):
                continue
            if reach.implies_same_iteration(src, dst):
                return (dst, False)
            if (
                self.allow_backward_additions
                and reach.is_iterated(src)
                and reach.is_iterated(dst)
                and reach.implies_next_iteration(src, dst)
            ):
                return (dst, True)
        return None

    @staticmethod
    def _addition_position_ok(cdfg: Cdfg, src: str, dst: str) -> bool:
        """A safe addition must fire exactly as often as its consumer
        expects: either the nodes share a block and branch, or the arc
        is a loop-entry constraint (src at an enclosing non-branch
        level, dst not inside any IF branch below that level)."""
        if cdfg.block_of(src) == cdfg.block_of(dst):
            return cdfg.branch_of(src) == cdfg.branch_of(dst)
        src_block = cdfg.block_of(src)
        current = dst
        while True:
            if cdfg.branch_of(current) is not None:
                return False  # inside an IF branch: fires conditionally
            enclosing = cdfg.block_of(current)
            if enclosing == src_block:
                return True
            if enclosing is None:
                return False
            current = enclosing

    # ------------------------------------------------------------------
    # GT5.1 multiplexing + plan construction
    # ------------------------------------------------------------------
    def _build_plan(
        self, cdfg: Cdfg, groups: List[_Group], report: Optional[TransformReport] = None
    ) -> ChannelPlan:
        reach = cached_unfolded_reach(cdfg, unfold=self.unfold)
        groups = self._split_mixed_groups(cdfg, groups, report)
        merged: List[List[_Group]] = []
        for group in groups:
            placed = False
            for cluster in merged:
                if cluster[0].src_fu != group.src_fu:
                    continue
                if cluster[0].receiver_fus(cdfg) != group.receiver_fus(cdfg):
                    continue
                combined = [key for member in cluster for key in member.arcs]
                combined.extend(group.arcs)
                if self._mixed_receivers(cdfg, combined):
                    continue
                if all(self._groups_never_concurrent(cdfg, reach, member, group) for member in cluster):
                    cluster.append(group)
                    placed = True
                    break
            if not placed:
                merged.append([group])

        plan = ChannelPlan()
        for index, cluster in enumerate(merged):
            receivers = cluster[0].receiver_fus(cdfg)
            arcs: List[ArcKey] = []
            for group in cluster:
                arcs.extend(group.arcs)
            label = "_".join(sorted(receivers))
            name = f"ch{index}_{cluster[0].src_fu}_to_{label}"
            if report is not None and len(cluster) > 1:
                report.record(
                    "channels-merged", name, sub_transform="GT5.1",
                    sources=sorted(group.source for group in cluster),
                    receivers=sorted(receivers),
                    arcs=[f"{src} -> {dst}" for src, dst in sorted(arcs)],
                )
            plan.add(
                Channel(
                    name=name,
                    src_fu=cluster[0].src_fu,
                    dst_fus=receivers,
                    arcs=sorted(arcs),
                )
            )
        # environment wires keep dedicated channels
        env_arcs = [
            arc
            for arc in cdfg.inter_fu_arcs()
            if cdfg.fu_of(arc.src) == ENV or cdfg.fu_of(arc.dst) == ENV
        ]
        for index, arc in enumerate(sorted(env_arcs, key=lambda a: a.key)):
            plan.add(
                Channel(
                    name=f"env{index}_{cdfg.fu_of(arc.src)}_{cdfg.fu_of(arc.dst)}",
                    src_fu=cdfg.fu_of(arc.src),
                    dst_fus=frozenset({cdfg.fu_of(arc.dst)}),
                    arcs=[arc.key],
                )
            )
        return plan

    # ------------------------------------------------------------------
    # concurrency proof
    # ------------------------------------------------------------------
    def _groups_never_concurrent(
        self, cdfg: Cdfg, reach: UnfoldedReach, left: _Group, right: _Group
    ) -> bool:
        for left_key in left.arcs:
            for right_key in right.arcs:
                if not self._never_concurrent(cdfg, reach, left_key, right_key):
                    return False
        return True

    def _arc_instances(
        self, cdfg: Cdfg, reach: UnfoldedReach, key: ArcKey
    ) -> List[Tuple[Copy, Copy]]:
        """(production, consumption) node copies for each firing of an arc."""
        src, dst = key
        arc = cdfg.arc(src, dst)
        src_iter = reach.is_iterated(src)
        dst_iter = reach.is_iterated(dst)
        if not src_iter and not dst_iter:
            return [((src, None), (dst, None))]
        if not src_iter:
            return [((src, None), (dst, 0))]
        if not dst_iter:
            return [((src, self.unfold - 1), (dst, None))]
        if arc.backward:
            return [((src, k), (dst, k + 1)) for k in range(self.unfold - 1)]
        return [((src, k), (dst, k)) for k in range(self.unfold)]

    def _never_concurrent(
        self, cdfg: Cdfg, reach: UnfoldedReach, left: ArcKey, right: ArcKey
    ) -> bool:
        """Sound structural check that two arcs never hold simultaneous
        pending events: for every pair of instances, the consumption of
        one happens-before the production of the other."""
        for left_prod, left_cons in self._arc_instances(cdfg, reach, left):
            for right_prod, right_cons in self._arc_instances(cdfg, reach, right):
                left_first = left_cons == right_prod or reach.path_exists(left_cons, right_prod)
                right_first = right_cons == left_prod or reach.path_exists(right_cons, left_prod)
                if not (left_first or right_first):
                    return False
        return True
