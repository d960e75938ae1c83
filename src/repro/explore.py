"""Design-space exploration over transform subsets.

The paper positions its transforms as a toolbox for *systematic design
space exploration* and announces scripts as future work.  This module
provides that layer: enumerate (or sample) subsets of the global and
local transforms, push each through the complete flow, score the
resulting design points, and extract the Pareto frontier.

>>> from repro.explore import explore_design_space
>>> result = explore_design_space(build_diffeq_cdfg())   # doctest: +SKIP
>>> result.pareto_points()                               # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cdfg.graph import Cdfg
from repro.sim.seeding import NOMINAL
from repro.sim.token_sim import simulate_tokens
from repro.timing.delays import DelayModel


@dataclass(frozen=True)
class DesignPoint:
    """One explored configuration and its scores (all minimized)."""

    global_transforms: Tuple[str, ...]
    local_transforms: Tuple[str, ...]
    channels: int
    total_states: int
    total_transitions: int
    makespan: float
    #: conformance stamp: did this point reproduce the golden register
    #: file with zero violations/hazards and clean per-pass oracles?
    conformant: bool = True
    #: "conformant", "failed: <reason>", or "unchecked"
    conformance: str = "unchecked"
    #: proof stamp: did every GT/LT application of this point discharge
    #: its flow-equivalence obligations (:mod:`repro.verify.flow`)?
    proved: bool = False
    #: "proved (<n> pass certificates)", "refuted: <reason>",
    #: "not proved: <reason>", or "unchecked"
    proof: str = "unchecked"
    #: how many provenance records the GT/LT scripts emitted
    provenance_records: int = 0
    #: dominant label group on the simulation's critical path
    bottleneck: str = ""
    #: "ok", or "failed" when the point's evaluation raised instead of
    #: producing a design (crash, timeout, injected fault) — failed
    #: points carry zeroed metrics and are excluded from the frontier
    status: str = "ok"
    #: the exception that failed the point (empty when status == "ok")
    error: str = ""

    @property
    def label(self) -> str:
        gt = "+".join(self.global_transforms) or "(no GT)"
        lt = "+".join(self.local_transforms) or "(no LT)"
        return f"{gt} / {lt}"

    def objectives(self) -> Tuple[float, float, float]:
        return (self.channels, self.total_states, self.makespan)

    def to_dict(self) -> Dict[str, object]:
        """Snake-case JSON document (the ``repro explore --json`` shape)."""
        return {
            "global_transforms": list(self.global_transforms),
            "local_transforms": list(self.local_transforms),
            "channels": self.channels,
            "total_states": self.total_states,
            "total_transitions": self.total_transitions,
            "makespan": self.makespan,
            "conformant": self.conformant,
            "conformance": self.conformance,
            "proved": self.proved,
            "proof": self.proof,
            "provenance_records": self.provenance_records,
            "bottleneck": self.bottleneck,
            "status": self.status,
            "error": self.error,
        }

    def dominates(self, other: "DesignPoint") -> bool:
        mine, theirs = self.objectives(), other.objectives()
        return all(m <= t for m, t in zip(mine, theirs)) and mine != theirs


@dataclass
class ExplorationResult:
    points: List[DesignPoint] = field(default_factory=list)
    #: run diagnostics (cache hits, evaluations computed, ...);
    #: excluded from equality so cold and warm results compare equal
    stats: Dict[str, object] = field(default_factory=dict, compare=False)

    def pareto_points(self) -> List[DesignPoint]:
        """The non-dominated points, in their original order.

        Sort-based skyline filter: points are visited in lexicographic
        objective order, so any dominator of a point is visited before
        it and (by transitivity of dominance) the skyline collected so
        far suffices to reject it — O(n log n + n·k) for k skyline
        points instead of the naive all-pairs O(n²) scan.
        """
        candidates = [i for i in range(len(self.points)) if self.points[i].status == "ok"]
        order = sorted(candidates, key=lambda i: self.points[i].objectives())
        skyline: List[DesignPoint] = []
        keep = set()
        for index in order:
            point = self.points[index]
            if not any(other.dominates(point) for other in skyline):
                skyline.append(point)
                keep.add(index)
        return [point for index, point in enumerate(self.points) if index in keep]

    def failed_points(self) -> List[DesignPoint]:
        """Points whose evaluation crashed or timed out."""
        return [point for point in self.points if point.status != "ok"]

    def best(self, objective: str) -> DesignPoint:
        """The single best point for one objective
        ('channels' | 'states' | 'makespan').

        Ties on the chosen objective are broken by the full objective
        vector, which guarantees the winner is itself on the Pareto
        frontier: any dominator would sort strictly earlier under
        ``(objective, objectives())``, contradicting minimality.  (A
        bare ``min`` over one objective can return a dominated point —
        same channel count, strictly worse states/makespan — making
        ``best`` disagree with ``pareto_points``.)
        """
        keys = {
            "channels": lambda p: p.channels,
            "states": lambda p: p.total_states,
            "makespan": lambda p: p.makespan,
        }
        try:
            key = keys[objective]
        except KeyError:
            raise ValueError(f"unknown objective {objective!r}") from None
        candidates = [point for point in self.points if point.status == "ok"]
        if not candidates:
            raise ValueError("no successfully evaluated points")
        return min(candidates, key=lambda p: (key(p),) + p.objectives())


def proof_stamp(conformance: str, certificates: int) -> Tuple[bool, str]:
    """Derive the ``(proved, proof)`` stamp of a design point.

    The flow oracles run inside the same scripts as the metamorphic
    ones, so the conformance verdict already carries the proof outcome:
    a conformant point was fully certified (``certificates`` counts the
    per-pass :class:`~repro.verify.flow.FlowProof` certificates), a
    ``flow[...]`` failure is a refutation with a counterexample, and
    any other failure leaves the point merely unproved.
    """
    if conformance == "unchecked":
        return False, "unchecked"
    if conformance == "conformant":
        return True, f"proved ({certificates} pass certificates)"
    message = conformance
    if message.startswith("failed: "):
        message = message[len("failed: ") :]
    if message.startswith("flow["):
        return False, f"refuted: {message}"
    return False, f"not proved: {message}"


def failed_point(
    global_transforms: Sequence[str],
    local_transforms: Sequence[str],
    error: str,
) -> DesignPoint:
    """The zeroed ``status="failed"`` stand-in for a crashed evaluation."""
    return DesignPoint(
        global_transforms=tuple(global_transforms),
        local_transforms=tuple(local_transforms),
        channels=0,
        total_states=0,
        total_transitions=0,
        makespan=0.0,
        conformant=False,
        conformance=f"failed: {error}",
        proved=False,
        proof=f"not proved: {error}",
        status="failed",
        error=error,
    )


def explore_design_space(
    cdfg: Cdfg,
    global_subsets: Optional[Sequence[Sequence[str]]] = None,
    local_subsets: Optional[Sequence[Sequence[str]]] = None,
    delays: Optional[DelayModel] = None,
    seed: int = 9,
    reference: Optional[Dict[str, float]] = None,
    verify: bool = True,
    cache: Optional["ArtifactCache"] = None,
    cache_dir: Optional[str] = None,
    fault_injector=None,
    point_timeout: Optional[float] = None,
) -> ExplorationResult:
    """Evaluate a grid of transform configurations.

    Defaults explore every subset of GT1..GT5 crossed with {no LTs, all
    LTs} — 64 points is already informative; pass explicit subset lists
    for a wider or narrower sweep.

    The sweep runs on the shared-prefix engine
    (:mod:`repro.cache.incremental`): the GT grid is evaluated as a
    trie so each transform applies once per trie edge, extraction is
    shared across the ``()``/LT pair of every GT subset, and
    evaluations are content-addressed.  Pass an
    :class:`~repro.cache.ArtifactCache` via ``cache`` (or just a
    ``cache_dir`` path) to persist the memo across runs — warm sweeps
    are then near-instant and bit-identical to cold ones.  Every point
    is bit-identical to an independent per-point evaluation (the test
    suite's oracle).

    The sweep is serial.  For a parallel one, describe the grid as a
    :class:`~repro.cache.space.ParameterSpace` and run it with
    :func:`~repro.cache.shards.explore_space` (``repro explore
    <workload> --workers N`` on the CLI): the shard runner fans the
    same per-point evaluation out over worker pools, and its points
    are identical and in the same order.

    With ``verify`` (the default) every point is conformance-stamped:
    a nominal token simulation of the untransformed CDFG supplies the
    golden register file once, and each configuration must reproduce it
    under the per-pass oracles with zero violations or hazards —
    non-conformant points survive in the result, flagged via
    :attr:`DesignPoint.conformant` / :attr:`DesignPoint.conformance`.

    The sweep is fault-tolerant: a grid point whose evaluation raises
    (or exceeds ``point_timeout`` seconds of wall clock) becomes a
    ``status="failed"`` point instead of aborting the sweep, and
    ``KeyboardInterrupt`` returns the completed points with
    ``stats["interrupted"]`` set.
    ``fault_injector`` (see :mod:`repro.resilience.injection`)
    deterministically fails chosen points — the hook CI uses to prove
    all of the above.  When ``point_timeout`` is set,
    ``stats["watchdog_active"]`` records whether the SIGALRM deadline
    can actually be armed (it cannot off the main thread or without
    ``SIGALRM``; the deadline is then skipped with a one-time
    warning).
    """
    from repro.cache.incremental import IncrementalExplorer
    from repro.cache.space import default_gt_grid, default_lt_grid
    from repro.cache.store import ArtifactCache

    watchdog = None
    if point_timeout:
        from repro.resilience.injection import watchdog_active

        watchdog = watchdog_active()

    store = cache
    if store is None and cache_dir is not None:
        store = ArtifactCache(cache_dir)
    engine = IncrementalExplorer(
        cdfg,
        delays=delays,
        seed=seed,
        reference=reference,
        golden=simulate_tokens(cdfg, seed=NOMINAL).registers if verify else None,
        cache=store,
        fault_injector=fault_injector,
        point_timeout=point_timeout,
    )
    result = ExplorationResult(
        points=engine.run(
            default_gt_grid() if global_subsets is None else global_subsets,
            default_lt_grid() if local_subsets is None else local_subsets,
        )
    )
    if store is not None:
        if store.directory is not None:
            store.save()
        result.stats["cache"] = store.stats()
    result.stats.update(
        evaluations=engine.evaluations_computed,
        edges=engine.edges_applied,
    )
    if watchdog is not None:
        result.stats["watchdog_active"] = watchdog
    if engine.interrupted:
        result.stats["interrupted"] = True
    failed = len(result.failed_points())
    if failed:
        result.stats["failed"] = failed
    return result
