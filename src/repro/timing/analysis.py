"""Interval arrival-time analysis over a CDFG.

GT3 ("relative timing") removes a constraint arc when it is provably
never the *last* constraint to arrive at its destination — the paper:
"a detailed timing analysis must be performed ... it must be verified
that the removed constraint arc is under no execution path the last to
occur."

We verify that with bounded delays: every node has a completion-time
interval ``[earliest, latest]`` and an arc's arrival interval is its
source's completion interval.  Because loop iterations may overlap
after GT1, the loop body is *unfolded* a configurable number of times
(backward arcs and the iterate arc connect successive copies) and the
comparison is made in the last copy, which approximates steady state.
Interval analysis ignores correlations between paths, so it is
conservative: it may keep a removable arc, never the reverse.

Limitations: nested loops are not unfolded (a :class:`TimingError` is
raised) — none of the bundled workloads nests loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import perf
from repro.cdfg.arc import Arc
from repro.cdfg.graph import Cdfg
from repro.cdfg.kinds import NodeKind
from repro.errors import TimingError
from repro.timing.delays import DelayModel

#: A copy of a CDFG node in the unfolded timing DAG: (name, iteration).
#: ``iteration`` is None for nodes outside any loop.
TimedNode = Tuple[str, Optional[int]]

Interval = Tuple[float, float]


@dataclass
class ArrivalTimes:
    """Completion-time intervals of every unfolded node copy."""

    cdfg: Cdfg
    unfold: int
    completion: Dict[TimedNode, Interval]

    def completion_of(self, name: str, iteration: Optional[int] = None) -> Interval:
        """Completion interval of ``name``.

        For in-loop nodes, defaults to the last unfolded copy (the
        steady-state approximation).
        """
        if (name, None) in self.completion:
            return self.completion[(name, None)]
        if iteration is None:
            iteration = self.unfold - 1
        try:
            return self.completion[(name, iteration)]
        except KeyError:
            raise TimingError(f"no timing for node {name!r} iteration {iteration}") from None


def _loop_of(cdfg: Cdfg, name: str) -> Optional[str]:
    current = cdfg.block_of(name)
    while current is not None:
        if cdfg.node(current).kind is NodeKind.LOOP:
            return current
        current = cdfg.block_of(current)
    return None


def _check_no_nested_loops(cdfg: Cdfg) -> None:
    for node in cdfg.nodes_of_kind(NodeKind.LOOP):
        if _loop_of(cdfg, node.name) is not None:
            raise TimingError(
                f"nested loop {node.name!r}: interval analysis does not unfold nested loops"
            )


def _copies(cdfg: Cdfg, name: str, unfold: int) -> List[TimedNode]:
    loop = _loop_of(cdfg, name)
    node = cdfg.node(name)
    if loop is None and node.kind not in (NodeKind.LOOP, NodeKind.ENDLOOP):
        return [(name, None)]
    # LOOP/ENDLOOP themselves fire once per iteration too
    if node.kind in (NodeKind.LOOP, NodeKind.ENDLOOP) or loop is not None:
        return [(name, k) for k in range(unfold)]
    return [(name, None)]


def _is_iterated(cdfg: Cdfg, name: str) -> bool:
    node = cdfg.node(name)
    return node.kind in (NodeKind.LOOP, NodeKind.ENDLOOP) or _loop_of(cdfg, name) is not None


def compute_arrival_times(
    cdfg: Cdfg, delays: Optional[DelayModel] = None, unfold: int = 3
) -> ArrivalTimes:
    """Interval completion times over the unfolded CDFG.

    ``unfold`` copies of each loop iteration are analyzed; backward
    arcs and the ENDLOOP->LOOP iterate arc connect copy ``k`` to copy
    ``k+1``; backward arcs are pre-enabled (arrival 0) into copy 0.

    Results are memoized in the graph's analysis cache (invalidated on
    any mutation), keyed by ``unfold`` and the delay model fingerprint.
    """
    delays = delays or DelayModel()
    if not perf.caching_enabled():
        return _compute_arrival_times(cdfg, delays, unfold)
    cache = cdfg.analysis_cache()
    key = ("arrival_times", unfold, delays.cache_key())
    times = cache.get(key)
    if times is None:
        times = cache[key] = _compute_arrival_times(cdfg, delays, unfold)
    return times


def _compute_arrival_times(cdfg: Cdfg, delays: DelayModel, unfold: int) -> ArrivalTimes:
    if unfold < 1:
        raise TimingError("unfold must be >= 1")
    _check_no_nested_loops(cdfg)

    # build unfolded dependency lists: timed node -> list of timed sources
    dependencies: Dict[TimedNode, List[TimedNode]] = {}
    for name in cdfg.node_names():
        for copy in _copies(cdfg, name, unfold):
            dependencies[copy] = []

    for arc in cdfg.arcs():
        src_iterated = _is_iterated(cdfg, arc.src)
        dst_iterated = _is_iterated(cdfg, arc.dst)
        cross = arc.backward or cdfg.is_iterate_arc(arc)
        if not src_iterated and not dst_iterated:
            dependencies[(arc.dst, None)].append((arc.src, None))
        elif not src_iterated and dst_iterated:
            # loop entry: constrains only the first copy
            dependencies[(arc.dst, 0)].append((arc.src, None))
        elif src_iterated and not dst_iterated:
            # loop exit: the last copy constrains the outside consumer
            dependencies[(arc.dst, None)].append((arc.src, unfold - 1))
        else:
            for k in range(unfold):
                if cross:
                    if k + 1 < unfold:
                        dependencies[(arc.dst, k + 1)].append((arc.src, k))
                    # backward arcs into copy 0 are pre-enabled: no dep
                else:
                    dependencies[(arc.dst, k)].append((arc.src, k))

    order = _topological(dependencies)
    completion: Dict[TimedNode, Interval] = {}
    for timed in order:
        start_min = 0.0
        start_max = 0.0
        for source in dependencies[timed]:
            source_completion = completion[source]
            start_min = max(start_min, source_completion[0])
            start_max = max(start_max, source_completion[1])
        low, high = delays.interval_for(cdfg.node(timed[0]))
        completion[timed] = (start_min + low, start_max + high)
    return ArrivalTimes(cdfg=cdfg, unfold=unfold, completion=completion)


def _topological(dependencies: Dict[TimedNode, List[TimedNode]]) -> List[TimedNode]:
    indegree: Dict[TimedNode, int] = {node: 0 for node in dependencies}
    consumers: Dict[TimedNode, List[TimedNode]] = {node: [] for node in dependencies}
    for node, sources in dependencies.items():
        for source in sources:
            indegree[node] += 1
            consumers[source].append(node)
    ready = [node for node, degree in indegree.items() if degree == 0]
    order: List[TimedNode] = []
    while ready:
        current = ready.pop()
        order.append(current)
        for consumer in consumers[current]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    if len(order) != len(dependencies):
        raise TimingError("unfolded timing graph contains a cycle")
    return order


def _aligned_source(
    cdfg: Cdfg, arc: Arc, dst_iteration: int
) -> Optional[TimedNode]:
    """Source copy of ``arc`` when its destination fires in ``dst_iteration``."""
    src_iterated = _is_iterated(cdfg, arc.src)
    cross = arc.backward or cdfg.is_iterate_arc(arc)
    if not src_iterated:
        return (arc.src, None)
    if cross:
        if dst_iteration == 0:
            return None  # pre-enabled for the first iteration
        return (arc.src, dst_iteration - 1)
    return (arc.src, dst_iteration)


def arc_slack(
    cdfg: Cdfg,
    arc: Arc,
    times: ArrivalTimes,
) -> float:
    """Worst-case slack of ``arc`` at its destination in steady state.

    Positive slack means another incoming arc is guaranteed to arrive
    at least that much later than this arc in every execution.
    """
    iteration = times.unfold - 1 if _is_iterated(cdfg, arc.dst) else None
    own = _aligned_source(cdfg, arc, iteration if iteration is not None else 0)
    if own is None:
        return float("inf")
    own_latest = times.completion[own][1]
    best = -float("inf")
    for other in cdfg.arcs_to(arc.dst):
        if other.key == arc.key:
            continue
        other_source = _aligned_source(cdfg, other, iteration if iteration is not None else 0)
        if other_source is None:
            continue
        other_earliest = times.completion[other_source][0]
        best = max(best, other_earliest - own_latest)
    return best


def is_provably_not_last(cdfg: Cdfg, arc: Arc, times: ArrivalTimes) -> bool:
    """True when some other incoming constraint of ``arc.dst`` is
    guaranteed (under all delay assignments within bounds) to arrive no
    earlier than ``arc`` — i.e. removing ``arc`` cannot change when the
    destination fires."""
    return arc_slack(cdfg, arc, times) >= 0.0


def _anchored_longest_paths(
    cdfg: Cdfg,
    delays: DelayModel,
    loop: Optional[str],
    use_max: bool,
) -> Dict[str, Dict[str, float]]:
    """Memoizing wrapper around :func:`_compute_anchored_longest_paths`.

    GT3 and GT5.2 probe many (candidate, witness) arc pairs of the same
    iteration context between graph mutations; the tables depend only
    on the graph, the context and the delay model, so they are cached
    in the graph's analysis cache and shared across all those probes.
    """
    if not perf.caching_enabled():
        return _compute_anchored_longest_paths(cdfg, delays, loop, use_max)
    cache = cdfg.analysis_cache()
    key = ("anchored_longest_paths", loop, use_max, delays.cache_key())
    result = cache.get(key)
    if result is None:
        result = cache[key] = _compute_anchored_longest_paths(cdfg, delays, loop, use_max)
    return result


def _compute_anchored_longest_paths(
    cdfg: Cdfg,
    delays: DelayModel,
    loop: Optional[str],
    use_max: bool,
) -> Dict[str, Dict[str, float]]:
    """Longest-path completion delay from each *anchor event* to each
    node of one iteration context.

    The anchor events of a loop iteration are: the LOOP node's done,
    the done of every backward-arc source (previous iteration), and the
    done of every entry-arc source (outside the loop).  Within the
    iteration, completion is ``max(preds) + delay``; the returned value
    ``D[anchor][n]`` is the largest path delay from the anchor to n's
    completion, using max (``use_max``) or min node delays.  With
    unknown anchor times ``T_a``, ``comp(n) <= max_a(T_a + Dmax[a][n])``
    and ``comp(n) >= T_a + Dmin[a][n]`` for every anchor a reaching n.
    """
    if loop is not None:
        members = [
            name
            for name in cdfg.node_names()
            if loop in _ancestry(cdfg, name)
        ]
    else:
        members = [
            name
            for name in cdfg.node_names()
            if _loop_of(cdfg, name) is None
            and cdfg.node(name).kind not in (NodeKind.LOOP, NodeKind.ENDLOOP)
        ]
    if not use_max:
        # a lower bound on completion may only follow paths that execute
        # unconditionally: drop nodes inside IF branches
        members = [name for name in members if not _inside_branch(cdfg, name, loop)]
    member_set = set(members)

    # anchor name -> list of (member, is_direct_feed)
    anchor_feeds: Dict[str, List[str]] = {}
    internal: Dict[str, List[str]] = {name: [] for name in members}
    for arc in cdfg.arcs():
        if arc.dst not in member_set:
            continue
        if arc.src in member_set and not arc.backward:
            internal[arc.dst].append(arc.src)
        else:
            # LOOP root, backward-arc source, or entry-arc source
            anchor_feeds.setdefault(arc.src, []).append(arc.dst)

    index = 1 if use_max else 0
    order = [name for name in _context_topological(cdfg, members)]
    result: Dict[str, Dict[str, float]] = {}
    for anchor, feeds in anchor_feeds.items():
        distances: Dict[str, float] = {}
        for name in order:
            best = None
            if name in feeds:
                best = 0.0
            for pred in internal[name]:
                if pred in distances:
                    candidate = distances[pred]
                    best = candidate if best is None else max(best, candidate)
            if best is not None:
                distances[name] = best + delays.interval_for(cdfg.node(name))[index]
        result[anchor] = distances
    return result


def _inside_branch(cdfg: Cdfg, name: str, context_loop: Optional[str]) -> bool:
    """True when ``name`` executes conditionally within its context
    (some enclosing block below the context loop is an IF branch)."""
    current = name
    while True:
        if cdfg.branch_of(current) is not None:
            return True
        enclosing = cdfg.block_of(current)
        if enclosing is None or enclosing == context_loop:
            return False
        current = enclosing


def _ancestry(cdfg: Cdfg, name: str) -> List[str]:
    chain = []
    current = cdfg.block_of(name)
    while current is not None:
        chain.append(current)
        current = cdfg.block_of(current)
    return chain


def _context_topological(cdfg: Cdfg, members: List[str]) -> List[str]:
    member_set = set(members)
    indegree = {name: 0 for name in members}
    for arc in cdfg.arcs():
        if arc.src in member_set and arc.dst in member_set and not arc.backward:
            indegree[arc.dst] += 1
    ready = [name for name, degree in indegree.items() if degree == 0]
    order = []
    while ready:
        current = ready.pop()
        order.append(current)
        for arc in cdfg.arcs_from(current):
            if arc.backward or arc.dst not in member_set:
                continue
            indegree[arc.dst] -= 1
            if indegree[arc.dst] == 0:
                ready.append(arc.dst)
    if len(order) != len(members):
        raise TimingError("iteration context contains a cycle")
    return order


def relative_arc_dominates(
    cdfg: Cdfg,
    candidate: Arc,
    witness: Arc,
    delays: Optional[DelayModel] = None,
) -> bool:
    """True when ``witness`` provably always arrives no earlier than
    ``candidate`` at their shared destination — the GT3 proof.

    Both sources must live in the same iteration context (the
    destination's innermost loop, or the loop-free top level).  The
    proof compares, for every anchor event that can drive the
    candidate's completion, the candidate's longest max-delay path
    against the witness's longest min-delay path: if every anchor that
    reaches the candidate also reaches the witness with at least as
    much accumulated delay, the witness completes later under *any*
    assignment of anchor times and in-bound delays.
    """
    delays = delays or DelayModel()
    if candidate.dst != witness.dst:
        raise TimingError("candidate and witness must share a destination")
    if candidate.backward or witness.backward:
        return False
    loop = _loop_of(cdfg, candidate.dst)
    if _loop_of(cdfg, candidate.src) != loop or _loop_of(cdfg, witness.src) != loop:
        return False
    dmax = _anchored_longest_paths(cdfg, delays, loop, use_max=True)
    dmin = _anchored_longest_paths(cdfg, delays, loop, use_max=False)
    candidate_anchors = [a for a, dist in dmax.items() if candidate.src in dist]
    if not candidate_anchors:
        return False
    for anchor in candidate_anchors:
        if witness.src not in dmin[anchor]:
            return False
        if dmax[anchor][candidate.src] > dmin[anchor][witness.src]:
            return False
    return True


def critical_path(cdfg: Cdfg, times: ArrivalTimes) -> List[str]:
    """A latest-arrival chain ending at END (node names, in order)."""
    dependencies: Dict[str, Tuple[float, Optional[str]]] = {}
    target = ("END", None) if ("END", None) in times.completion else None
    if target is None:
        raise TimingError("graph has no END timing")
    # walk back greedily over max completion times
    path: List[str] = []
    current: Optional[TimedNode] = target
    visited: Set[TimedNode] = set()
    while current is not None and current not in visited:
        visited.add(current)
        path.append(current[0])
        name, iteration = current
        best: Optional[TimedNode] = None
        best_time = -1.0
        for arc in cdfg.arcs_to(name):
            source = _aligned_source(cdfg, arc, iteration if iteration is not None else 0)
            if source is None or source not in times.completion:
                continue
            latest = times.completion[source][1]
            if latest > best_time:
                best_time = latest
                best = source
        current = best
    path.reverse()
    return path
