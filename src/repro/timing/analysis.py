"""The GT3 relative-timing proof: anchored longest paths.

GT3 ("relative timing") removes a constraint arc when it is provably
never the *last* constraint to arrive at its destination — the paper:
"a detailed timing analysis must be performed ... it must be verified
that the removed constraint arc is under no execution path the last to
occur."

:func:`relative_arc_dominates` proves that for one (candidate, witness)
pair of arcs sharing a destination, with bounded ``[min, max]`` node
delays.  Within one iteration context (a loop body, or the loop-free
top level) it computes, from every *anchor event* that feeds the
context, the longest max-delay path to each node and the longest
min-delay path through unconditionally executed nodes.  The witness
dominates when every anchor reaching the candidate's source also
reaches the witness's source with at least as much accumulated delay:
the witness then completes later under any anchor times and any
in-bound delays, so removing the candidate cannot change when the
destination fires.  The proof is conservative: it may keep a removable
arc, never the reverse.  GT3, GT5.2 and the flow proof's
``timing-witnesses`` obligation all call it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import perf
from repro.cdfg.arc import Arc
from repro.cdfg.blocks import innermost_loop
from repro.cdfg.graph import Cdfg
from repro.cdfg.kinds import NodeKind
from repro.errors import TimingError
from repro.timing.delays import DelayModel


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
            if innermost_loop(cdfg, name) is None
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
    loop = innermost_loop(cdfg, candidate.dst)
    if any(innermost_loop(cdfg, arc.src) != loop for arc in (candidate, witness)):
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
