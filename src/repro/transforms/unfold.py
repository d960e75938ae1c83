"""Cross-iteration reachability via loop unfolding.

Several transforms need to answer "does a path of constraints lead
from node *a* in iteration *k* to node *b* in iteration *k+d*?" —
GT1 step B prunes implied backward arcs with it, GT5's multiplexing
check uses it to prove two channels are never concurrently active, and
the precedence-preservation checker compares unfolded orderings.

:class:`UnfoldedReach` materializes ``unfold`` copies of every loop
iteration (non-nested loops only, like :mod:`repro.timing.analysis`)
and answers reachability queries over the copies.

Scaling: instead of one BFS per query, the full reachability closure
is computed once (lazily, on the first query) as one bitset per node
copy — strongly connected components are condensed and bitsets are
OR-propagated in reverse topological order — after which
:meth:`~UnfoldedReach.path_exists` is a single bit test.  Because the
unfolded graph is rebuilt by many callers on the same graph state,
:func:`cached_unfolded_reach` additionally memoizes whole instances in
the graph's :meth:`~repro.cdfg.graph.Cdfg.analysis_cache`, which the
generation counter invalidates on any mutation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro import perf
from repro.cdfg.blocks import innermost_loop
from repro.cdfg.graph import Cdfg
from repro.cdfg.kinds import NodeKind
from repro.errors import TransformError

#: A node copy: (name, iteration index or None for out-of-loop nodes).
Copy = Tuple[str, Optional[int]]


def _is_iterated(cdfg: Cdfg, name: str) -> bool:
    node = cdfg.node(name)
    if node.kind in (NodeKind.LOOP, NodeKind.ENDLOOP):
        return True
    return innermost_loop(cdfg, name) is not None


def cached_unfolded_reach(cdfg: Cdfg, unfold: int = 2) -> "UnfoldedReach":
    """A (possibly shared) :class:`UnfoldedReach` for ``cdfg``.

    Memoized per graph and ``unfold`` in the graph's analysis cache, so
    repeated requests on an unmutated graph reuse both the unfolded
    successor lists and any reachability closure already computed.
    Falls back to a fresh instance when caching is globally disabled
    (:func:`repro.perf.caching_enabled`).
    """
    if not perf.caching_enabled():
        return UnfoldedReach(cdfg, unfold=unfold)
    cache = cdfg.analysis_cache()
    key = ("unfolded_reach", unfold)
    reach = cache.get(key)
    if reach is None:
        reach = cache[key] = UnfoldedReach(cdfg, unfold=unfold)
    return reach


class UnfoldedReach:
    """Reachability over an ``unfold``-copy loop unfolding of a CDFG."""

    def __init__(self, cdfg: Cdfg, unfold: int = 2):
        if unfold < 1:
            raise TransformError("unfold", "needs unfold >= 1")
        for node in cdfg.nodes_of_kind(NodeKind.LOOP):
            if innermost_loop(cdfg, node.name) is not None:
                raise TransformError("unfold", f"nested loop {node.name!r} unsupported")
        self.cdfg = cdfg
        self.unfold = unfold
        self._iterated: Set[str] = {
            name for name in cdfg.node_names() if _is_iterated(cdfg, name)
        }
        self._succ: Dict[Copy, List[Copy]] = {}
        self._build()
        self._order: List[Copy] = list(self._succ)
        self._index: Dict[Copy, int] = {copy: i for i, copy in enumerate(self._order)}
        #: per-copy reachability bitsets, computed lazily on first query
        self._closure: Optional[List[int]] = None

    def _build(self) -> None:
        cdfg = self.cdfg
        iterated = self._iterated
        for name in cdfg.node_names():
            for copy in self.copies(name):
                self._succ.setdefault(copy, [])
        for arc in cdfg.arcs():
            src_iterated = arc.src in iterated
            dst_iterated = arc.dst in iterated
            cross = arc.backward or cdfg.is_iterate_arc(arc)
            if not src_iterated and not dst_iterated:
                self._succ[(arc.src, None)].append((arc.dst, None))
            elif not src_iterated:
                self._succ[(arc.src, None)].append((arc.dst, 0))
            elif not dst_iterated:
                self._succ[(arc.src, self.unfold - 1)].append((arc.dst, None))
            else:
                for k in range(self.unfold):
                    if cross:
                        if k + 1 < self.unfold:
                            self._succ[(arc.src, k)].append((arc.dst, k + 1))
                    else:
                        self._succ[(arc.src, k)].append((arc.dst, k))

    def is_iterated(self, name: str) -> bool:
        """True when ``name`` executes once per loop iteration."""
        return name in self._iterated

    def copies(self, name: str) -> List[Copy]:
        if name in self._iterated:
            return [(name, k) for k in range(self.unfold)]
        return [(name, None)]

    # ------------------------------------------------------------------
    # closure
    # ------------------------------------------------------------------
    def _ensure_closure(self) -> List[int]:
        """Reachability bitsets for every copy (index order).

        Tarjan's algorithm (iterative) condenses strongly connected
        components; components are emitted successors-first, so one
        OR-propagation pass in emission order yields the closure.  Each
        copy's set includes the copy itself, matching the BFS this
        replaces.
        """
        if self._closure is not None:
            return self._closure
        index_of = self._index
        succ: List[List[int]] = [
            [index_of[target] for target in self._succ[copy]] for copy in self._order
        ]
        n = len(succ)
        visited = [False] * n
        on_stack = [False] * n
        num = [0] * n
        low = [0] * n
        comp = [-1] * n
        comp_members: List[List[int]] = []
        tarjan_stack: List[int] = []
        counter = 0
        for root in range(n):
            if visited[root]:
                continue
            work: List[Tuple[int, int]] = [(root, 0)]
            while work:
                vertex, next_edge = work[-1]
                if next_edge == 0:
                    visited[vertex] = True
                    num[vertex] = low[vertex] = counter
                    counter += 1
                    tarjan_stack.append(vertex)
                    on_stack[vertex] = True
                descended = False
                edges = succ[vertex]
                for i in range(next_edge, len(edges)):
                    target = edges[i]
                    if not visited[target]:
                        work[-1] = (vertex, i + 1)
                        work.append((target, 0))
                        descended = True
                        break
                    if on_stack[target]:
                        low[vertex] = min(low[vertex], num[target])
                if descended:
                    continue
                if low[vertex] == num[vertex]:
                    members: List[int] = []
                    while True:
                        popped = tarjan_stack.pop()
                        on_stack[popped] = False
                        comp[popped] = len(comp_members)
                        members.append(popped)
                        if popped == vertex:
                            break
                    comp_members.append(members)
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[vertex])
        # components only point at earlier-emitted components
        comp_bits: List[int] = [0] * len(comp_members)
        for comp_id, members in enumerate(comp_members):
            bits = 0
            for vertex in members:
                bits |= 1 << vertex
                for target in succ[vertex]:
                    target_comp = comp[target]
                    if target_comp != comp_id:
                        bits |= comp_bits[target_comp]
            comp_bits[comp_id] = bits
        self._closure = [comp_bits[comp[vertex]] for vertex in range(n)]
        return self._closure

    def reachable(self, source: Copy) -> Set[Copy]:
        closure = self._ensure_closure()
        bits = closure[self._index[source]]
        order = self._order
        result: Set[Copy] = set()
        while bits:
            lowest = bits & -bits
            result.add(order[lowest.bit_length() - 1])
            bits ^= lowest
        return result

    def path_exists(self, source: Copy, target: Copy) -> bool:
        target_index = self._index.get(target)
        if target_index is None:
            return False
        closure = self._ensure_closure()
        return bool(closure[self._index[source]] >> target_index & 1)

    def cross_instances(self, src: str, dst: str) -> Set[Tuple[Copy, Copy]]:
        """The unfolded edge instances a *cross* (backward/iterate) arc
        ``src -> dst`` contributes, per the :meth:`_build` mapping."""
        if src in self._iterated and dst in self._iterated:
            return {
                ((src, k), (dst, k + 1)) for k in range(self.unfold - 1)
            }
        return set()

    def path_exists_avoiding(
        self, source: Copy, target: Copy, banned: Set[Tuple[Copy, Copy]]
    ) -> bool:
        """BFS variant of :meth:`path_exists` that ignores the edge
        instances in ``banned`` — used by GT1's pruning, which must ask
        "is this arc implied by a path of the *others*?" without
        mutating (and hence re-unfolding) the graph per candidate."""
        if target not in self._index:
            return False
        if source == target:
            return True
        seen = {source}
        frontier = [source]
        while frontier:
            current = frontier.pop()
            for successor in self._succ[current]:
                if successor in seen or (current, successor) in banned:
                    continue
                if successor == target:
                    return True
                seen.add(successor)
                frontier.append(successor)
        return False

    def implies_same_iteration(self, src: str, dst: str) -> bool:
        """Path from ``src`` to ``dst`` within one iteration (or between
        the unique copies for out-of-loop nodes)."""
        src_copy = (src, 0) if src in self._iterated else (src, None)
        dst_copy = (dst, 0) if dst in self._iterated else (dst, None)
        return self.path_exists(src_copy, dst_copy)

    def implies_next_iteration(self, src: str, dst: str) -> bool:
        """Path from ``src`` in iteration 0 to ``dst`` in iteration 1."""
        if not (src in self._iterated and dst in self._iterated):
            raise TransformError("unfold", "next-iteration query needs in-loop nodes")
        if self.unfold < 2:
            raise TransformError("unfold", "next-iteration query needs unfold >= 2")
        return self.path_exists((src, 0), (dst, 1))
