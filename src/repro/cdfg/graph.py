"""The CDFG container.

A :class:`Cdfg` stores nodes, constraint arcs, per-functional-unit
schedules and block membership.  It offers the structural queries that
the transformations (:mod:`repro.transforms`) and the extraction step
(:mod:`repro.afsm.extract`) need: arc lookup, reachability with
exclusions, schedule navigation and node replacement.

Parallel arcs (same endpoints) are merged into a single
:class:`~repro.cdfg.arc.Arc` whose tag set is the union — this mirrors
the paper, where one drawn arc can be "a register allocation constraint
... and a data dependency arc" at the same time.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.cdfg.arc import Arc, ArcRole
from repro.cdfg.kinds import NodeKind
from repro.cdfg.node import Node
from repro.errors import CdfgError

#: Pseudo functional-unit name used for the environment (START/END).
ENV = "ENV"


class Cdfg:
    """A scheduled, resource-bound control-data flow graph."""

    def __init__(self, name: str = "cdfg"):
        self.name = name
        #: monotone mutation counter; every structural change bumps it,
        #: which also drops the memoized analyses keyed on this graph
        self._generation = 0
        self._analysis_cache: Dict[object, object] = {}
        self._nodes: Dict[str, Node] = {}
        self._arcs: Dict[Tuple[str, str], Arc] = {}
        self._succ: Dict[str, Dict[str, Arc]] = {}
        self._pred: Dict[str, Dict[str, Arc]] = {}
        #: node name -> innermost enclosing block root name (None = top level)
        self._block_of: Dict[str, Optional[str]] = {}
        #: node name -> branch within an IF block ("then"/"else"), else None
        self._branch_of: Dict[str, Optional[str]] = {}
        #: FU name -> node names bound to it, in schedule (program) order
        self._fu_schedule: Dict[str, List[str]] = {}
        #: values of read-only input registers (problem parameters)
        self.inputs: Dict[str, float] = {}
        #: initial values of writable registers (simulation start state)
        self.initial_registers: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # analysis caching
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Number of structural mutations this graph has seen.

        Analyses memoized against the graph (reachability closures,
        anchored longest-path tables, ...) are stored in
        :meth:`analysis_cache`, which is cleared whenever the
        generation advances — a cached result is therefore always
        consistent with the current structure.
        """
        return self._generation

    def invalidate_analyses(self) -> None:
        """Advance the generation and drop every memoized analysis.

        Called automatically by all mutating methods; exposed for code
        that changes graph semantics through a side channel.
        """
        self._generation += 1
        if self._analysis_cache:
            self._analysis_cache.clear()

    def analysis_cache(self) -> Dict[object, object]:
        """Per-graph memo table, cleared on every structural mutation.

        Keys are chosen by the analyses themselves (tuples starting
        with the analysis name).  Entries must depend only on graph
        structure plus whatever the key encodes.
        """
        return self._analysis_cache

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def add_node(
        self,
        node: Node,
        block: Optional[str] = None,
        branch: Optional[str] = None,
    ) -> Node:
        """Add ``node``; ``block`` is the enclosing block root name.

        ``branch`` is ``"then"``/``"else"`` when the enclosing block is
        an IF block, otherwise ``None``.
        """
        if node.name in self._nodes:
            raise CdfgError(f"duplicate node {node.name!r}")
        if block is not None and block not in self._nodes:
            raise CdfgError(f"unknown block root {block!r} for node {node.name!r}")
        self.invalidate_analyses()
        self._nodes[node.name] = node
        self._succ[node.name] = {}
        self._pred[node.name] = {}
        self._block_of[node.name] = block
        self._branch_of[node.name] = branch
        if node.fu is not None:
            self._fu_schedule.setdefault(node.fu, []).append(node.name)
        return node

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise CdfgError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node_names(self) -> Iterator[str]:
        return iter(self._nodes.keys())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def operation_nodes(self) -> List[Node]:
        return [node for node in self._nodes.values() if node.is_operation]

    def nodes_of_kind(self, kind: NodeKind) -> List[Node]:
        return [node for node in self._nodes.values() if node.kind is kind]

    @property
    def start(self) -> Node:
        return self._single(NodeKind.START)

    @property
    def end(self) -> Node:
        return self._single(NodeKind.END)

    def _single(self, kind: NodeKind) -> Node:
        found = self.nodes_of_kind(kind)
        if len(found) != 1:
            raise CdfgError(f"expected exactly one {kind} node, found {len(found)}")
        return found[0]

    # ------------------------------------------------------------------
    # blocks and schedules
    # ------------------------------------------------------------------
    def block_of(self, name: str) -> Optional[str]:
        """Innermost block root containing ``name`` (None = top level)."""
        self.node(name)
        return self._block_of[name]

    def branch_of(self, name: str) -> Optional[str]:
        """Branch ("then"/"else") of a node directly inside an IF block."""
        self.node(name)
        return self._branch_of.get(name)

    def block_members(self, root: str) -> List[str]:
        """Names of the nodes whose innermost block is ``root``.

        The root and close nodes themselves are *not* members (they
        belong to the enclosing block), matching the paper's convention
        that arcs may enter/exit a block only at the root.
        """
        self.node(root)
        return [name for name, blk in self._block_of.items() if blk == root]

    def functional_units(self) -> List[str]:
        return list(self._fu_schedule.keys())

    def fu_schedule(self, fu: str) -> List[str]:
        """Node names bound to ``fu`` in schedule order (copy)."""
        return list(self._fu_schedule.get(fu, []))

    def fu_of(self, name: str) -> str:
        """The controller that owns ``name`` (ENV for START/END)."""
        node = self.node(name)
        return node.fu if node.fu is not None else ENV

    def schedule_neighbors(self, name: str) -> Tuple[Optional[str], Optional[str]]:
        """(previous, next) node of ``name`` in its FU schedule."""
        node = self.node(name)
        if node.fu is None:
            return (None, None)
        order = self._fu_schedule[node.fu]
        index = order.index(name)
        prev_name = order[index - 1] if index > 0 else None
        next_name = order[index + 1] if index + 1 < len(order) else None
        return (prev_name, next_name)

    # ------------------------------------------------------------------
    # arcs
    # ------------------------------------------------------------------
    def add_arc(self, arc: Arc) -> Arc:
        """Insert ``arc``, merging tags with an existing parallel arc."""
        for endpoint in (arc.src, arc.dst):
            if endpoint not in self._nodes:
                raise CdfgError(f"arc endpoint {endpoint!r} not in graph")
        existing = self._arcs.get(arc.key)
        if existing is not None:
            arc = existing.merged_with(arc)
        self.invalidate_analyses()
        self._arcs[arc.key] = arc
        self._succ[arc.src][arc.dst] = arc
        self._pred[arc.dst][arc.src] = arc
        return arc

    def remove_arc(self, src: str, dst: str) -> Arc:
        try:
            arc = self._arcs.pop((src, dst))
        except KeyError:
            raise CdfgError(f"no arc {src!r} -> {dst!r}") from None
        self.invalidate_analyses()
        del self._succ[src][dst]
        del self._pred[dst][src]
        return arc

    def has_arc(self, src: str, dst: str) -> bool:
        return (src, dst) in self._arcs

    def arc(self, src: str, dst: str) -> Arc:
        try:
            return self._arcs[(src, dst)]
        except KeyError:
            raise CdfgError(f"no arc {src!r} -> {dst!r}") from None

    def arcs(self) -> List[Arc]:
        return list(self._arcs.values())

    def arcs_from(self, name: str) -> List[Arc]:
        return list(self._succ[name].values())

    def arcs_to(self, name: str) -> List[Arc]:
        return list(self._pred[name].values())

    def successors(self, name: str) -> List[str]:
        return list(self._succ[name].keys())

    def predecessors(self, name: str) -> List[str]:
        return list(self._pred[name].keys())

    def arc_count(self) -> int:
        return len(self._arcs)

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    def is_iterate_arc(self, arc: Arc) -> bool:
        """True for the ENDLOOP -> LOOP back edge of a loop block."""
        return (
            self.node(arc.src).kind is NodeKind.ENDLOOP
            and self.node(arc.dst).kind is NodeKind.LOOP
        )

    def forward_arcs(self) -> List[Arc]:
        """Arcs of the single-iteration DAG.

        Excludes GT1 backward arcs and ENDLOOP->LOOP iterate arcs; the
        remaining arcs must form a DAG (checked by
        :func:`repro.cdfg.validate.check_well_formed`).
        """
        return [
            arc
            for arc in self._arcs.values()
            if not arc.backward and not self.is_iterate_arc(arc)
        ]

    def reachable_from(
        self,
        source: str,
        exclude_arc: Optional[Tuple[str, str]] = None,
        include_backward: bool = False,
    ) -> Set[str]:
        """Nodes reachable from ``source`` along forward arcs.

        ``exclude_arc`` skips one arc — used by GT2's dominated-arc
        test (is ``dst`` still reachable without the arc itself?).
        ``include_backward`` also follows backward arcs (used by
        cross-iteration analyses); iterate arcs are never followed.
        """
        seen: Set[str] = {source}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for arc in self._succ[current].values():
                if exclude_arc is not None and arc.key == exclude_arc:
                    continue
                if self.is_iterate_arc(arc):
                    continue
                if arc.backward and not include_backward:
                    continue
                if arc.dst not in seen:
                    seen.add(arc.dst)
                    queue.append(arc.dst)
        return seen

    def implies(self, src: str, dst: str, exclude_arc: Optional[Tuple[str, str]] = None) -> bool:
        """True if a forward path of constraints leads from src to dst."""
        return dst in self.reachable_from(src, exclude_arc=exclude_arc)

    def topological_order(self) -> List[str]:
        """Topological order of the single-iteration DAG.

        Raises :class:`CdfgError` if the forward arcs contain a cycle.
        """
        indegree: Dict[str, int] = {name: 0 for name in self._nodes}
        for arc in self.forward_arcs():
            indegree[arc.dst] += 1
        ready = deque(name for name, deg in indegree.items() if deg == 0)
        order: List[str] = []
        while ready:
            current = ready.popleft()
            order.append(current)
            for arc in self._succ[current].values():
                if arc.backward or self.is_iterate_arc(arc):
                    continue
                indegree[arc.dst] -= 1
                if indegree[arc.dst] == 0:
                    ready.append(arc.dst)
        if len(order) != len(self._nodes):
            raise CdfgError("forward constraint arcs contain a cycle")
        return order

    # ------------------------------------------------------------------
    # mutation helpers for transforms
    # ------------------------------------------------------------------
    def replace_node(self, old_name: str, new_node: Node) -> Node:
        """Replace node ``old_name`` by ``new_node``, rewiring all arcs.

        The new node keeps the old node's position in its FU schedule
        and block.  Parallel arcs created by the rewiring are merged.
        Used by GT4 (assignment merging).
        """
        old = self.node(old_name)
        if new_node.fu != old.fu:
            raise CdfgError("replacement node must stay on the same functional unit")
        incoming = [arc for arc in self.arcs_to(old_name)]
        outgoing = [arc for arc in self.arcs_from(old_name)]
        block = self._block_of[old_name]
        branch = self._branch_of.get(old_name)

        for arc in incoming:
            self.remove_arc(arc.src, arc.dst)
        for arc in outgoing:
            self.remove_arc(arc.src, arc.dst)

        self.invalidate_analyses()
        del self._nodes[old_name]
        del self._succ[old_name]
        del self._pred[old_name]
        del self._block_of[old_name]
        self._branch_of.pop(old_name, None)
        if old.fu is not None:
            index = self._fu_schedule[old.fu].index(old_name)
            self._fu_schedule[old.fu].pop(index)

        if new_node.name in self._nodes:
            # merging into an existing node: just rewire
            target = new_node.name
            replacement = self.node(target)
        else:
            self._nodes[new_node.name] = new_node
            self._succ[new_node.name] = {}
            self._pred[new_node.name] = {}
            self._block_of[new_node.name] = block
            self._branch_of[new_node.name] = branch
            if new_node.fu is not None:
                self._fu_schedule[new_node.fu].insert(index, new_node.name)
            target = new_node.name
            replacement = new_node

        for arc in incoming:
            if arc.src == target:
                continue
            self.add_arc(Arc(arc.src, target, arc.tags, backward=arc.backward, label=arc.label))
        for arc in outgoing:
            if arc.dst == target:
                continue
            self.add_arc(Arc(target, arc.dst, arc.tags, backward=arc.backward, label=arc.label))
        return replacement

    def remove_node(self, name: str) -> Node:
        """Remove a node and every arc touching it."""
        node = self.node(name)
        for arc in list(self.arcs_to(name)):
            self.remove_arc(arc.src, arc.dst)
        for arc in list(self.arcs_from(name)):
            self.remove_arc(arc.src, arc.dst)
        self.invalidate_analyses()
        del self._nodes[name]
        del self._succ[name]
        del self._pred[name]
        del self._block_of[name]
        self._branch_of.pop(name, None)
        if node.fu is not None:
            self._fu_schedule[node.fu].remove(name)
        return node

    def copy(self, name: Optional[str] = None) -> "Cdfg":
        """Deep-enough copy: nodes/arcs are immutable and shared."""
        clone = Cdfg(name or self.name)
        clone._nodes = dict(self._nodes)
        clone._arcs = dict(self._arcs)
        clone._succ = {key: dict(value) for key, value in self._succ.items()}
        clone._pred = {key: dict(value) for key, value in self._pred.items()}
        clone._block_of = dict(self._block_of)
        clone._branch_of = dict(self._branch_of)
        clone._fu_schedule = {key: list(value) for key, value in self._fu_schedule.items()}
        clone.inputs = dict(self.inputs)
        clone.initial_registers = dict(self.initial_registers)
        return clone

    def __getstate__(self):
        # memoized analyses are derived data and may be large (bitset
        # closures); never ship them across pickle boundaries (e.g. to
        # explore_design_space worker processes)
        state = self.__dict__.copy()
        state["_analysis_cache"] = {}
        return state

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` for external analysis.

        Node attributes: ``kind``, ``fu``, ``label``; edge attributes:
        ``roles`` (sorted role names), ``registers``, ``backward``.
        The iterate (ENDLOOP->LOOP) arcs are included, so cycle-based
        algorithms see the loop structure.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for node in self.nodes():
            graph.add_node(
                node.name,
                kind=node.kind.value,
                fu=self.fu_of(node.name),
                label=node.label(),
            )
        for arc in self.arcs():
            graph.add_edge(
                arc.src,
                arc.dst,
                roles=sorted(role.value for role in arc.roles),
                registers=sorted(arc.registers),
                backward=arc.backward,
            )
        return graph

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def arcs_with_role(self, role: ArcRole) -> List[Arc]:
        return [arc for arc in self._arcs.values() if arc.has_role(role)]

    def inter_fu_arcs(self) -> List[Arc]:
        """Arcs whose endpoints live on different controllers.

        Each such arc needs a communication channel in the target
        architecture; START/END count as the environment controller.
        """
        return [
            arc
            for arc in self._arcs.values()
            if self.fu_of(arc.src) != self.fu_of(arc.dst)
        ]

    def summary(self) -> str:
        lines = [f"CDFG {self.name!r}: {len(self)} nodes, {self.arc_count()} arcs"]
        for fu in self.functional_units():
            lines.append(f"  {fu}: {', '.join(self._fu_schedule[fu])}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Cdfg {self.name!r} nodes={len(self)} arcs={self.arc_count()}>"
