"""Block structure of a CDFG.

The paper restricts CDFGs to be *block-structured*: the nodes between
IF/ENDIF and LOOP/ENDLOOP form a block, and data/control/register arcs
never cross a block boundary except at the block root.  This module
reconstructs the block tree from a graph's block-membership map and
provides the queries transforms need (matching close node, member
sets, loop detection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cdfg.graph import Cdfg
from repro.cdfg.kinds import NodeKind
from repro.errors import BlockStructureError


@dataclass
class Block:
    """A block of the CDFG.

    The synthetic *top-level block* has ``root is None`` and spans the
    region between START and END.
    """

    root: Optional[str]
    close: Optional[str]
    #: names of nodes whose innermost block is this one (excludes root/close)
    members: List[str] = field(default_factory=list)
    children: List["Block"] = field(default_factory=list)
    parent: Optional["Block"] = None

    @property
    def is_loop(self) -> bool:
        return self.root is not None and self.root_kind is NodeKind.LOOP

    @property
    def is_top(self) -> bool:
        return self.root is None

    root_kind: Optional[NodeKind] = None

    def all_members(self) -> List[str]:
        """Members of this block and of every nested block (plus nested
        roots/closes)."""
        names = list(self.members)
        for child in self.children:
            if child.root is not None:
                names.append(child.root)
            if child.close is not None:
                names.append(child.close)
            names.extend(child.all_members())
        return names

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Block root={self.root!r} members={len(self.members)} children={len(self.children)}>"


def matching_close(cdfg: Cdfg, root: str) -> str:
    """Find the ENDLOOP/ENDIF node matching a LOOP/IF root.

    The close node is the unique block-close node whose innermost block
    is ``root``... except that close nodes live in the *enclosing*
    block in our membership map.  We instead locate it structurally:
    the close node of a LOOP is the source of the iterate arc into it;
    the close node of an IF is the unique ENDIF successor-of-members.
    """
    node = cdfg.node(root)
    if node.kind is NodeKind.LOOP:
        for arc in cdfg.arcs_to(root):
            if cdfg.node(arc.src).kind is NodeKind.ENDLOOP:
                return arc.src
        raise BlockStructureError(f"LOOP {root!r} has no ENDLOOP iterate arc")
    if node.kind is NodeKind.IF:
        # the builder always adds a direct IF -> ENDIF control arc (used
        # for branch-skip semantics), so the match is a direct successor
        for arc in cdfg.arcs_from(root):
            if cdfg.node(arc.dst).kind is NodeKind.ENDIF:
                return arc.dst
        raise BlockStructureError(f"IF {root!r} has no matching ENDIF")
    raise BlockStructureError(f"{root!r} is not a block root")


def block_tree(cdfg: Cdfg) -> Block:
    """Build the block tree of ``cdfg`` from its membership map."""
    top = Block(root=None, close=None, root_kind=None)
    blocks: Dict[Optional[str], Block] = {None: top}

    # create a Block per root node
    for node in cdfg.nodes():
        if node.kind.is_block_open:
            blocks[node.name] = Block(
                root=node.name,
                close=matching_close(cdfg, node.name),
                root_kind=node.kind,
            )

    # attach members and children
    for name in cdfg.node_names():
        kind = cdfg.node(name).kind
        enclosing = cdfg.block_of(name)
        if enclosing not in blocks:
            raise BlockStructureError(f"node {name!r} claims unknown block {enclosing!r}")
        if kind.is_block_open:
            child = blocks[name]
            parent = blocks[enclosing]
            child.parent = parent
            parent.children.append(child)
        elif kind.is_block_close:
            continue  # close nodes are represented via Block.close
        elif kind in (NodeKind.START, NodeKind.END):
            continue
        else:
            blocks[enclosing].members.append(name)
    return top


def enclosing_loops(cdfg: Cdfg, name: str) -> List[str]:
    """Roots of all loops enclosing ``name``, innermost first."""
    loops: List[str] = []
    current = cdfg.block_of(name)
    while current is not None:
        if cdfg.node(current).kind is NodeKind.LOOP:
            loops.append(current)
        current = cdfg.block_of(current)
    return loops


def innermost_loop(cdfg: Cdfg, name: str) -> Optional[str]:
    """Root of the innermost loop containing ``name``, or None."""
    current = cdfg.block_of(name)
    while current is not None:
        if cdfg.node(current).kind is NodeKind.LOOP:
            return current
        current = cdfg.block_of(current)
    return None
