"""Well-formedness checks for CDFGs.

``check_well_formed`` enforces the structural invariants the rest of
the flow relies on.  The pass manager calls it after every transform
(and tests before and after), so a transform that corrupts the graph
is caught at its source.
"""

from __future__ import annotations

from typing import List

from repro.cdfg.arc import ArcRole
from repro.cdfg.blocks import innermost_loop
from repro.cdfg.graph import Cdfg
from repro.cdfg.kinds import NodeKind
from repro.errors import ValidationError


def check_well_formed(cdfg: Cdfg) -> None:
    """Raise :class:`ValidationError` on the first violated invariant.

    Checked invariants:

    1. exactly one START and one END node;
    2. the forward arcs (no backward, no iterate arcs) form a DAG;
    3. every node other than START is reachable from START following
       forward + iterate arcs;
    4. block structure: every non-iterate, non-backward arc either stays
       within one block or touches the boundary only at the block's
       root/close nodes;
    5. every LOOP has a matching ENDLOOP (iterate arc) and every IF a
       decision arc to its ENDIF;
    6. scheduling arcs connect nodes of the same functional unit;
    7. backward arcs live inside a loop block.
    """
    problems = collect_problems(cdfg)
    if problems:
        raise ValidationError("; ".join(problems))


def collect_problems(cdfg: Cdfg) -> List[str]:
    """Return a list of invariant violations (empty when well-formed)."""
    problems: List[str] = []

    starts = cdfg.nodes_of_kind(NodeKind.START)
    ends = cdfg.nodes_of_kind(NodeKind.END)
    if len(starts) != 1:
        problems.append(f"expected 1 START node, found {len(starts)}")
    if len(ends) != 1:
        problems.append(f"expected 1 END node, found {len(ends)}")

    # 2: forward arcs form a DAG
    try:
        cdfg.topological_order()
    except Exception as exc:  # CdfgError
        problems.append(str(exc))

    # 3: reachability from START
    if len(starts) == 1:
        seen = {starts[0].name}
        frontier = [starts[0].name]
        while frontier:
            current = frontier.pop()
            for arc in cdfg.arcs_from(current):
                if arc.backward:
                    continue
                if arc.dst not in seen:
                    seen.add(arc.dst)
                    frontier.append(arc.dst)
        # iterate arcs go backwards; also walk them to reach loop roots again
        unreachable = sorted(set(cdfg.node_names()) - seen)
        if unreachable:
            problems.append(f"unreachable from START: {unreachable}")

    # 4: block boundaries
    for arc in cdfg.arcs():
        if cdfg.is_iterate_arc(arc):
            continue
        src_block = cdfg.block_of(arc.src)
        dst_block = cdfg.block_of(arc.dst)
        if src_block == dst_block:
            continue
        src_node = cdfg.node(arc.src)
        dst_node = cdfg.node(arc.dst)
        # crossing is legal only at a root/close node of the inner block
        if dst_node.kind.is_block_open and cdfg.block_of(arc.dst) == src_block:
            continue  # outer level -> nested root (arc targets the root)
        if src_node.kind.is_block_open and cdfg.block_of(arc.src) == dst_block:
            continue  # root -> its members (entry arcs, loop exit arcs)
        if src_node.kind.is_block_close and cdfg.block_of(arc.src) == dst_block:
            continue  # close -> outer level (IF exit)
        if dst_node.kind.is_block_close and _close_block(cdfg, arc.dst) == src_block:
            continue  # member -> close node of its own block
        if src_node.kind.is_block_open and arc.dst in cdfg.block_members(arc.src):
            continue
        if dst_node.kind.is_block_open and arc.src in cdfg.block_members(arc.dst):
            continue  # member -> own root (e.g. condition regalloc arc)
        if _is_entry_arc(cdfg, arc.src, arc.dst):
            continue  # outer-level node -> loop member: a first-iteration
            # ("entry") constraint, produced by GT5.3 safe additions
        problems.append(f"arc crosses block boundary: {arc}")

    # 5: loop/if closure
    for node in cdfg.nodes_of_kind(NodeKind.LOOP):
        if not any(
            cdfg.node(arc.src).kind is NodeKind.ENDLOOP for arc in cdfg.arcs_to(node.name)
        ):
            problems.append(f"LOOP {node.name!r} has no iterate arc")
    for node in cdfg.nodes_of_kind(NodeKind.IF):
        if not any(
            cdfg.node(arc.dst).kind is NodeKind.ENDIF for arc in cdfg.arcs_from(node.name)
        ):
            problems.append(f"IF {node.name!r} has no decision arc to an ENDIF")

    # 6: scheduling arcs stay on one unit
    for arc in cdfg.arcs_with_role(ArcRole.SCHEDULING):
        if cdfg.fu_of(arc.src) != cdfg.fu_of(arc.dst):
            problems.append(f"scheduling arc between different units: {arc}")

    # 7: backward arcs inside a loop
    for arc in cdfg.arcs():
        if not arc.backward:
            continue
        if innermost_loop(cdfg, arc.src) is None:
            problems.append(f"backward arc outside any loop: {arc}")

    return problems


def _close_block(cdfg: Cdfg, close_name: str) -> str:
    """Block root that a close node (ENDLOOP/ENDIF) terminates.

    Close nodes are recorded as members of the *enclosing* block, so we
    recover their own block from the matching root: for ENDLOOP via the
    iterate arc, for ENDIF via the decision arc.
    """
    node = cdfg.node(close_name)
    if node.kind is NodeKind.ENDLOOP:
        for arc in cdfg.arcs_from(close_name):
            if cdfg.node(arc.dst).kind is NodeKind.LOOP:
                return arc.dst
    if node.kind is NodeKind.ENDIF:
        for arc in cdfg.arcs_to(close_name):
            if cdfg.node(arc.src).kind is NodeKind.IF:
                return arc.src
    return "?"


def _is_entry_arc(cdfg: Cdfg, src: str, dst: str) -> bool:
    """True when ``src`` sits at an enclosing level of ``dst``'s block.

    Such an arc fires once per execution of the enclosing level and is
    consumed by ``dst``'s first firing after its loop is entered.
    """
    src_block = cdfg.block_of(src)
    current = cdfg.block_of(dst)
    while current is not None:
        if cdfg.block_of(current) == src_block:
            return True
        current = cdfg.block_of(current)
    return False
