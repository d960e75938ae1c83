"""Node kinds of the CDFG (paper Section 2.1)."""

from __future__ import annotations

import enum


class NodeKind(enum.Enum):
    """Kind of a CDFG node.

    ``OPERATION`` nodes carry one or more RTL statements (more than one
    only after GT4 merges an assignment into an operation node).  The
    structural kinds delimit blocks and the overall graph:

    - ``START``/``END``: unique entry/exit, bound to no functional unit;
    - ``LOOP``/``ENDLOOP``: a while-loop block; the LOOP node examines
      the loop variable and either enters the body or exits;
    - ``IF``/``ENDIF``: a conditional block; the IF node examines a
      condition register and enables one of two branches.
    """

    START = "start"
    END = "end"
    LOOP = "loop"
    ENDLOOP = "endloop"
    IF = "if"
    ENDIF = "endif"
    OPERATION = "operation"

    @property
    def is_block_open(self) -> bool:
        """True for nodes that open a block (LOOP, IF)."""
        return self in (NodeKind.LOOP, NodeKind.IF)

    @property
    def is_block_close(self) -> bool:
        """True for nodes that close a block (ENDLOOP, ENDIF)."""
        return self in (NodeKind.ENDLOOP, NodeKind.ENDIF)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
