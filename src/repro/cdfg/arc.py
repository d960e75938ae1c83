"""Constraint arcs of the CDFG.

Paper Section 2.1 distinguishes four arc roles: control flow,
scheduling within a functional unit, data dependency and register
allocation.  A single arc may carry several roles — the paper's own
example is ``(M1 := U * X1, U := U - M1)``, "a register allocation
constraint arc with respect to U, and ... a data dependency arc with
respect to M1".  We therefore attach a *set* of :class:`ArcTag` (role +
register) to each arc.

GT1 additionally introduces *backward arcs*, which are ignored during
the first execution of a loop body (pre-enabled constraints).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional


class ArcRole(enum.Enum):
    """Why a constraint arc exists."""

    #: Control arcs from/to START, END, LOOP, ENDLOOP, IF, ENDIF.
    CONTROL = "control"
    #: Scheduling arcs ordering the operations bound to one FU.
    SCHEDULING = "scheduling"
    #: Producer -> consumer data dependencies.
    DATA = "data"
    #: Anti-dependencies protecting register reuse.
    REGISTER = "register"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ArcTag:
    """One role of an arc, with the register it concerns (if any).

    ``register`` is the data value carried (DATA), the protected
    register (REGISTER), or ``None`` for CONTROL/SCHEDULING.
    """

    role: ArcRole
    register: Optional[str] = None

    def __str__(self) -> str:
        if self.register is None:
            return self.role.value
        return f"{self.role.value}[{self.register}]"


@dataclass(frozen=True)
class Arc:
    """A constraint arc ``src -> dst`` with its set of role tags.

    Attributes
    ----------
    src, dst:
        Node names.
    tags:
        Non-empty set of :class:`ArcTag`.
    backward:
        True for GT1 backward arcs, which are pre-enabled for the first
        iteration of their loop.
    label:
        Optional label matching the paper's figure numbering ("arc 5"
        etc.), used by tests and traces.
    """

    src: str
    dst: str
    tags: FrozenSet[ArcTag] = field(default_factory=frozenset)
    backward: bool = False
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.tags:
            raise ValueError(f"arc {self.src!r} -> {self.dst!r} needs >= 1 tag")
        if self.src == self.dst:
            raise ValueError(f"self-loop arc on {self.src!r}")

    @property
    def roles(self) -> FrozenSet[ArcRole]:
        return frozenset(tag.role for tag in self.tags)

    def has_role(self, role: ArcRole) -> bool:
        return any(tag.role is role for tag in self.tags)

    @property
    def registers(self) -> FrozenSet[str]:
        """Registers named by any tag of the arc."""
        return frozenset(tag.register for tag in self.tags if tag.register is not None)

    @property
    def key(self) -> tuple:
        """Identity of the arc inside a graph: its endpoints."""
        return (self.src, self.dst)

    def merged_with(self, other: "Arc") -> "Arc":
        """Union the tags of two parallel arcs (same endpoints).

        A merged arc is backward only if *both* constituents are
        backward: a non-backward role must still hold during the first
        iteration.
        """
        if other.key != self.key:
            raise ValueError("can only merge arcs with identical endpoints")
        return Arc(
            self.src,
            self.dst,
            self.tags | other.tags,
            backward=self.backward and other.backward,
            label=self.label or other.label,
        )

    def __str__(self) -> str:
        tags = ", ".join(sorted(str(tag) for tag in self.tags))
        marker = " (backward)" if self.backward else ""
        return f"{self.src} -> {self.dst} [{tags}]{marker}"


def control_tag() -> ArcTag:
    return ArcTag(ArcRole.CONTROL)


def scheduling_tag() -> ArcTag:
    return ArcTag(ArcRole.SCHEDULING)


def data_tag(register: str) -> ArcTag:
    return ArcTag(ArcRole.DATA, register)


def register_tag(register: str) -> ArcTag:
    return ArcTag(ArcRole.REGISTER, register)
