"""Signals of a burst-mode controller."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class SignalKind(enum.Enum):
    """What a controller wire is connected to."""

    #: Global inter-controller ready wire (single-transition channel).
    GLOBAL_READY = "global"
    #: Local request to a datapath element (mux select, FU go, write).
    LOCAL_REQ = "req"
    #: Local acknowledgment from a datapath element.
    LOCAL_ACK = "ack"
    #: Sampled level (XBM conditional), e.g. a condition register bit.
    CONDITIONAL = "cond"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Signal:
    """A named controller wire.

    ``is_input`` is from the controller's perspective; ``partner``
    names the matching req wire for an ack (used by LT4 to find the
    pair).  ``action`` carries the datapath binding for local requests
    (interpreted by :mod:`repro.sim.datapath`).
    """

    name: str
    kind: SignalKind
    is_input: bool
    partner: Optional[str] = None
    action: Optional[tuple] = None
    #: wire level at reset (pre-enabled backward channels start at 1:
    #: the sender's output flop is initialized high, which the
    #: receivers consume as their first pending transition)
    initial_level: int = 0
    #: True for a global done whose channel delivers a register some
    #: remote decision node (IF/LOOP) samples as its *condition*.  The
    #: consumer reads the condition level right after the done, with no
    #: datapath delay in between, so such a done must stay behind its
    #: fragment's register write — LT1 must not hoist it to the latch
    #: burst (bundled-data timing covers operand reads, not condition
    #: samples).
    guards_condition: bool = False

    def __str__(self) -> str:
        return self.name
