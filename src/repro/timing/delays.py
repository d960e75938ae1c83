"""Per-operation bounded delays.

Delays are intervals ``[min, max]`` in arbitrary time units, keyed by
operator class.  The defaults reflect the usual datapath hierarchy —
multiplies dominate, ALU operations are a few gate delays, register
copies and structural decisions (LOOP/IF condition examination) are
cheap.  All values can be overridden per functional unit or per
operator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import perf
from repro.cdfg.node import Node
from repro.errors import TimingError

Interval = Tuple[float, float]

#: Default delay intervals by operator.
DEFAULT_OPERATOR_DELAYS: Dict[str, Interval] = {
    "+": (2.0, 3.0),
    "-": (2.0, 3.0),
    "*": (6.0, 9.0),
    "/": (8.0, 12.0),
    "<": (1.0, 2.0),
    "<=": (1.0, 2.0),
    ">": (1.0, 2.0),
    ">=": (1.0, 2.0),
    "==": (1.0, 2.0),
    "!=": (1.0, 2.0),
}

#: Register copy (no functional-unit use).
COPY_DELAY: Interval = (0.5, 1.0)

#: Structural nodes: LOOP/IF condition examination, ENDLOOP/ENDIF joins,
#: START/END.
STRUCTURAL_DELAY: Interval = (0.5, 1.0)


@dataclass
class DelayModel:
    """Bounded-delay model for CDFG operations.

    ``overrides`` maps ``(fu, operator)`` or ``(fu, None)`` (whole
    unit) to an interval; the most specific entry wins.
    """

    operator_delays: Dict[str, Interval] = field(
        default_factory=lambda: dict(DEFAULT_OPERATOR_DELAYS)
    )
    copy_delay: Interval = COPY_DELAY
    structural_delay: Interval = STRUCTURAL_DELAY
    overrides: Dict[Tuple[str, Optional[str]], Interval] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, interval in list(self.operator_delays.items()):
            _check_interval(name, interval)
        _check_interval("copy", self.copy_delay)
        _check_interval("structural", self.structural_delay)
        for key, interval in self.overrides.items():
            _check_interval(str(key), interval)
        #: node -> interval memo; sound because nodes are immutable and
        #: the delay tables are treated as frozen after construction
        #: (:meth:`with_override` builds a new model with a new cache)
        self._interval_cache: Dict[Node, Interval] = {}

    # ------------------------------------------------------------------
    def interval_for(self, node: Node) -> Interval:
        """The ``[min, max]`` execution delay of a CDFG node.

        Merged nodes (GT4) take the max over their statements' delays:
        the copies run in parallel with the FU operation.  Results are
        memoized per node (nodes are frozen dataclasses); bypassed when
        :func:`repro.perf.caching_enabled` is off.
        """
        if perf.caching_enabled():
            cached = self._interval_cache.get(node)
            if cached is None:
                cached = self._interval_cache[node] = self._interval_for_uncached(node)
            return cached
        return self._interval_for_uncached(node)

    def _interval_for_uncached(self, node: Node) -> Interval:
        if not node.is_operation:
            if node.fu is not None:
                override = self.overrides.get((node.fu, None))
                if override is not None:
                    return override
            return self.structural_delay
        lows, highs = [], []
        for statement in node.statements:
            interval = self._statement_interval(node.fu, statement.operator)
            lows.append(interval[0])
            highs.append(interval[1])
        return (max(lows), max(highs))

    def operator_interval(self, fu: Optional[str], operator: Optional[str]) -> Interval:
        """Delay interval for one operator on one unit (``None``
        operator = register copy).  Used by the datapath model."""
        return self._statement_interval(fu, operator)

    def _statement_interval(self, fu: Optional[str], operator: Optional[str]) -> Interval:
        if fu is not None:
            specific = self.overrides.get((fu, operator))
            if specific is not None:
                return specific
            unit_wide = self.overrides.get((fu, None))
            if unit_wide is not None:
                return unit_wide
        if operator is None:
            return self.copy_delay
        try:
            return self.operator_delays[operator]
        except KeyError:
            raise TimingError(f"no delay defined for operator {operator!r}") from None

    def cache_key(self) -> Tuple:
        """A structural fingerprint of the delay tables.

        Analyses memoized against a CDFG (e.g. the anchored
        longest-path tables) include this in their cache keys so two
        different-but-equal models share entries and different models
        never collide.
        """
        return (
            tuple(sorted(self.operator_delays.items())),
            self.copy_delay,
            self.structural_delay,
            tuple(sorted(self.overrides.items(), key=repr)),
        )

    # ------------------------------------------------------------------
    def nominal(self, node: Node) -> float:
        """Midpoint delay, used for deterministic simulations."""
        low, high = self.interval_for(node)
        return (low + high) / 2.0

    def sample(self, node: Node, rng: random.Random) -> float:
        """A random delay within the node's interval."""
        low, high = self.interval_for(node)
        return rng.uniform(low, high)

    def sample_matrix(self, nodes, rng: random.Random, batch: int):
        """Sample a ``(batch, len(nodes))`` delay matrix from one stream.

        Draw order is **node-major, batch-minor** and is part of the
        reproducibility contract: for each node (left to right), all
        ``batch`` samples of that node are drawn consecutively from
        ``rng``.  Consequently, with ``batch=1`` row 0 consumes draws in
        exactly the order ``sample(nodes[0], rng), sample(nodes[1],
        rng), ...`` would — the scalar-compat shim the batched engine
        relies on to reproduce a scalar node substream bit-for-bit.

        Requires numpy; raises a pointer at the scalar path otherwise.
        """
        np = _require_numpy()
        matrix = np.empty((batch, len(nodes)), dtype=np.float64)
        uniform = rng.uniform
        for column, node in enumerate(nodes):
            low, high = self.interval_for(node)
            for row in range(batch):
                matrix[row, column] = uniform(low, high)
        return matrix

    def with_override(
        self, fu: str, operator: Optional[str], interval: Interval
    ) -> "DelayModel":
        """A copy of the model with one extra override."""
        _check_interval(f"({fu}, {operator})", interval)
        overrides = dict(self.overrides)
        overrides[(fu, operator)] = interval
        return DelayModel(
            operator_delays=dict(self.operator_delays),
            copy_delay=self.copy_delay,
            structural_delay=self.structural_delay,
            overrides=overrides,
        )


def _require_numpy():
    """Import numpy or explain how to proceed without it."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised only without numpy
        raise ImportError(
            "numpy is required for batched delay sampling "
            "(DelayModel.sample_matrix / repro.sim.batched); install it "
            "or stay on the scalar simulator path (--no-batched), which "
            "has no numpy dependency."
        ) from None
    return numpy


def _check_interval(name: str, interval: Interval) -> None:
    low, high = interval
    if low < 0 or high < low:
        raise TimingError(f"invalid delay interval for {name}: [{low}, {high}]")
