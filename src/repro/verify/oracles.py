"""Metamorphic per-transform oracles.

Each GT/LT carries an invariant that must hold between the graph (or
machine) it received and the one it produced.  The oracles check those
invariants after every ``apply()`` when installed on
:func:`repro.transforms.optimize_global` /
:func:`repro.local_transforms.optimize_local`, and raise
:class:`~repro.errors.VerificationError` (message prefix
``oracle[<pass>]:``) on the first violation:

- **GT1–GT5** are the raising form of two flow-proof obligations
  (:mod:`repro.verify.flow`), which decide them: the pass's contract on
  the firing partial order (GT1/GT3 only relax it, GT2 keeps it
  exactly, GT4/GT5 keep it modulo node merging) and, for GT5, that the
  emitted channel plan covers every inter-FU arc.  The flow proof
  additionally simulates GT5's result under the plan.
- **LT1/LT2/LT3** only move output edges between bursts: the set of
  output events, the datapath actions they drive, and every global
  handshake edge are preserved.
- **LT4** removes acknowledgment waits: only ``LOCAL_ACK`` input edges
  may disappear; outputs (and so the datapath write sequence) are
  untouched.
- **LT5** merges identically-switching wires: wire names change but
  the set of datapath actions and the global handshake are preserved.

The LT checks also cover acknowledgment and reset edges, which the
flow proof's stream languages do not observe.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional, Set, Tuple

from repro.afsm.machine import BurstModeMachine
from repro.afsm.signals import SignalKind
from repro.cdfg.graph import Cdfg
from repro.errors import VerificationError
from repro.local_transforms.base import LocalReport
from repro.transforms.base import TransformReport
from repro.verify.flow import (
    _flatten_actions,
    _obligation_order,
    _plan_coverage_failure,
)

GlobalOracle = Callable[[TransformReport, Cdfg, Cdfg], None]
LocalOracle = Callable[[LocalReport, BurstModeMachine, BurstModeMachine], None]


def _fail(transform: str, reason: str) -> None:
    raise VerificationError(f"oracle[{transform}]: {reason}")


# ----------------------------------------------------------------------
# global transforms
# ----------------------------------------------------------------------
def make_global_oracle() -> GlobalOracle:
    """Build the per-GT invariant checker: the flow proof's ``order``
    obligation and GT5's plan coverage, raised instead of certified."""

    def oracle(report: TransformReport, before: Cdfg, after: Cdfg) -> None:
        if not report.applied:
            return
        order = _obligation_order(report, before, after)
        if not order.proved:
            _fail(report.name, order.detail)
        if report.name == "GT5":
            failure = _plan_coverage_failure(report, after)
            if failure is not None:
                _fail(report.name, failure)

    return oracle


# ----------------------------------------------------------------------
# local transforms
# ----------------------------------------------------------------------
def _output_edges(machine: BurstModeMachine) -> Set[Tuple[str, bool]]:
    return {
        (edge.signal, edge.rising)
        for transition in machine.transitions()
        for edge in transition.output_burst.edges
    }


def _input_edges(
    machine: BurstModeMachine, exclude: FrozenSet[SignalKind] = frozenset()
) -> Set[Tuple[str, bool]]:
    edges: Set[Tuple[str, bool]] = set()
    for transition in machine.transitions():
        for edge in transition.input_burst.edges:
            if exclude and _kind_of(machine, edge.signal) in exclude:
                continue
            edges.add((edge.signal, edge.rising))
    return edges


def _kind_of(machine: BurstModeMachine, name: str) -> Optional[SignalKind]:
    try:
        return machine.signal(name).kind
    except Exception:
        return None


def _edges_of_kind(
    machine: BurstModeMachine, kind: SignalKind, outputs: bool
) -> Set[Tuple[str, bool]]:
    edges: Set[Tuple[str, bool]] = set()
    for transition in machine.transitions():
        burst = transition.output_burst if outputs else transition.input_burst
        for edge in burst.edges:
            if _kind_of(machine, edge.signal) is kind:
                edges.add((edge.signal, edge.rising))
    return edges


def _datapath_actions(machine: BurstModeMachine) -> Set[tuple]:
    """Every datapath action reachable from a rising output edge."""
    actions: Set[tuple] = set()
    for transition in machine.transitions():
        for edge in transition.output_burst.edges:
            if not edge.rising:
                continue
            try:
                signal = machine.signal(edge.signal)
            except Exception:
                continue
            actions.update(_flatten_actions(signal))
    return actions


def make_local_oracle() -> LocalOracle:
    """Build the per-LT invariant checker (see module docstring)."""

    def oracle(
        report: LocalReport, before: BurstModeMachine, after: BurstModeMachine
    ) -> None:
        name = report.name
        if not report.applied:
            return
        # every LT preserves the global handshake exactly
        for outputs in (True, False):
            direction = "output" if outputs else "input"
            old = _edges_of_kind(before, SignalKind.GLOBAL_READY, outputs)
            new = _edges_of_kind(after, SignalKind.GLOBAL_READY, outputs)
            if old != new:
                _fail(
                    name,
                    f"{before.name}: global {direction} handshake changed: "
                    f"lost {sorted(old - new)}, gained {sorted(new - old)}",
                )
        if name in ("LT1", "LT2", "LT3"):
            old_out, new_out = _output_edges(before), _output_edges(after)
            if old_out != new_out:
                _fail(
                    name,
                    f"{before.name}: output events changed (moves only): "
                    f"lost {sorted(old_out - new_out)}, gained {sorted(new_out - old_out)}",
                )
            old_in = _input_edges(before)
            new_in = _input_edges(after)
            if old_in != new_in:
                _fail(
                    name,
                    f"{before.name}: input events changed: lost "
                    f"{sorted(old_in - new_in)}, gained {sorted(new_in - old_in)}",
                )
        if name == "LT4":
            old_out, new_out = _output_edges(before), _output_edges(after)
            if old_out != new_out:
                _fail(
                    name,
                    f"{before.name}: ack removal changed the output events: "
                    f"lost {sorted(old_out - new_out)}, gained {sorted(new_out - old_out)}",
                )
            ack = frozenset({SignalKind.LOCAL_ACK})
            old_in = _input_edges(before, exclude=ack)
            new_in = _input_edges(after, exclude=ack)
            if old_in != new_in:
                _fail(
                    name,
                    f"{before.name}: a non-acknowledgment input edge changed: "
                    f"lost {sorted(old_in - new_in)}, gained {sorted(new_in - old_in)}",
                )
        if name in ("LT1", "LT2", "LT3", "LT4", "LT5"):
            old_actions = _datapath_actions(before)
            new_actions = _datapath_actions(after)
            if old_actions != new_actions:
                _fail(
                    name,
                    f"{before.name}: datapath actions changed: lost "
                    f"{sorted(old_actions - new_actions)}, "
                    f"gained {sorted(new_actions - old_actions)}",
                )

    return oracle
