"""The naive stream-language projection, kept as a reference.

:mod:`repro.verify.flow` indexes each machine once per check
(:class:`~repro.verify.flow.MachineIndex`) and memoizes ``closure`` and
``step`` per projection.  This module keeps the direct construction it
replaced: one event map per (machine, observable), built by a fresh walk
over the transitions, and every closure and step re-walking
``BurstModeMachine.transitions_from``.  Nothing is shared or cached, so
the differential tests (``tests/verify/test_flow_index.py``) can assert
that the indexed engine finds the same shortest distinguishing words and
the same canonical DFA signatures.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.afsm.machine import BurstModeMachine
from repro.verify.flow import (
    Observable,
    _flatten_actions,
    _observable_key,
    machine_observables,
)

_ALPHABET: Dict[str, Tuple[str, ...]] = {"wire": ("+", "-"), "act": ("!",)}


def event_map(
    machine: BurstModeMachine, observable: Observable
) -> Dict[int, Optional[str]]:
    """Transition uid -> event symbol for ``observable`` (None = tau)."""
    events: Dict[int, Optional[str]] = {}
    for transition in machine.transitions():
        symbol: Optional[str] = None
        if observable[0] == "wire":
            name = observable[1]
            for burst_edges in (
                transition.input_burst.edges,
                transition.output_burst.edges,
            ):
                for edge in burst_edges:
                    if edge.signal == name:
                        symbol = "+" if edge.rising else "-"
        else:
            action = observable[1]
            for edge in transition.output_burst.edges:
                if not edge.rising:
                    continue
                try:
                    signal = machine.signal(edge.signal)
                except Exception:  # noqa: BLE001 — undeclared wire: no action
                    continue
                if action in _flatten_actions(signal):
                    symbol = "!"
        events[transition.uid] = symbol
    return events


class Projection:
    """One machine projected onto one observable, walked directly."""

    def __init__(self, machine: BurstModeMachine, observable: Observable):
        self.machine = machine
        self.events = event_map(machine, observable)

    def closure(self, states: FrozenSet[str]) -> FrozenSet[str]:
        seen = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for transition in self.machine.transitions_from(state):
                if self.events[transition.uid] is None and transition.dst not in seen:
                    seen.add(transition.dst)
                    stack.append(transition.dst)
        return frozenset(seen)

    def initial(self) -> FrozenSet[str]:
        return self.closure(frozenset({self.machine.initial_state}))

    def step(self, states: FrozenSet[str], symbol: str) -> FrozenSet[str]:
        after: Set[str] = set()
        for state in states:
            for transition in self.machine.transitions_from(state):
                if self.events[transition.uid] == symbol:
                    after.add(transition.dst)
        return self.closure(frozenset(after))


def stream_language_counterexample(
    before: BurstModeMachine, after: BurstModeMachine, observable: Observable
) -> Optional[List[str]]:
    """Shortest event word separating the two projected languages."""
    alphabet = _ALPHABET[observable[0]]
    proj_a = Projection(before, observable)
    proj_b = Projection(after, observable)
    start = (proj_a.initial(), proj_b.initial())
    queue: List[Tuple[FrozenSet[str], FrozenSet[str], List[str]]] = [
        (start[0], start[1], [])
    ]
    seen = {start}
    while queue:
        set_a, set_b, word = queue.pop(0)
        for symbol in alphabet:
            next_a = proj_a.step(set_a, symbol)
            next_b = proj_b.step(set_b, symbol)
            if bool(next_a) != bool(next_b):
                return word + [symbol]
            if not next_a:
                continue
            pair = (next_a, next_b)
            if pair not in seen:
                seen.add(pair)
                queue.append((next_a, next_b, word + [symbol]))
    return None


def observable_signature(
    machine: BurstModeMachine, observable: Observable
) -> Dict[str, object]:
    """Canonical DFA fingerprint of one observable's stream language."""
    alphabet = _ALPHABET[observable[0]]
    projection = Projection(machine, observable)
    numbering: Dict[FrozenSet[str], int] = {}
    table: List[List[int]] = []
    queue: List[FrozenSet[str]] = []

    def number(subset: FrozenSet[str]) -> int:
        if subset not in numbering:
            numbering[subset] = len(numbering)
            table.append([])
            queue.append(subset)
        return numbering[subset]

    number(projection.initial())
    position = 0
    while position < len(queue):
        subset = queue[position]
        row: List[int] = []
        for symbol in alphabet:
            target = projection.step(subset, symbol)
            row.append(-1 if not target else number(target))
        table[numbering[subset]] = row
        position += 1
    blob = json.dumps(table).encode("utf-8")
    return {
        "digest": hashlib.blake2b(blob, digest_size=8).hexdigest(),
        "length": len(table),
    }


def machine_signature(machine: BurstModeMachine) -> Dict[str, Dict[str, object]]:
    """Every observable's signature, keyed as in a flow certificate."""
    return {
        _observable_key(observable): observable_signature(machine, observable)
        for observable in sorted(machine_observables(machine), key=_observable_key)
    }


def first_counterexample(
    before: BurstModeMachine, after: BurstModeMachine
) -> Optional[Tuple[str, List[str]]]:
    """``(observable key, word)`` of the first separated observable in
    key order, as the ``streams`` obligation reports it, or None."""
    observables = sorted(
        machine_observables(before) | machine_observables(after), key=_observable_key
    )
    for observable in observables:
        word = stream_language_counterexample(before, after, observable)
        if word is not None:
            return _observable_key(observable), word
    return None
