"""Datapath model for the AFSM-level simulation.

Implements the target architecture of the paper's Figure 2: functional
units with dedicated input muxes, registers with (shared) input muxes,
and 4-phase request/acknowledge interfaces toward the controllers.

Actions arrive as the ``action`` tuples attached to controller request
signals:

- ``("src_mux", fu, port, source)`` — select ``source`` (a register or
  constant) onto input ``port`` of ``fu``'s operand mux;
- ``("fu_go", fu, operator)`` — run ``operator`` on the currently
  selected operands; the result is held at the unit's output;
- ``("reg_mux", register, source)`` — select ``source`` (the producing
  unit, another register, or a constant) onto the register's input
  mux;
- ``("latch", register)`` — latch the register's mux value.

Operand and mux values are sampled at action *completion*.  When a
controller runs without acknowledgments (LT4), correct operation rests
on the usual relative-timing assumptions (mux select settles before
the FU result is captured); the datapath flags a hazard if a mux is
still settling when a dependent capture completes.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.rtl.semantics import _apply
from repro.sim.kernel import EventKernel
from repro.timing.delays import DelayModel

Source = Tuple[str, Union[str, float, int]]  # ("reg", name) | ("const", v) | ("fu", unit)

#: settle delays for the small datapath elements.  The latch strobe is
#: padded past the worst-case mux settle (1.5 * MUX_DELAY), the usual
#: bundled-data margin that LT4's acknowledgment removal relies on.
MUX_DELAY = 0.3
LATCH_DELAY = 0.5


def _action_label(action: tuple) -> Optional[str]:
    """Trace label of a datapath action (None for an unknown kind)."""
    kind = action[0]
    if kind == "src_mux":
        return f"dp:mux:{action[1]}.{action[2]}"
    if kind == "fu_go":
        return f"dp:fu:{action[1]}:{action[2]}"
    if kind == "reg_mux":
        return f"dp:mux:{action[1]}"
    if kind == "latch":
        return f"dp:latch:{action[1]}"
    return None


class Datapath:
    """Shared registers, muxes and functional units."""

    def __init__(
        self,
        kernel: EventKernel,
        initial_registers: Dict[str, float],
        inputs: Dict[str, float],
        delays: Optional[DelayModel] = None,
        rng: Optional[random.Random] = None,
    ):
        self.kernel = kernel
        self.registers: Dict[str, float] = dict(initial_registers)
        self.registers.update(inputs)
        self._input_names = set(inputs)
        self.delays = delays or DelayModel()
        self.rng = rng

        #: (fu, port) -> selected Source
        self.fu_ports: Dict[Tuple[str, int], Source] = {}
        #: register -> selected Source
        self.reg_muxes: Dict[str, Source] = {}
        #: fu -> last computed result
        self.fu_outputs: Dict[str, float] = {}
        #: settling windows for hazard detection
        self._mux_flights: Dict[Tuple[str, object], float] = {}
        self.hazards: List[str] = []
        #: chronological register-write log: (register, value) per
        #: latch capture — the system-level write streams compared by
        #: the flow-equivalence checker (:mod:`repro.verify.flow`)
        self.writes: List[Tuple[str, float]] = []
        #: action -> trace label (and release-kind -> label), formatted
        #: once per run instead of once per request
        self._labels: Dict[tuple, Optional[str]] = {}
        self._release_labels: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def _delay(self, low: float, high: float) -> float:
        if self.rng is None:
            return (low + high) / 2.0
        return self.rng.uniform(low, high)

    def _resolve(self, source: Source) -> float:
        kind, value = source
        if kind == "reg":
            try:
                return self.registers[value]  # type: ignore[index]
            except KeyError:
                raise SimulationError(f"read of uninitialized register {value!r}") from None
        if kind == "const":
            return float(value)  # type: ignore[arg-type]
        if kind == "fu":
            try:
                return self.fu_outputs[value]  # type: ignore[index]
            except KeyError:
                raise SimulationError(f"unit {value!r} produced no result yet") from None
        raise SimulationError(f"unknown source {source!r}")

    # ------------------------------------------------------------------
    # 4-phase request handling
    # ------------------------------------------------------------------
    def request(self, action: tuple, on_complete: Callable[[], None]) -> None:
        """Handle a req+ edge; call ``on_complete`` when the element
        settles (the controller maps it to the ack+ edge, if wired)."""
        kind = action[0]
        if kind == "multi":
            # a shared (LT5) wire forks to several elements; the ack
            # is the completion of the slowest one
            sub_actions = action[1]
            remaining = [len(sub_actions)]

            def one_done() -> None:
                remaining[0] -= 1
                if remaining[0] == 0:
                    on_complete()

            for sub in sub_actions:
                self.request(sub, one_done)
            return
        label = self._labels.get(action)
        if label is None:
            label = self._labels[action] = _action_label(action)
        if kind == "src_mux":
            __, fu, port, source = action
            delay = self._delay(MUX_DELAY, MUX_DELAY * 1.5)
            key = ("fu_port", (fu, port))
            self._mux_flights[key] = self.kernel.now + delay

            def settle() -> None:
                self.fu_ports[(fu, port)] = source
                on_complete()

            self.kernel.schedule(delay, settle, label=label)
        elif kind == "fu_go":
            __, fu, operator = action
            low, high = self.delays.operator_interval(fu, operator)
            delay = self._delay(low, high)

            def compute() -> None:
                self._check_mux_settled(("fu_port", (fu, 0)), f"{fu} operand 0")
                self._check_mux_settled(("fu_port", (fu, 1)), f"{fu} operand 1")
                left = self._resolve(self.fu_ports.get((fu, 0), ("const", 0.0)))
                right = self._resolve(self.fu_ports.get((fu, 1), ("const", 0.0)))
                self.fu_outputs[fu] = _apply(operator, left, right)
                on_complete()

            self.kernel.schedule(delay, compute, label=label)
        elif kind == "reg_mux":
            __, register, source = action
            delay = self._delay(MUX_DELAY, MUX_DELAY * 1.5)
            key = ("reg_mux", register)
            self._mux_flights[key] = self.kernel.now + delay

            def settle() -> None:
                self.reg_muxes[register] = source
                on_complete()

            self.kernel.schedule(delay, settle, label=label)
        elif kind == "latch":
            (__, register) = action
            if register in self._input_names:
                raise SimulationError(f"write to read-only input {register!r}")
            delay = self._delay(LATCH_DELAY, LATCH_DELAY * 1.5)

            def capture() -> None:
                self._check_mux_settled(("reg_mux", register), f"register {register} mux")
                source = self.reg_muxes.get(register)
                if source is None:
                    raise SimulationError(f"latch of {register!r} with no mux selection")
                value = self._resolve(source)
                self.registers[register] = value
                self.writes.append((register, value))
                on_complete()

            self.kernel.schedule(delay, capture, label=label)
        else:
            raise SimulationError(f"unknown datapath action {action!r}")

    def release(self, action: tuple, on_complete: Callable[[], None]) -> None:
        """Handle a req- edge: the element returns to idle."""
        kind = action[0]
        label = self._release_labels.get(kind)
        if label is None:
            label = self._release_labels[kind] = f"dp:release:{kind}"
        self.kernel.schedule(0.1, on_complete, label=label)

    def _check_mux_settled(self, key: Tuple[str, object], what: str) -> None:
        settling_until = self._mux_flights.get(key)
        if settling_until is not None and settling_until > self.kernel.now:
            self.hazards.append(
                f"t={self.kernel.now:.2f}: {what} still settling during capture"
            )

    # ------------------------------------------------------------------
    def condition_level(self, register: str) -> bool:
        value = self.registers.get(register)
        if value is None:
            raise SimulationError(f"condition register {register!r} uninitialized")
        return bool(value)
