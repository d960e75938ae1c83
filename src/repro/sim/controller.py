"""Burst-mode controller interpreter for the AFSM-level simulation.

Each controller tracks its current state and fires outgoing
transitions whose input bursts are satisfied:

- local acknowledgments are 4-phase level signals driven by the
  datapath model;
- global ready wires are single-transition channels: each event is
  queued per receiver and consumed exactly once (edge semantics, so a
  "pulse" is never lost even when the receiver is busy);
- directed don't-care edges consume a queued event if one is present,
  otherwise they leave a *debt* that silently absorbs the event when
  it arrives;
- conditionals sample a register level at firing time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.afsm.machine import BurstModeMachine, Transition
from repro.afsm.signals import SignalKind
from repro.errors import ChannelSafetyError, SimulationError
from repro.sim.datapath import Datapath
from repro.sim.kernel import EventKernel

#: controller logic delay per state transition
CONTROL_DELAY = 0.2


class GlobalWire:
    """A single-transition channel wire with per-receiver event queues.

    Events are *directed* (rising/falling): a receiver waiting for a
    rising transition is not released by a falling one (a synthetic
    reset may overtake the wait; it stays queued for the matching ddc
    absorption).  ``debt`` records ddc edges that fired before their
    transition arrived; the arrival is then absorbed silently.
    """

    def __init__(self, name: str, receivers: List[str], strict: bool = True):
        self.name = name
        self.pending: Dict[Tuple[str, bool], int] = {
            (fu, rising): 0 for fu in receivers for rising in (True, False)
        }
        self.debt: Dict[Tuple[str, bool], int] = dict(self.pending)
        self.receivers = list(receivers)
        self.events_sent = 0
        self.strict = strict
        self.violations: List[str] = []

    def emit(self, now: float, rising: bool) -> None:
        self.events_sent += 1
        for fu in self.receivers:
            key = (fu, rising)
            if self.debt[key] > 0:
                self.debt[key] -= 1
                continue
            self.pending[key] += 1
            if self.pending[key] > 1:
                message = (
                    f"t={now:.2f}: wire {self.name} holds {self.pending[key]} unconsumed "
                    f"{'rising' if rising else 'falling'} transitions toward {fu}"
                )
                self.violations.append(message)
                if self.strict:
                    raise ChannelSafetyError(message)

    def available(self, fu: str, rising: bool) -> bool:
        return self.pending[(fu, rising)] > 0

    def consume(self, fu: str, rising: bool) -> None:
        key = (fu, rising)
        if self.pending[key] < 1:
            raise SimulationError(f"wire {self.name}: consuming missing event for {fu}")
        self.pending[key] -= 1

    def consume_ddc(self, fu: str, rising: bool) -> None:
        key = (fu, rising)
        if self.pending[key] > 0:
            self.pending[key] -= 1
        else:
            self.debt[key] += 1

    def pending_total(self, fu: str) -> int:
        return self.pending[(fu, True)] + self.pending[(fu, False)]


#: kinds of a compiled step's input checks (_WIRE, _ACK) and output
#: effects (_EMIT, _REQUEST, _RELEASE); _BAD marks a signal of a kind
#: that cannot appear there, reported when the step reaches it
_WIRE, _ACK, _EMIT, _REQUEST, _RELEASE, _BAD = range(6)


class _Step:
    """One transition compiled against a runtime's wires and acks.

    Everything the per-poke check and the firing need is resolved once:
    condition registers, each compulsory edge as a wire counter or an
    ack level (in burst order), the wire events the firing consumes,
    the effects of the output burst and the trace label.
    """

    __slots__ = ("dst", "burst", "label", "conditions", "checks", "consumes", "effects", "fire")

    def __init__(self, runtime: "ControllerRuntime", transition: Transition):
        machine = runtime.machine
        fu = runtime.fu
        self.dst = transition.dst
        self.burst = transition.input_burst
        fragment = transition.tags.get("node") or f"{transition.src}->{transition.dst}"
        self.label = f"ctrl:{fu}:{fragment}"
        conditions = []
        for cond in transition.input_burst.conditions:
            signal = machine.signal(cond.signal)
            assert signal.action is not None and signal.action[0] == "cond"
            conditions.append((signal.action[1], cond.high))
        self.conditions = tuple(conditions)
        checks = []
        for edge in transition.input_burst.compulsory_edges:
            kind = machine.signal(edge.signal).kind
            if kind is SignalKind.GLOBAL_READY:
                checks.append((_WIRE, runtime.wires[edge.signal].pending, (fu, edge.rising)))
            elif kind is SignalKind.LOCAL_ACK:
                checks.append((_ACK, edge.signal, 1 if edge.rising else 0))
            else:
                checks.append((_BAD, edge.signal, None))
        self.checks = tuple(checks)
        self.consumes = tuple(
            (runtime.wires[edge.signal], edge.rising, edge.ddc)
            for edge in transition.input_burst.edges
            if machine.signal(edge.signal).kind is SignalKind.GLOBAL_READY
        )
        effects = []
        for edge in transition.output_burst.edges:
            signal = machine.signal(edge.signal)
            if signal.kind is SignalKind.GLOBAL_READY:
                effects.append((_EMIT, runtime.wires[edge.signal], edge.rising))
            elif signal.kind is SignalKind.LOCAL_REQ:
                assert signal.action is not None
                ack = signal.partner
                if ack is not None and ack in runtime.ack_levels:
                    complete = partial(runtime._acknowledge, ack, 1 if edge.rising else 0)
                else:
                    complete = runtime.poke
                effects.append((_REQUEST if edge.rising else _RELEASE, signal.action, complete))
            else:
                effects.append((_BAD, edge.signal, None))
        self.effects = tuple(effects)
        self.fire = partial(runtime._fire, self)


@dataclass
class ControllerRuntime:
    """One controller's dynamic state."""

    fu: str
    machine: BurstModeMachine
    kernel: EventKernel
    datapath: Datapath
    wires: Dict[str, GlobalWire]
    #: local ack levels (req levels live implicitly in the machine)
    ack_levels: Dict[str, int] = field(default_factory=dict)
    state: str = ""
    busy: bool = False
    transitions_taken: int = 0
    #: per-state compiled transitions, in ``machine.transitions_from``
    #: order.  The machine is frozen for the lifetime of a simulation,
    #: so each state is compiled on its first visit; resolving every
    #: edge through ``machine.signal()`` on every poke dominated the
    #: kernel profile
    _steps: Dict[str, Tuple[_Step, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.state = self.machine.initial_state
        for signal in self.machine.signals():
            if signal.kind is SignalKind.LOCAL_ACK:
                self.ack_levels[signal.name] = 0
        self._poke_label = f"poke:{self.fu}"

    # ------------------------------------------------------------------
    def poke(self) -> None:
        """Schedule an enablement check (called on any input change)."""
        self.kernel.schedule(0.0, self._step, label=self._poke_label)

    def _compiled(self, state: str) -> Tuple[_Step, ...]:
        steps = self._steps.get(state)
        if steps is None:
            steps = self._steps[state] = tuple(
                _Step(self, transition) for transition in self.machine.transitions_from(state)
            )
        return steps

    def _step(self) -> None:
        if self.busy:
            return
        enabled = [step for step in self._compiled(self.state) if self._satisfied(step)]
        if not enabled:
            return
        if len(enabled) > 1:
            raise SimulationError(
                f"{self.fu}: nondeterministic choice in state {self.state}: "
                + " | ".join(str(step.burst) for step in enabled)
            )
        step = enabled[0]
        self.busy = True
        self.kernel.schedule(CONTROL_DELAY, step.fire, label=step.label)

    def _satisfied(self, step: _Step) -> bool:
        for register, high in step.conditions:
            if self.datapath.condition_level(register) != high:
                return False
        for kind, target, expected in step.checks:
            if kind == _WIRE:
                if target[expected] < 1:
                    return False
            elif kind == _ACK:
                if self.ack_levels[target] != expected:
                    return False
            else:
                raise SimulationError(f"{self.fu}: unexpected input {target}")
        return True

    def _fire(self, step: _Step) -> None:
        self.busy = False
        if not self._satisfied(step):
            # inputs changed during the control delay; re-evaluate
            self.poke()
            return
        for wire, rising, ddc in step.consumes:
            if ddc:
                wire.consume_ddc(self.fu, rising)
            else:
                wire.consume(self.fu, rising)
        self.state = step.dst
        self.transitions_taken += 1
        for kind, target, argument in step.effects:
            if kind == _EMIT:
                target.emit(self.kernel.now, argument)
                if self.poke_all is not None:
                    self.poke_all()  # wake the receivers
            elif kind == _REQUEST:
                self.datapath.request(target, argument)
            elif kind == _RELEASE:
                self.datapath.release(target, argument)
            else:
                raise SimulationError(f"{self.fu}: cannot drive {target}")
        self.poke()

    def _acknowledge(self, ack: str, level: int) -> None:
        """A datapath element settled: drive its ack, re-check inputs."""
        self.ack_levels[ack] = level
        self.poke()

    #: injected by the system: wakes every controller after an emission
    poke_all: Optional[Callable[[], None]] = None
