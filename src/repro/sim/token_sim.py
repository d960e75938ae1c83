"""CDFG-level token simulation.

Executes a CDFG under the paper's firing rule — "an operation node may
fire if all its predecessors have fired" — made precise with tokens on
constraint arcs:

- every arc carries single-use tokens (a token models one transition on
  the arc's ready wire);
- an operation node fires when *all* incoming arcs hold a token; it
  reads its operands at firing time (muxes select, FU computes), writes
  its destination registers at completion time, and then emits a token
  on every outgoing arc ("done" signals are the last event of an RTL
  statement);
- a LOOP node first fires when its entry arcs (from outside the block)
  hold tokens, and re-fires on the ENDLOOP->LOOP iterate token; it
  examines the loop variable and emits either into the body (true) or
  on its exit arcs (false);
- GT1 backward arcs are *pre-enabled*: they are loaded with one token
  each time the loop is entered from outside;
- an IF node examines its condition and emits into the taken branch
  plus its decision arc; the matching ENDIF joins the decision arc with
  the taken branch's arcs.

The simulator enforces the **channel-safety property** that GT1 step D
protects: a wire must never hold two outstanding transitions.  If an
emission finds a token already pending on an arc, a
:class:`~repro.errors.ChannelSafetyError` is raised (or recorded when
``strict=False``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cdfg.arc import Arc
from repro.cdfg.blocks import innermost_loop
from repro.cdfg.graph import Cdfg
from repro.cdfg.kinds import NodeKind
from repro.cdfg.node import Node
from repro.channels.model import ChannelPlan
from repro.errors import ChannelSafetyError, DeadlockError, SimulationError
from repro.obs.causal import EventTrace
from repro.obs.spans import span
from repro.rtl.semantics import evaluate_expr
from repro.sim.kernel import EventKernel
from repro.sim.seeding import SeedLike, node_stream_seed, resolve_seed
from repro.timing.delays import DelayModel


@dataclass
class Firing:
    """One execution of a CDFG node."""

    node: str
    start: float
    end: float


@dataclass
class TokenSimResult:
    """Outcome of a token simulation."""

    registers: Dict[str, float]
    end_time: float
    firings: List[Firing] = field(default_factory=list)
    loop_iterations: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    events_processed: int = 0
    #: effective delay-sampling seed (None for a NOMINAL run)
    seed: Optional[int] = None
    #: causal event log (present when the run was traced)
    trace: Optional[EventTrace] = None
    #: trace uid of the END completion (terminal of the critical path)
    end_event: Optional[int] = None
    #: chronological register-write log: (dest, value) in application
    #: order — the per-variable write streams the flow-equivalence
    #: checker (:mod:`repro.verify.flow`) compares across transforms
    writes: List[Tuple[str, float]] = field(default_factory=list)

    def firing_count(self, node: str) -> int:
        return sum(1 for firing in self.firings if firing.node == node)

    def register(self, name: str) -> float:
        return self.registers[name]

    def write_streams(self) -> Dict[str, List[float]]:
        """Per-variable value streams, in write order."""
        streams: Dict[str, List[float]] = {}
        for dest, value in self.writes:
            streams.setdefault(dest, []).append(value)
        return streams


class TokenSimulator:
    """Execute one CDFG run.  Use :func:`simulate_tokens` for one-liners."""

    def __init__(
        self,
        cdfg: Cdfg,
        delay_model: Optional[DelayModel] = None,
        seed: SeedLike = None,
        strict: bool = True,
        max_events: int = 1_000_000,
        channel_plan: Optional[ChannelPlan] = None,
        trace: Optional[EventTrace] = None,
    ):
        self.cdfg = cdfg
        self.delays = delay_model or DelayModel()
        self.rng, self.seed = resolve_seed(seed)
        self.strict = strict
        self.max_events = max_events
        #: optional channel plan: when given, the simulator also checks
        #: that two *different* events (distinct source nodes) are never
        #: simultaneously outstanding on one merged wire — the safety
        #: property GT5's concurrency proof must guarantee
        self._arc_channel: Dict[Tuple[str, str], str] = (
            dict(channel_plan.arc_to_channel) if channel_plan is not None else {}
        )
        self._channel_outstanding: Dict[str, Dict[str, int]] = {}

        self.kernel = EventKernel(trace=trace)
        self.tokens: Dict[Tuple[str, str], int] = {arc.key: 0 for arc in cdfg.arcs()}
        self.registers: Dict[str, float] = {}
        self.registers.update(cdfg.initial_registers)
        self.registers.update(cdfg.inputs)
        self._input_names = set(cdfg.inputs)

        self.busy: Set[str] = set()
        self.loop_entered: Dict[str, bool] = {}
        self.if_taken: Dict[str, Optional[str]] = {}
        #: loop root -> number of times the loop was entered from outside
        self.loop_epoch: Dict[str, int] = {}
        #: node -> loop epoch during which the node last fired
        self._node_epoch: Dict[str, int] = {}
        self.result = TokenSimResult(
            registers=self.registers, end_time=0.0, seed=self.seed, trace=trace
        )
        self._ancestors = self._compute_ancestors()
        self._pending_writes: Dict[str, List[Tuple[str, float]]] = {}
        self._ended = False
        #: per-node delay substreams (sampled mode only, lazily created).
        #: Each node draws from its own stream seeded by
        #: ``node_stream_seed(self.seed, name)``, so the k-th firing of a
        #: node always sees the k-th draw of that stream regardless of
        #: how firings of *other* nodes interleave.  This makes seeded
        #: delay assignments a pure function of (seed, node, occurrence),
        #: which the batched engine reproduces without an event loop.
        self._delay_streams: Dict[str, random.Random] = {}

    def _node_delay(self, node: Node) -> float:
        """Delay for the next firing of ``node`` under the current mode."""
        if self.rng is None:
            return self.delays.nominal(node)
        stream = self._delay_streams.get(node.name)
        if stream is None:
            stream = random.Random(node_stream_seed(self.seed, node.name))
            self._delay_streams[node.name] = stream
        return self.delays.sample(node, stream)

    # ------------------------------------------------------------------
    # static structure helpers
    # ------------------------------------------------------------------
    def _compute_ancestors(self) -> Dict[str, Set[str]]:
        ancestors: Dict[str, Set[str]] = {}
        for name in self.cdfg.node_names():
            chain: Set[str] = set()
            current = self.cdfg.block_of(name)
            while current is not None:
                chain.add(current)
                current = self.cdfg.block_of(current)
            ancestors[name] = chain
        return ancestors

    def _inside(self, name: str, root: str) -> bool:
        return root in self._ancestors[name]

    def _matching_if(self, endif: str) -> str:
        for arc in self.cdfg.arcs_to(endif):
            if self.cdfg.node(arc.src).kind is NodeKind.IF:
                return arc.src
        raise SimulationError(f"ENDIF {endif!r} has no decision arc")

    # ------------------------------------------------------------------
    # enablement
    # ------------------------------------------------------------------
    def _required_arcs(self, name: str) -> Optional[List[Arc]]:
        """Incoming arcs whose tokens enable ``name`` right now.

        Returns None when the node cannot fire in its current mode
        (e.g. an ENDIF whose IF has not yet decided).
        """
        node = self.cdfg.node(name)
        incoming = self.cdfg.arcs_to(name)
        if node.kind is NodeKind.LOOP:
            entered = self.loop_entered.get(name, False)
            if entered:
                return [arc for arc in incoming if self.cdfg.is_iterate_arc(arc)]
            return [
                arc
                for arc in incoming
                if not self.cdfg.is_iterate_arc(arc) and not self._inside(arc.src, name)
            ]
        if node.kind is NodeKind.ENDIF:
            if_root = self._matching_if(name)
            taken = self.if_taken.get(if_root)
            if taken is None:
                return None
            required = []
            for arc in incoming:
                if arc.src == if_root:
                    required.append(arc)
                elif (
                    self._inside(arc.src, if_root)
                    and self._branch_relative_to(arc.src, if_root) == taken
                ):
                    required.append(arc)
            return required
        return [arc for arc in incoming if self._arc_required_now(name, arc)]

    def _arc_required_now(self, name: str, arc: Arc) -> bool:
        """Entry arcs (source outside the destination's loop) carry one
        event per loop execution: they gate only the first firing after
        the loop is entered."""
        loop = innermost_loop(self.cdfg, name)
        if loop is None:
            return True
        if arc.src == loop or self._inside(arc.src, loop):
            return True
        # entry arc: required until the node fires once in this epoch
        return self._node_epoch.get(name) != self.loop_epoch.get(loop, 0)

    def _branch_relative_to(self, name: str, if_root: str) -> Optional[str]:
        """Branch of the direct item of ``if_root`` that contains ``name``."""
        current = name
        while current is not None and self.cdfg.block_of(current) != if_root:
            current = self.cdfg.block_of(current)
            if current is None:
                return None
        return self.cdfg.branch_of(current) if current is not None else None

    def _enabled(self, name: str) -> Optional[List[Arc]]:
        if name in self.busy:
            return None
        required = self._required_arcs(name)
        if required is None:
            return None
        if not required:
            # START is fired exactly once by run(); every other node
            # needs at least one satisfied constraint to fire again.
            return None
        for arc in required:
            if self.tokens[arc.key] < 1:
                return None
        return required

    # ------------------------------------------------------------------
    # token movement
    # ------------------------------------------------------------------
    def _emit(self, arc: Arc) -> None:
        self.tokens[arc.key] += 1
        if self.tokens[arc.key] > 1:
            message = (
                f"channel safety violated at t={self.kernel.now:.3f}: "
                f"two outstanding transitions on {arc}"
            )
            self.result.violations.append(message)
            if self.strict:
                raise ChannelSafetyError(message)
        self._track_production(arc)
        self._try_fire(arc.dst)

    def _consume(self, arcs: List[Arc]) -> None:
        for arc in arcs:
            if self.tokens[arc.key] < 1:
                raise SimulationError(f"consuming missing token on {arc}")
            self.tokens[arc.key] -= 1
            self._track_consumption(arc)

    # ------------------------------------------------------------------
    # merged-wire occupancy (channel-plan conformance)
    # ------------------------------------------------------------------
    def _track_production(self, arc: Arc) -> None:
        channel = self._arc_channel.get(arc.key)
        if channel is None:
            return
        outstanding = self._channel_outstanding.setdefault(channel, {})
        concurrent = sorted(
            src for src, count in outstanding.items() if count > 0 and src != arc.src
        )
        outstanding[arc.src] = outstanding.get(arc.src, 0) + 1
        if concurrent:
            message = (
                f"channel safety violated at t={self.kernel.now:.3f}: event of "
                f"{arc.src!r} emitted on merged channel {channel} while the event "
                f"of {concurrent[0]!r} is still outstanding"
            )
            self.result.violations.append(message)
            if self.strict:
                raise ChannelSafetyError(message)

    def _track_consumption(self, arc: Arc) -> None:
        channel = self._arc_channel.get(arc.key)
        if channel is None:
            return
        outstanding = self._channel_outstanding.get(channel)
        if outstanding and outstanding.get(arc.src, 0) > 0:
            outstanding[arc.src] -= 1

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def _try_fire(self, name: str) -> None:
        required = self._enabled(name)
        if required is None:
            return
        node = self.cdfg.node(name)
        self._consume(required)
        self.busy.add(name)
        loop = innermost_loop(self.cdfg, name)
        if loop is not None:
            self._node_epoch[name] = self.loop_epoch.get(loop, 0)
        start = self.kernel.now
        delay = self._node_delay(node)

        label = f"{self.cdfg.fu_of(name)}:{name}"
        if node.kind is NodeKind.OPERATION:
            writes = self._evaluate_operation(node)
            self.kernel.schedule(
                delay, lambda: self._complete_operation(node, start, writes), label=label
            )
        else:
            self.kernel.schedule(
                delay, lambda: self._complete_structural(node, start, required), label=label
            )

    def _evaluate_operation(self, node: Node) -> List[Tuple[str, float]]:
        """Read operands now; later statements of a merged node see the
        earlier statements' results (they execute as one fragment)."""
        view = dict(self.registers)
        writes: List[Tuple[str, float]] = []
        for statement in node.statements:
            if statement.dest in self._input_names:
                raise SimulationError(f"write to read-only input {statement.dest!r}")
            value = evaluate_expr(statement.expr, view)
            view[statement.dest] = value
            writes.append((statement.dest, value))
        return writes

    def _complete_operation(
        self, node: Node, start: float, writes: List[Tuple[str, float]]
    ) -> None:
        for dest, value in writes:
            self.registers[dest] = value
            self.result.writes.append((dest, value))
        self._finish(node, start)
        for arc in self.cdfg.arcs_from(node.name):
            self._emit(arc)

    def _complete_structural(self, node: Node, start: float, consumed: List[Arc]) -> None:
        self._finish(node, start)
        name = node.name
        if node.kind is NodeKind.START:
            for arc in self.cdfg.arcs_from(name):
                self._emit(arc)
        elif node.kind is NodeKind.END:
            self._ended = True
            self.result.end_time = self.kernel.now
            if self.kernel.trace is not None:
                self.result.end_event = self.kernel.trace.current
        elif node.kind is NodeKind.LOOP:
            self._complete_loop(name, consumed)
        elif node.kind is NodeKind.ENDLOOP:
            for arc in self.cdfg.arcs_from(name):
                self._emit(arc)
        elif node.kind is NodeKind.IF:
            self._complete_if(name)
        elif node.kind is NodeKind.ENDIF:
            if_root = self._matching_if(name)
            self.if_taken[if_root] = None
            for arc in self.cdfg.arcs_from(name):
                self._emit(arc)

    def _complete_loop(self, name: str, consumed: List[Arc]) -> None:
        node = self.cdfg.node(name)
        assert node.condition is not None
        condition = self.registers.get(node.condition)
        if condition is None:
            raise SimulationError(f"loop condition {node.condition!r} never initialized")
        entering = not self.loop_entered.get(name, False)
        if condition:
            self.result.loop_iterations[name] = self.result.loop_iterations.get(name, 0) + 1
            if entering:
                self.loop_entered[name] = True
                self.loop_epoch[name] = self.loop_epoch.get(name, 0) + 1
                # pre-enable backward arcs for the first iteration
                for arc in self.cdfg.arcs():
                    if arc.backward and self._inside(arc.src, name) and self._inside(arc.dst, name):
                        if self.tokens[arc.key] == 0:
                            self.tokens[arc.key] = 1
                            self._track_production(arc)
                        self._try_fire(arc.dst)
            for arc in self.cdfg.arcs_from(name):
                if self._inside(arc.dst, name) or arc.dst == name:
                    self._emit(arc)
        else:
            self.loop_entered[name] = False
            for arc in self.cdfg.arcs_from(name):
                if not self._inside(arc.dst, name):
                    self._emit(arc)

    def _complete_if(self, name: str) -> None:
        node = self.cdfg.node(name)
        assert node.condition is not None
        condition = self.registers.get(node.condition)
        if condition is None:
            raise SimulationError(f"if condition {node.condition!r} never initialized")
        taken = "then" if condition else "else"
        self.if_taken[name] = taken
        for arc in self.cdfg.arcs_from(name):
            if self._inside(arc.dst, name):
                # branch entry arcs: only the taken branch fires
                if self._branch_relative_to(arc.dst, name) == taken:
                    self._emit(arc)
            else:
                # the decision arc to ENDIF, plus read-completion arcs
                # (register-allocation constraints from the condition
                # examination) to nodes at the enclosing level
                self._emit(arc)

    def _finish(self, node: Node, start: float) -> None:
        self.busy.discard(node.name)
        self.result.firings.append(Firing(node.name, start, self.kernel.now))
        # a node may be re-enabled immediately (e.g. LOOP via iterate token)
        self.kernel.schedule(
            0.0, lambda: self._try_fire(node.name), label=f"poke:{node.name}"
        )

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> TokenSimResult:
        with span("sim/tokens", workload=self.cdfg.name):
            return self._run()

    def _run(self) -> TokenSimResult:
        self._try_fire_start()
        self.kernel.run(max_events=self.max_events)
        self.result.events_processed = self.kernel.events_processed
        if not self._ended:
            raise self._deadlock_error()
        self._check_leftover_tokens()
        return self.result

    def _try_fire_start(self) -> None:
        start = self.cdfg.start
        self.busy.add(start.name)
        self.kernel.schedule(
            self.delays.nominal(start),
            lambda: self._complete_structural(start, 0.0, []),
            label=f"{self.cdfg.fu_of(start.name)}:{start.name}",
        )

    def _deadlock_error(self) -> DeadlockError:
        """The watchdog's verdict on a quiesced-but-unfinished run.

        Diagnoses the stall frontier: nodes holding some but not all of
        their required tokens (the classic deadlock symptom), falling
        back to never-fired nodes with missing tokens when nothing is
        even partially enabled.  Every missing arc is reported as a
        blocked channel (with its merged-channel name when a channel
        plan is active), and the kernel's recent-label window names the
        last events that did execute before the stall.
        """
        fired = {firing.node for firing in self.result.firings}
        frontier = []
        downstream = []
        for name in sorted(self.cdfg.node_names()):
            required = self._required_arcs(name)
            if required is None or not required:
                continue
            missing = [arc for arc in required if self.tokens[arc.key] < 1]
            held = [arc for arc in required if self.tokens[arc.key] >= 1]
            if not missing:
                continue
            entry = {
                "node": name,
                "missing": [str(arc) for arc in missing],
                "held": [str(arc) for arc in held],
            }
            if held:
                frontier.append((entry, missing))
            elif name not in fired:
                downstream.append((entry, missing))
        diagnosed = frontier or downstream
        waiting = [entry for entry, __ in diagnosed]
        blocked_channels = []
        seen = set()
        for __, missing in diagnosed:
            for arc in missing:
                channel = self._arc_channel.get(arc.key)
                wire = channel if channel is not None else f"{arc.src}->{arc.dst}"
                if wire not in seen:
                    seen.add(wire)
                    blocked_channels.append(wire)
        summary = (
            "; ".join(f"{e['node']} waits for {e['missing']}" for e in waiting[:4])
            or "no partially-enabled nodes"
        )
        if len(waiting) > 4:
            summary += f"; ... {len(waiting) - 4} more"
        return DeadlockError(
            f"simulation quiesced at t={self.kernel.now:.3f} without reaching END "
            f"(deadlock: {summary})",
            time=self.kernel.now,
            waiting=tuple(waiting),
            blocked_channels=tuple(blocked_channels),
            recent_events=tuple(self.kernel.recent_labels),
        )

    def _check_leftover_tokens(self) -> None:
        """After quiescence, tokens may legitimately remain only on
        backward arcs (emitted by the final iteration for a successor
        iteration that never starts) and on loop-internal arcs written
        by final-iteration stragglers."""
        for arc in self.cdfg.arcs():
            if self.tokens[arc.key] == 0:
                continue
            if arc.backward or self.cdfg.is_iterate_arc(arc):
                continue
            src_loops = {
                root for root in self._ancestors[arc.src]
                if self.cdfg.node(root).kind is NodeKind.LOOP
            }
            if src_loops:
                continue  # final-iteration straggler inside a loop
            dst_loops = {
                root for root in self._ancestors[arc.dst]
                if self.cdfg.node(root).kind is NodeKind.LOOP
            }
            if dst_loops - src_loops:
                # an entry arc whose loop executed zero iterations (or
                # exited before its first consumer fired)
                continue
            message = f"leftover token outside any loop on {arc}"
            self.result.violations.append(message)
            if self.strict:
                raise SimulationError(message)


def simulate_tokens(
    cdfg: Cdfg,
    delay_model: Optional[DelayModel] = None,
    seed: SeedLike = None,
    strict: bool = True,
    max_events: int = 1_000_000,
    channel_plan: Optional[ChannelPlan] = None,
    trace: Optional[EventTrace] = None,
) -> TokenSimResult:
    """Run one token simulation of ``cdfg`` and return the result."""
    simulator = TokenSimulator(
        cdfg,
        delay_model=delay_model,
        seed=seed,
        strict=strict,
        max_events=max_events,
        channel_plan=channel_plan,
        trace=trace,
    )
    return simulator.run()
