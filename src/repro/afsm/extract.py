"""Controller extraction: CDFG + channel plan -> one XBM per unit.

Paper Section 4: "The extraction algorithm is a direct deterministic
translation from the CDFG into asynchronous Burst-Mode Controllers."
The four steps are implemented as:

1. each CDFG node is translated into a burst-mode fragment
   (:mod:`repro.afsm.fragments`);
2. fragments are stitched along the controller's schedule, with loop
   cycles, IF choice states, and first-iteration prologues where a
   node's wait set differs between the first and steady iterations
   (entry arcs wait only once; backward arcs are pre-enabled);
3. global signal phases are assigned per channel: events alternate
   polarity in execution order; a channel whose per-iteration event
   count is odd gets a synthetic *reset* transition emitted by a later
   sender fragment and absorbed by receivers as a directed don't-care,
   keeping every iteration polarity-identical (the XBM equivalent of
   return-to-zero on sparse wires);
4. early arrivals are tolerated by construction: the system simulator
   queues channel events, and ddc edges mark the spec positions where
   early transitions may land.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.afsm.burst import Cond, Edge, InputBurst, OutputBurst
from repro.afsm.fragments import FragmentPlan, GlobalEdge, expand_operation
from repro.afsm.machine import BurstModeMachine
from repro.afsm.signals import Signal, SignalKind
from repro.cdfg.blocks import innermost_loop
from repro.cdfg.graph import ENV, Cdfg
from repro.cdfg.kinds import NodeKind
from repro.cdfg.node import Node
from repro.channels.model import Channel, ChannelPlan
from repro.errors import ExtractionError
from repro.obs.spans import set_attribute, span


# ----------------------------------------------------------------------
# phase assignment
# ----------------------------------------------------------------------
@dataclass
class ChannelEvent:
    """One logical event on a channel: the 'done' of one source node."""

    channel: str
    wire: str
    src: str
    rising: bool
    one_shot: bool


@dataclass
class ResetDirective:
    """A synthetic transition restoring a channel's idle level."""

    wire: str
    rising: bool
    sender_fu: str
    #: sender node whose fragment emits the reset
    attach_node: str
    #: True when the attachment wrapped to the next iteration's first
    #: fragment (prologue copies must then skip the emission)
    wraps: bool
    #: (receiver fu, node) pairs that absorb the reset as a ddc edge
    receivers: List[Tuple[str, str]] = field(default_factory=list)
    #: True when the channel starts with a pre-enabling init transition
    init_channel: bool = False
    #: True when the reset precedes its event within each iteration and
    #: is emitted in every iteration including the first
    every_iteration: bool = False


@dataclass
class PhaseAssignment:
    events: Dict[Tuple[str, str], ChannelEvent] = field(default_factory=dict)
    resets: List[ResetDirective] = field(default_factory=list)
    #: channels carrying GT1 backward arcs are initialized with one
    #: pending transition at reset ("pre-enabled constraints"): the
    #: environment emits these events at startup, so receivers wait
    #: the same burst in every iteration (no first-iteration variant)
    init_events: List[Tuple[str, bool]] = field(default_factory=list)
    #: (wire, rising, receiver fu): receivers whose arcs on an init
    #: channel are all *forward* must absorb the startup transition
    #: once (a ddc on their first transition), or the init event would
    #: satisfy their first per-iteration wait prematurely
    init_absorbs: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: timing assumptions recorded when a reset's placement could not
    #: be proven consumption-safe structurally (paper-style relative
    #: timing assumptions to be discharged by analysis or simulation)
    assumptions: List[str] = field(default_factory=list)

    def event_for(self, channel: str, src: str) -> ChannelEvent:
        try:
            return self.events[(channel, src)]
        except KeyError:
            raise ExtractionError(f"no event for node {src!r} on channel {channel!r}") from None


def _loop_context(cdfg: Cdfg, name: str) -> Optional[str]:
    """The loop a node's firing repeats with (the node's innermost
    loop; a LOOP/ENDLOOP node repeats with its own loop)."""
    node = cdfg.node(name)
    if node.kind in (NodeKind.LOOP, NodeKind.ENDLOOP):
        if node.kind is NodeKind.LOOP:
            return name
        for arc in cdfg.arcs_from(name):
            if cdfg.node(arc.dst).kind is NodeKind.LOOP:
                return arc.dst
    return innermost_loop(cdfg, name)


def _fu_nodes_in_loop(cdfg: Cdfg, fu: str, loop: str) -> List[str]:
    """The fu's schedule restricted to one loop's repeating context."""
    return [
        name
        for name in cdfg.fu_schedule(fu)
        if _loop_context(cdfg, name) == loop
    ]


def assign_phases(cdfg: Cdfg, plan: ChannelPlan) -> PhaseAssignment:
    """Assign concrete +/- phases to every channel event."""
    assignment = PhaseAssignment()
    topo_position = {name: i for i, name in enumerate(cdfg.topological_order())}

    for channel in plan.channels:
        events: Dict[str, Dict] = {}
        for src, dst in channel.arcs:
            loop = _loop_context(cdfg, src)
            one_shot = loop is None
            if loop is not None:
                # exit events (a LOOP's arcs leaving its block) fire once
                dst_loop = innermost_loop(cdfg, dst)
                if cdfg.node(src).kind is NodeKind.LOOP and dst_loop != src:
                    one_shot = dst != src and not _is_inside(cdfg, dst, src)
            entry = events.setdefault(src, {"one_shot": one_shot, "loop": loop})
            entry["one_shot"] = entry["one_shot"] and one_shot

        one_shots = sorted(
            (src for src, meta in events.items() if meta["one_shot"]),
            key=lambda name: topo_position[name],
        )
        cycle = sorted(
            (src for src, meta in events.items() if not meta["one_shot"]),
            key=lambda name: topo_position[name],
        )

        level = 0
        carries_backward = any(
            cdfg.arc(src, dst).backward for src, dst in channel.arcs
        )
        if carries_backward:
            # pre-enabled constraint: the wire starts with one pending
            # transition, emitted by the environment at startup
            init_rising = level == 0
            assignment.init_events.append((channel.wire_name(), init_rising))
            level ^= 1
            # receivers that only hold forward arcs on this wire must
            # swallow the startup transition exactly once
            for fu in sorted(channel.dst_fus):
                fu_arcs = [
                    cdfg.arc(src, dst)
                    for src, dst in channel.arcs
                    if cdfg.fu_of(dst) == fu
                ]
                if not fu_arcs:
                    continue
                if all(not arc.backward for arc in fu_arcs):
                    assignment.init_absorbs.append(
                        (channel.wire_name(), init_rising, fu)
                    )
                elif any(not arc.backward for arc in fu_arcs):
                    raise ExtractionError(
                        f"channel {channel.name}: receiver {fu} mixes backward "
                        "and forward arcs on a pre-enabled wire (unsupported)"
                    )
        for src in one_shots:
            rising = level == 0
            assignment.events[(channel.name, src)] = ChannelEvent(
                channel.name, channel.wire_name(), src, rising, True
            )
            level ^= 1
        cycle_start_level = level
        if carries_backward and len(cycle) == 1:
            # pre-enabled channel with one event per iteration: every
            # iteration looks like the init event (same polarity), with
            # a reset emitted *before* the event, first iteration
            # included (the init transition is consumed first)
            src = cycle[0]
            init_rising = cycle_start_level == 1  # init drove it there
            assignment.events[(channel.name, src)] = ChannelEvent(
                channel.name, channel.wire_name(), src, init_rising, False
            )
            directive = _plan_reset(
                cdfg,
                plan,
                channel,
                src,
                rising=not init_rising,
                assumptions=assignment.assumptions,
                before_event=True,
            )
            directive.init_channel = True
            directive.every_iteration = True
            assignment.resets.append(directive)
            continue
        for src in cycle:
            rising = level == 0
            assignment.events[(channel.name, src)] = ChannelEvent(
                channel.name, channel.wire_name(), src, rising, False
            )
            level ^= 1
        if carries_backward and cycle:
            last_event = assignment.events[(channel.name, cycle[-1])]
            backward_srcs = {
                src for src, dst in channel.arcs if cdfg.arc(src, dst).backward
            }
            for src in backward_srcs:
                event = assignment.events[(channel.name, src)]
                if event.rising != (cycle_start_level == 1):
                    raise ExtractionError(
                        f"channel {channel.name}: backward event of {src!r} does not "
                        f"match the pre-enabling polarity; unsupported event mix"
                    )
        if cycle and level != cycle_start_level:
            # reset drives the wire back to the cycle-start level
            directive = _plan_reset(
                cdfg,
                plan,
                channel,
                cycle[-1],
                rising=(cycle_start_level == 1),
                assumptions=assignment.assumptions,
            )
            directive.init_channel = carries_backward
            assignment.resets.append(directive)
    return assignment


def _is_inside(cdfg: Cdfg, name: str, root: str) -> bool:
    current = cdfg.block_of(name)
    while current is not None:
        if current == root:
            return True
        current = cdfg.block_of(current)
    return False


def _plan_reset(
    cdfg: Cdfg,
    plan: ChannelPlan,
    channel: Channel,
    last_src: str,
    rising: bool,
    assumptions: Optional[List[str]] = None,
    before_event: bool = False,
) -> ResetDirective:
    loop = _loop_context(cdfg, last_src)
    assert loop is not None
    sender_cycle = _fu_nodes_in_loop(cdfg, channel.src_fu, loop)
    index = sender_cycle.index(last_src)

    # consumers of the final event: the reset must provably follow
    # their consumption of the transition, or a timing assumption is
    # recorded (the paper's relative-timing style of reasoning)
    forward_consumers: List[str] = []
    backward_consumers: List[str] = []
    for src, dst in channel.arcs:
        if src != last_src:
            continue
        arc = cdfg.arc(src, dst)
        (backward_consumers if arc.backward else forward_consumers).append(dst)

    from repro.transforms.unfold import cached_unfolded_reach

    reach = cached_unfolded_reach(cdfg, unfold=2)

    def eligible(candidate: str) -> bool:
        # the reset must fire unconditionally (not inside an IF branch).
        # An operation fragment may reset its *own* channel: the reset
        # rides the fragment's first output transition while the event
        # rides the last, so self-attachment is legal there (it wraps:
        # the reset precedes the next iteration's event).  Structural
        # nodes emit on a single transition, so they cannot self-reset.
        if candidate == last_src and not cdfg.node(candidate).is_operation:
            return False
        current: Optional[str] = candidate
        while current is not None and current != loop:
            if cdfg.branch_of(current) is not None:
                return False
            current = cdfg.block_of(current)
        return True

    attach: Optional[str] = None
    wraps = False
    # same-iteration positions after the event
    if not backward_consumers and not before_event:
        for candidate in sender_cycle[index + 1 :]:
            if not eligible(candidate):
                continue
            if all(reach.implies_same_iteration(c, candidate) for c in forward_consumers):
                attach = candidate
                break
    if attach is None:
        # wrap to the next iteration: only positions at or before the
        # event source keep the reset ahead of the next event.  Forward
        # consumers consumed last iteration; backward consumers consume
        # early this iteration.
        for candidate in sender_cycle[: index + 1]:
            if not eligible(candidate):
                continue
            forward_ok = all(
                reach.implies_next_iteration(c, candidate) for c in forward_consumers
            )
            backward_ok = all(
                reach.implies_same_iteration(c, candidate) for c in backward_consumers
            )
            if forward_ok and backward_ok:
                attach = candidate
                wraps = not before_event
                break
    if attach is None:
        # no provably-safe position: fall back to the first eligible
        # polarity-correct position and record the timing assumption.
        # A before-event reset (pre-enabled channel) must stay at or
        # before the event's fragment, or the wire phases invert.
        later = (
            [] if before_event
            else [name for name in sender_cycle[index + 1 :] if eligible(name)]
        )
        earlier = [name for name in sender_cycle[: index + 1] if eligible(name)]
        if later:
            attach = later[0]
            wraps = False
        elif earlier:
            attach = earlier[-1] if before_event else earlier[0]
            wraps = not before_event
        else:
            raise ExtractionError(
                f"channel {channel.name}: no unconditional fragment can carry "
                f"the reset of {last_src!r}'s event"
            )
        if assumptions is not None:
            assumptions.append(
                f"channel {channel.name}: reset emitted at {attach!r} may race "
                f"consumption of {last_src!r}'s event (verify with timing analysis)"
            )

    receivers: List[Tuple[str, str]] = []
    for fu in sorted(channel.dst_fus):
        consumers = [
            dst
            for src, dst in channel.arcs
            if cdfg.fu_of(dst) == fu and _loop_context(cdfg, src) == loop
        ]
        if not consumers:
            continue
        fu_cycle = _fu_nodes_in_loop(cdfg, fu, loop)
        in_cycle = [name for name in fu_cycle if name in consumers]
        if in_cycle:
            receivers.append((fu, in_cycle[0]))
    return ResetDirective(
        wire=channel.wire_name(),
        rising=rising,
        sender_fu=channel.src_fu,
        attach_node=attach,
        wraps=wraps,
        receivers=receivers,
    )


# ----------------------------------------------------------------------
# per-controller event tables
# ----------------------------------------------------------------------
@dataclass
class NodeEvents:
    """Wait/done wiring of one CDFG node within its controller."""

    waits_steady: List[GlobalEdge] = field(default_factory=list)
    waits_first: List[GlobalEdge] = field(default_factory=list)
    dones: List[GlobalEdge] = field(default_factory=list)
    absorbs_steady: List[GlobalEdge] = field(default_factory=list)
    emit_resets_steady: List[GlobalEdge] = field(default_factory=list)
    emit_resets_first: List[GlobalEdge] = field(default_factory=list)

    @property
    def differs(self) -> bool:
        """True when the first iteration needs its own fragment copy
        (different waits or reset emissions; ddc absorptions ride in
        every copy and cause no split)."""
        steady = [(e.wire, e.rising) for e in self.waits_steady]
        first = [(e.wire, e.rising) for e in self.waits_first]
        return steady != first or (
            [(e.wire, e.rising) for e in self.emit_resets_steady]
            != [(e.wire, e.rising) for e in self.emit_resets_first]
        )


def _node_events(
    cdfg: Cdfg,
    plan: ChannelPlan,
    phases: PhaseAssignment,
    name: str,
    event_owner: Optional[Dict[Tuple[str, str], str]] = None,
) -> NodeEvents:
    events = NodeEvents()
    fu = cdfg.fu_of(name)
    loop = _loop_context(cdfg, name)

    seen: Set[Tuple[str, str]] = set()
    for arc in sorted(cdfg.arcs_to(name), key=lambda a: a.key):
        if cdfg.fu_of(arc.src) == fu:
            continue  # intra-controller ordering is implicit in states
        if cdfg.is_iterate_arc(arc):
            continue
        channel = plan.channel_of(arc.key)
        event = phases.event_for(channel.name, arc.src)
        key = (channel.name, arc.src)
        if key in seen:
            continue
        if event_owner is not None and event_owner.get(key, name) != name:
            # the physical transition is consumed by an earlier fragment
            # of this controller; sequential state flow already orders
            # this node after it
            continue
        seen.add(key)
        edge = GlobalEdge(event.wire, event.rising)
        is_entry = (
            loop is not None
            and _loop_context(cdfg, arc.src) != loop
            and cdfg.node(arc.src).kind is not NodeKind.LOOP
        )
        if arc.backward:
            # pre-enabled by the channel's environment init event: the
            # first iteration waits it like every other iteration
            events.waits_steady.append(edge)
            events.waits_first.append(edge)
        elif is_entry and loop is not None:
            events.waits_first.append(edge)
        else:
            events.waits_steady.append(edge)
            events.waits_first.append(edge)

    done_seen: Set[str] = set()
    for arc in sorted(cdfg.arcs_from(name), key=lambda a: a.key):
        if cdfg.fu_of(arc.dst) == fu:
            continue
        if cdfg.is_iterate_arc(arc):
            continue
        channel = plan.channel_of(arc.key)
        if channel.name in done_seen:
            continue
        done_seen.add(channel.name)
        event = phases.event_for(channel.name, name)
        events.dones.append(GlobalEdge(event.wire, event.rising))

    for directive in phases.resets:
        if directive.sender_fu == fu and directive.attach_node == name:
            edge = GlobalEdge(directive.wire, directive.rising)
            events.emit_resets_steady.append(edge)
            # a wrapping reset is not emitted in the first iteration
            # (there is no previous event to reset) — except the
            # before-event resets of pre-enabled channels, which clear
            # the init transition each iteration
            if directive.every_iteration or not directive.wraps:
                events.emit_resets_first.append(edge)
        for receiver_fu, receiver_node in directive.receivers:
            if receiver_fu == fu and receiver_node == name:
                events.absorbs_steady.append(
                    GlobalEdge(directive.wire, directive.rising, ddc=True)
                )
    # deterministic ordering
    for edges in (events.waits_steady, events.waits_first, events.dones):
        edges.sort(key=lambda e: (e.wire, e.rising))
    return events


# ----------------------------------------------------------------------
# controller structure
# ----------------------------------------------------------------------
@dataclass
class _OpRef:
    node: str


@dataclass
class _LoopRef:
    root: str
    items: List["_Item"]


@dataclass
class _IfRef:
    root: str
    then_items: List["_Item"]
    else_items: List["_Item"]


_Item = Union[_OpRef, _LoopRef, _IfRef]


def _structure_for(cdfg: Cdfg, fu: str) -> List[_Item]:
    """This controller's nested work items, in schedule order.

    Items at each level are ordered by the controller's own FU
    schedule (transforms such as GT4 preserve schedule positions even
    when they re-create nodes), with nested blocks positioned by the
    earliest scheduled node they contain.
    """
    position = {name: index for index, name in enumerate(cdfg.fu_schedule(fu))}

    def item_position(item: _Item) -> float:
        if isinstance(item, _OpRef):
            return position[item.node]
        candidates: List[float] = []
        if isinstance(item, _LoopRef):
            if item.root in position:
                candidates.append(position[item.root])
            children = item.items
        else:
            if item.root in position:
                candidates.append(position[item.root])
            children = list(item.then_items) + list(item.else_items)
        for child in children:
            candidates.append(item_position(child))
        return min(candidates)

    def items_of(block: Optional[str], branch: Optional[str]) -> List[_Item]:
        items: List[_Item] = []
        for name in cdfg.node_names():
            node = cdfg.node(name)
            if cdfg.block_of(name) != block:
                continue
            if block is not None and cdfg.node(block).kind is NodeKind.IF:
                if cdfg.branch_of(name) != branch:
                    continue
            if node.kind is NodeKind.OPERATION:
                if node.fu == fu:
                    items.append(_OpRef(name))
            elif node.kind is NodeKind.LOOP:
                inner = items_of(name, None)
                if inner or node.fu == fu:
                    items.append(_LoopRef(name, inner))
            elif node.kind is NodeKind.IF:
                then_items = items_of(name, "then")
                else_items = items_of(name, "else")
                if then_items or else_items or node.fu == fu:
                    items.append(_IfRef(name, then_items, else_items))
        items.sort(key=item_position)
        return items

    return items_of(None, None)


# ----------------------------------------------------------------------
# controller and design containers
# ----------------------------------------------------------------------
@dataclass
class Controller:
    """One functional unit's extracted machine plus its wiring."""

    fu: str
    machine: BurstModeMachine
    #: channel wires this controller listens on / drives
    input_wires: List[str] = field(default_factory=list)
    output_wires: List[str] = field(default_factory=list)

    @property
    def state_count(self) -> int:
        return self.machine.state_count

    @property
    def transition_count(self) -> int:
        return self.machine.transition_count


@dataclass
class DistributedDesign:
    """The complete synthesized control: one controller per unit."""

    cdfg: Cdfg
    plan: ChannelPlan
    phases: PhaseAssignment
    controllers: Dict[str, Controller] = field(default_factory=dict)

    def controller(self, fu: str) -> Controller:
        try:
            return self.controllers[fu]
        except KeyError:
            raise ExtractionError(f"no controller for unit {fu!r}") from None

    def summary(self) -> str:
        lines = [f"design {self.cdfg.name!r}: {len(self.controllers)} controllers, "
                 f"{self.plan.count()} channels"]
        for fu, controller in self.controllers.items():
            lines.append(
                f"  {fu}: {controller.state_count} states, "
                f"{controller.transition_count} transitions"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
class _ControllerBuilder:
    def __init__(
        self,
        cdfg: Cdfg,
        plan: ChannelPlan,
        phases: PhaseAssignment,
        fu: str,
    ):
        self.cdfg = cdfg
        self.plan = plan
        self.phases = phases
        self.fu = fu
        self.machine = BurstModeMachine(fu)
        self.events: Dict[str, NodeEvents] = {}
        self._event_owner = self._compute_event_owners()
        self._declare_channel_signals()

    def _compute_event_owners(self) -> Dict[Tuple[str, str], str]:
        """First consumer of each channel event within this controller.

        A multi-way or multiplexed channel may carry several arcs of
        one event into the same controller; the physical transition is
        consumed exactly once, by the earliest scheduled unconditional
        consumer — the controller's sequential states then order every
        later fragment after it.
        """
        owners: Dict[Tuple[str, str], str] = {}
        for name in self.cdfg.fu_schedule(self.fu):
            if self._inside_branch(name):
                continue  # conditional fragments cannot own an event
            for arc in sorted(self.cdfg.arcs_to(name), key=lambda a: a.key):
                if self.cdfg.fu_of(arc.src) == self.fu:
                    continue
                if self.cdfg.is_iterate_arc(arc):
                    continue
                channel = self.plan.channel_of(arc.key)
                owners.setdefault((channel.name, arc.src), name)
        return owners

    def _inside_branch(self, name: str) -> bool:
        current: Optional[str] = name
        while current is not None:
            if self.cdfg.branch_of(current) is not None:
                return True
            current = self.cdfg.block_of(current)
        return False

    # -- signals ---------------------------------------------------------
    def _declare_channel_signals(self) -> None:
        init_levels = {
            wire: (1 if rising else 0) for wire, rising in self.phases.init_events
        }
        for channel in self.plan.channels:
            wire = channel.wire_name()
            if channel.src_fu == self.fu:
                # the sender's output flop powers up at the post-init
                # level; the receivers observe the init transition as
                # an ordinary first edge (their view starts at 0)
                self.machine.declare_signal(
                    Signal(
                        wire,
                        SignalKind.GLOBAL_READY,
                        is_input=False,
                        initial_level=init_levels.get(wire, 0),
                        guards_condition=self._channel_guards_condition(channel),
                    )
                )
            elif self.fu in channel.dst_fus:
                self.machine.declare_signal(
                    Signal(wire, SignalKind.GLOBAL_READY, is_input=True)
                )

    def _channel_guards_condition(self, channel: Channel) -> bool:
        """Does the channel synchronize a remote *condition* sample?

        True when any arc of the channel ends at a decision node
        (IF/LOOP) and names that node's condition register.  The
        receiving controller samples ``cond_<register>`` immediately
        after the done with no datapath delay, so the done must keep
        trailing the register write (see :class:`Signal`).
        """
        for key in channel.arcs:
            node = self.cdfg.node(key[1])
            if node.condition is None:
                continue
            for arc in self.cdfg.arcs_to(key[1]):
                if arc.key == key and node.condition in arc.registers:
                    return True
        return False

    def _cond_signal(self, register: str) -> str:
        name = f"cond_{register}"
        self.machine.declare_signal(
            Signal(name, SignalKind.CONDITIONAL, is_input=True, action=("cond", register))
        )
        return name

    def _events_of(self, name: str) -> NodeEvents:
        if name not in self.events:
            self.events[name] = _node_events(
                self.cdfg, self.plan, self.phases, name, self._event_owner
            )
        return self.events[name]

    # -- machine construction ---------------------------------------------
    def build(self) -> BurstModeMachine:
        cursor = self.machine.initial_state
        # absorb startup transitions of pre-enabled wires this
        # controller only observes through forward arcs
        init_absorbs = tuple(
            Edge(wire, rising, ddc=True)
            for wire, rising, fu in self.phases.init_absorbs
            if fu == self.fu
        )
        if init_absorbs:
            entry = self.machine.fresh_state(hint="boot")
            self.machine.add_transition(
                cursor,
                entry,
                InputBurst(init_absorbs),
                OutputBurst(()),
                tags={"micro": "boot"},
            )
            cursor = entry
        for item in _structure_for(self.cdfg, self.fu):
            cursor = self._emit_item(item, cursor, first_iteration=True)
        self.machine.fold_trivial_states()
        self.machine.prune_unreachable()
        return self.machine

    def _emit_item(self, item: _Item, cursor: str, first_iteration: bool) -> str:
        if isinstance(item, _OpRef):
            return self._emit_operation(item.node, cursor, first_iteration)
        if isinstance(item, _LoopRef):
            return self._emit_loop(item, cursor)
        return self._emit_if(item, cursor, first_iteration)

    def _emit_operation(self, name: str, cursor: str, first_iteration: bool) -> str:
        node = self.cdfg.node(name)
        events = self._events_of(name)
        if first_iteration:
            waits = events.waits_first
            resets = events.emit_resets_first
        else:
            waits = events.waits_steady
            resets = events.emit_resets_steady
        # a reset absorption belongs only to copies that consume the
        # wire's event: the reset follows that event, so a copy that
        # never saw the event must not account (or debt) a reset
        wait_wires = {edge.wire for edge in waits}
        absorbs = [edge for edge in events.absorbs_steady if edge.wire in wait_wires]
        plan = FragmentPlan(
            node=node,
            waits=list(waits),
            dones=list(events.dones),
            absorbs=list(absorbs),
            emit_resets=list(resets),
        )
        return expand_operation(self.machine, cursor, plan)

    # -- loops -------------------------------------------------------------
    def _emit_loop(self, item: _LoopRef, cursor: str) -> str:
        root_node = self.cdfg.node(item.root)
        owns = root_node.fu == self.fu
        needs_prologue = self._loop_needs_prologue(item)

        if owns:
            return self._emit_owned_loop(item, cursor, needs_prologue)
        return self._emit_follower_loop(item, cursor, needs_prologue)

    def _loop_needs_prologue(self, item: _LoopRef) -> bool:
        return any(self._item_differs(child) for child in item.items)

    def _item_differs(self, item: _Item) -> bool:
        if isinstance(item, _OpRef):
            return self._events_of(item.node).differs
        if isinstance(item, _LoopRef):
            return any(self._item_differs(child) for child in item.items)
        # an IF block differs when its own node does (wrapped resets,
        # absorbs) or any branch item does; the matching ENDIF too
        if self._owned(item.root) and self._events_of(item.root).differs:
            return True
        endif = self._endif_of(item.root)
        if endif is not None and self._owned(endif) and self._events_of(endif).differs:
            return True
        return any(
            self._item_differs(child)
            for child in list(item.then_items) + list(item.else_items)
        )

    def _owned(self, name: str) -> bool:
        return self.cdfg.node(name).fu == self.fu

    def _endif_of(self, root: str) -> Optional[str]:
        for arc in self.cdfg.arcs_from(root):
            if self.cdfg.node(arc.dst).kind is NodeKind.ENDIF:
                return arc.dst
        return None

    def _emit_owned_loop(self, item: _LoopRef, cursor: str, needs_prologue: bool) -> str:
        root = item.root
        node = self.cdfg.node(root)
        assert node.condition is not None
        cond = self._cond_signal(node.condition)
        events = self._events_of(root)

        steady_only = [
            (e.wire, e.rising)
            for e in events.waits_steady
            if (e.wire, e.rising) not in {(w.wire, w.rising) for w in events.waits_first}
        ]
        if steady_only:
            raise ExtractionError(
                f"LOOP {root!r} has per-iteration cross-controller waits "
                f"{steady_only}; this extraction supports loop-entry waits only"
            )

        # entry transition consumes the loop's entry events
        head = self.machine.fresh_state(hint="head")
        entry_head = self.machine.fresh_state(hint="head") if needs_prologue else head
        self.machine.add_transition(
            cursor,
            entry_head,
            InputBurst(tuple(edge.as_edge() for edge in events.waits_first)),
            OutputBurst(()),
            tags={"node": root, "micro": "entry"},
        )

        body_dones, exit_dones = self._loop_dones(root)
        exit_state = self.machine.fresh_state(hint="exit")

        # steady cycle, recording item-boundary states for prologue joins
        body_start = self.machine.fresh_state()
        self.machine.add_transition(
            head,
            body_start,
            InputBurst((), (Cond(cond, True),)),
            OutputBurst(
                tuple(e.as_edge() for e in body_dones)
                + tuple(e.as_edge() for e in events.emit_resets_steady)
            ),
            tags={"node": root, "micro": "branch"},
        )
        boundaries = [body_start]
        state = body_start
        for child in item.items:
            state = self._emit_item(child, state, first_iteration=False)
            boundaries.append(state)
        state = self._emit_endloop(root, state, first_iteration=False)
        self.machine.add_transition(
            state, head, InputBurst(()), OutputBurst(()),
            tags={"node": root, "micro": "iterate"},
        )
        self.machine.add_transition(
            head,
            exit_state,
            InputBurst((), (Cond(cond, False),)),
            OutputBurst(tuple(e.as_edge() for e in exit_dones)),
            tags={"node": root, "micro": "branch"},
        )

        if needs_prologue:
            # first iteration: duplicate fragments only up to the last
            # one whose waits differ, then join the steady cycle
            diff_flags = [self._item_differs(child) for child in item.items]
            last = max(i for i, flag in enumerate(diff_flags) if flag)
            prologue_start = self.machine.fresh_state()
            self.machine.add_transition(
                entry_head,
                prologue_start,
                InputBurst((), (Cond(cond, True),)),
                OutputBurst(
                    tuple(e.as_edge() for e in body_dones)
                    + tuple(e.as_edge() for e in events.emit_resets_first)
                ),
                tags={"node": root, "micro": "branch"},
            )
            state = prologue_start
            for child in item.items[: last + 1]:
                state = self._emit_item(child, state, first_iteration=True)
            self.machine.add_transition(
                state, boundaries[last + 1], InputBurst(()), OutputBurst(()),
                tags={"node": root, "micro": "join"},
            )
            self.machine.add_transition(
                entry_head,
                exit_state,
                InputBurst((), (Cond(cond, False),)),
                OutputBurst(tuple(e.as_edge() for e in exit_dones)),
                tags={"node": root, "micro": "branch"},
            )
        return exit_state

    def _loop_dones(self, root: str) -> Tuple[List[GlobalEdge], List[GlobalEdge]]:
        """(per-iteration body-entry events, one-shot exit events)."""
        body: List[GlobalEdge] = []
        exits: List[GlobalEdge] = []
        seen: Set[Tuple[str, bool]] = set()
        for arc in sorted(self.cdfg.arcs_from(root), key=lambda a: a.key):
            if self.cdfg.fu_of(arc.dst) == self.fu:
                continue
            channel = self.plan.channel_of(arc.key)
            event = self.phases.event_for(channel.name, root)
            inside = _is_inside(self.cdfg, arc.dst, root)
            key = (channel.name, inside)
            if key in seen:
                continue
            seen.add(key)
            edge = GlobalEdge(event.wire, event.rising)
            (body if inside else exits).append(edge)
        return body, exits

    def _emit_endloop(self, root: str, cursor: str, first_iteration: bool) -> str:
        endloop = None
        for arc in self.cdfg.arcs_to(root):
            if self.cdfg.node(arc.src).kind is NodeKind.ENDLOOP:
                endloop = arc.src
        assert endloop is not None
        if self.cdfg.node(endloop).fu != self.fu:
            return cursor
        events = self._events_of(endloop)
        waits = events.waits_first if first_iteration else events.waits_steady
        state = cursor
        for wait in waits:
            nxt = self.machine.fresh_state()
            self.machine.add_transition(
                state,
                nxt,
                InputBurst((wait.as_edge(),)),
                OutputBurst(()),
                tags={"node": endloop, "micro": "join"},
            )
            state = nxt
        resets = events.emit_resets_first if first_iteration else events.emit_resets_steady
        wait_wires = {edge.wire for edge in waits}
        absorb_edges = tuple(
            e.as_edge() for e in events.absorbs_steady if e.wire in wait_wires
        )
        if events.dones or resets or absorb_edges:
            nxt = self.machine.fresh_state()
            self.machine.add_transition(
                state,
                nxt,
                InputBurst(absorb_edges),
                OutputBurst(
                    tuple(e.as_edge() for e in events.dones)
                    + tuple(e.as_edge() for e in resets)
                ),
                tags={"node": endloop, "micro": "done"},
            )
            state = nxt
        return state

    def _emit_follower_loop(self, item: _LoopRef, cursor: str, needs_prologue: bool) -> str:
        """A controller that participates in a loop it does not own:
        its fragments cycle; the loop 'exit' is simply never seeing the
        next iteration's requests."""
        head = self.machine.fresh_state(hint="head")
        boundaries = [head]
        state = head
        for child in item.items:
            state = self._emit_item(child, state, first_iteration=False)
            boundaries.append(state)
        if state != head:
            self.machine.add_transition(
                state, head, InputBurst(()), OutputBurst(()),
                tags={"node": item.root, "micro": "iterate"},
            )
        if needs_prologue:
            diff_flags = [self._item_differs(child) for child in item.items]
            last = max(i for i, flag in enumerate(diff_flags) if flag)
            state = cursor
            for child in item.items[: last + 1]:
                state = self._emit_item(child, state, first_iteration=True)
            self.machine.add_transition(
                state, boundaries[last + 1], InputBurst(()), OutputBurst(()),
                tags={"node": item.root, "micro": "join"},
            )
        else:
            self.machine.add_transition(
                cursor, head, InputBurst(()), OutputBurst(()),
                tags={"node": item.root, "micro": "entry"},
            )
        return head

    # -- conditionals --------------------------------------------------------
    def _emit_if(self, item: _IfRef, cursor: str, first_iteration: bool) -> str:
        root_node = self.cdfg.node(item.root)
        owns = root_node.fu == self.fu
        join = self.machine.fresh_state(hint="join")

        if owns:
            assert root_node.condition is not None
            cond = self._cond_signal(root_node.condition)
            events = self._events_of(item.root)
            waits = events.waits_first if first_iteration else events.waits_steady
            branch_dones = self._if_branch_dones(item.root)
            # shared wait chain, then a conditional choice state
            state = cursor
            for wait in waits:
                nxt = self.machine.fresh_state()
                self.machine.add_transition(
                    state, nxt, InputBurst((wait.as_edge(),)), OutputBurst(()),
                    tags={"node": item.root, "micro": "wait"},
                )
                state = nxt
            choice = state
            wait_wires = {edge.wire for edge in waits}
            absorb_edges = tuple(
                e.as_edge() for e in events.absorbs_steady if e.wire in wait_wires
            )
            resets = (
                events.emit_resets_first if first_iteration else events.emit_resets_steady
            )
            for branch, items in (("then", item.then_items), ("else", item.else_items)):
                nxt = self.machine.fresh_state()
                self.machine.add_transition(
                    choice,
                    nxt,
                    InputBurst(absorb_edges, (Cond(cond, branch == "then"),)),
                    OutputBurst(
                        tuple(e.as_edge() for e in resets)
                        + tuple(e.as_edge() for e in branch_dones[branch])
                    ),
                    tags={"node": item.root, "micro": "branch"},
                )
                state = nxt
                for child in items:
                    state = self._emit_item(child, state, first_iteration)
                state = self._emit_endif(item.root, branch, state, first_iteration)
                self.machine.add_transition(
                    state, join, InputBurst(()), OutputBurst(()),
                    tags={"node": item.root, "micro": "join"},
                )
        else:
            for items in (item.then_items, item.else_items):
                state = cursor
                advanced = False
                for child in items:
                    state = self._emit_item(child, state, first_iteration)
                    advanced = True
                if advanced:
                    self.machine.add_transition(
                        state, join, InputBurst(()), OutputBurst(()),
                        tags={"node": item.root, "micro": "join"},
                    )
                else:
                    # controller inactive in this branch: it skips ahead
                    self.machine.add_transition(
                        cursor, join, InputBurst(()), OutputBurst(()),
                        tags={"node": item.root, "micro": "skip"},
                    )
        return join

    def _if_branch_dones(self, root: str) -> Dict[str, List[GlobalEdge]]:
        dones: Dict[str, List[GlobalEdge]] = {"then": [], "else": []}
        shared: List[GlobalEdge] = []
        seen: Set[Tuple[str, Optional[str]]] = set()
        for arc in sorted(self.cdfg.arcs_from(root), key=lambda a: a.key):
            if self.cdfg.fu_of(arc.dst) == self.fu:
                continue
            channel = self.plan.channel_of(arc.key)
            event = self.phases.event_for(channel.name, root)
            inside = _is_inside(self.cdfg, arc.dst, root)
            branch = self.cdfg.branch_of(arc.dst) if inside else None
            key = (channel.name, branch)
            if key in seen:
                continue
            seen.add(key)
            edge = GlobalEdge(event.wire, event.rising)
            if branch is None:
                shared.append(edge)
            else:
                dones[branch].append(edge)
        dones["then"].extend(shared)
        dones["else"].extend(shared)
        return dones

    def _emit_endif(
        self, root: str, branch: str, cursor: str, first_iteration: bool = False
    ) -> str:
        endif = None
        for arc in self.cdfg.arcs_from(root):
            if self.cdfg.node(arc.dst).kind is NodeKind.ENDIF:
                endif = arc.dst
        assert endif is not None
        if self.cdfg.node(endif).fu != self.fu:
            return cursor
        state = cursor
        waits: List[GlobalEdge] = []
        seen: Set[Tuple[str, str]] = set()
        for arc in sorted(self.cdfg.arcs_to(endif), key=lambda a: a.key):
            if self.cdfg.fu_of(arc.src) == self.fu:
                continue
            src_branch = self.cdfg.branch_of(arc.src)
            if src_branch is not None and src_branch != branch:
                continue
            channel = self.plan.channel_of(arc.key)
            key = (channel.name, arc.src)
            if key in seen:
                continue
            if self._event_owner.get(key, endif) != endif:
                continue  # consumed by an earlier fragment of this controller
            seen.add(key)
            event = self.phases.event_for(channel.name, arc.src)
            waits.append(GlobalEdge(event.wire, event.rising))
        for wait in waits:
            nxt = self.machine.fresh_state()
            self.machine.add_transition(
                state, nxt, InputBurst((wait.as_edge(),)), OutputBurst(()),
                tags={"node": endif, "micro": "join"},
            )
            state = nxt
        events = self._events_of(endif)
        wait_wires = {edge.wire for edge in waits}
        absorb_edges = tuple(
            e.as_edge() for e in events.absorbs_steady if e.wire in wait_wires
        )
        resets = events.emit_resets_first if first_iteration else events.emit_resets_steady
        if events.dones or absorb_edges or resets:
            nxt = self.machine.fresh_state()
            self.machine.add_transition(
                state, nxt, InputBurst(absorb_edges),
                OutputBurst(
                    tuple(e.as_edge() for e in events.dones)
                    + tuple(e.as_edge() for e in resets)
                ),
                tags={"node": endif, "micro": "done"},
            )
            state = nxt
        return state


def extract_controllers(cdfg: Cdfg, plan: ChannelPlan) -> DistributedDesign:
    """Extract one burst-mode controller per functional unit."""
    with span("extract_controllers", workload=cdfg.name):
        phases = assign_phases(cdfg, plan)
        design = DistributedDesign(cdfg=cdfg, plan=plan, phases=phases)
        for fu in cdfg.functional_units():
            with span(f"extract/{fu}"):
                builder = _ControllerBuilder(cdfg, plan, phases, fu)
                machine = builder.build()
                set_attribute("states", len(machine.states()))
                set_attribute("transitions", len(machine.transitions()))
            controller = Controller(
                fu=fu,
                machine=machine,
                input_wires=[s.name for s in machine.inputs() if s.kind is SignalKind.GLOBAL_READY],
                output_wires=[s.name for s in machine.outputs() if s.kind is SignalKind.GLOBAL_READY],
            )
            design.controllers[fu] = controller
        set_attribute("controllers", len(design.controllers))
    return design
