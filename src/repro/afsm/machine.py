"""The burst-mode machine container and its rewrite helpers."""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.afsm.burst import Cond, Edge, InputBurst, OutputBurst
from repro.afsm.signals import Signal, SignalKind
from repro.errors import BurstModeError


@dataclass
class State:
    name: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class _Tags(dict):
    """The read-only tag dict of a transition; its machine rewrites it
    through :meth:`BurstModeMachine.tag_transition`."""

    def _read_only(self, *args, **kwargs):
        raise BurstModeError(
            "transition tags are read-only; use BurstModeMachine.tag_transition"
        )

    __setitem__ = __delitem__ = __ior__ = setdefault = update = _read_only
    pop = popitem = clear = _read_only

    def __reduce__(self):
        return (_Tags, (dict(self),))


@dataclass(frozen=True)
class Transition:
    """A state transition: ``src --input_burst / output_burst--> dst``.

    ``tags`` records provenance for the local transforms: which CDFG
    node's fragment the transition belongs to (``node``) and which
    micro-operation it implements (``micro``: wait/mux/op/dstmux/
    write/reset/done/branch/join).

    A transition is frozen and its tag dict is read-only: its machine
    rewrites ``dst``, the bursts and the tags
    (:meth:`BurstModeMachine.retarget_transition`, ``set_input_burst``,
    ``set_output_burst``, ``tag_transition``), and each rewrite
    advances the machine's generation.
    """

    uid: int
    src: str
    dst: str
    input_burst: InputBurst
    output_burst: OutputBurst
    tags: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.tags, _Tags):
            object.__setattr__(self, "tags", _Tags(self.tags or {}))

    def __str__(self) -> str:
        return f"{self.src} --{self.input_burst} / {self.output_burst}--> {self.dst}"


class BurstModeMachine:
    """A mutable XBM machine.

    States and transitions are addressed by name / uid; rewrite
    helpers keep indices consistent so the local transforms can edit
    the machine safely.  Like :class:`~repro.cdfg.graph.Cdfg`, every
    mutation advances :attr:`generation` and clears
    :meth:`analysis_cache`.
    """

    def __init__(self, name: str, initial_state: str = "s0"):
        self.name = name
        self._initial_state = initial_state
        #: monotone mutation counter; every change bumps it, which also
        #: drops the memoized analyses keyed on this machine
        self._generation = 0
        self._analysis_cache: Dict[object, object] = {}
        self._states: Dict[str, State] = {initial_state: State(initial_state)}
        self._transitions: Dict[int, Transition] = {}
        self._signals: Dict[str, Signal] = {}
        self._next_uid = 0
        self._next_state = 0
        # per-state uid lists, kept in ascending uid order as they are
        # edited, so the accessors are deterministic without sorting
        self._from_index: Dict[str, List[int]] = {}
        self._to_index: Dict[str, List[int]] = {}

    @property
    def initial_state(self) -> str:
        return self._initial_state

    # ------------------------------------------------------------------
    # analysis caching
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Number of mutations this machine has seen."""
        return self._generation

    def invalidate_analyses(self) -> None:
        """Advance the generation and drop every memoized analysis.

        Called by every mutating method, including the transition
        rewrites (:class:`Transition` itself refuses assignment).
        """
        self._generation += 1
        if self._analysis_cache:
            self._analysis_cache.clear()

    def analysis_cache(self) -> Dict[object, object]:
        """Per-machine memo table, cleared on every mutation.

        Keys are tuples starting with the analysis name.  Entries must
        depend only on the machine's content, never on its Transition
        objects: :meth:`copy` carries them, because the copy has the
        same content.
        """
        return self._analysis_cache

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def declare_signal(self, signal: Signal) -> Signal:
        existing = self._signals.get(signal.name)
        if existing is not None:
            if existing != signal:
                raise BurstModeError(
                    f"signal {signal.name!r} re-declared inconsistently in {self.name}"
                )
            return existing
        self._signals[signal.name] = signal
        self.invalidate_analyses()
        return signal

    def signal(self, name: str) -> Signal:
        try:
            return self._signals[name]
        except KeyError:
            raise BurstModeError(f"unknown signal {name!r} in machine {self.name}") from None

    def signals(self) -> List[Signal]:
        return list(self._signals.values())

    def inputs(self) -> List[Signal]:
        return [s for s in self._signals.values() if s.is_input]

    def outputs(self) -> List[Signal]:
        return [s for s in self._signals.values() if not s.is_input]

    def drop_signal(self, name: str) -> None:
        """Remove a signal from the registry (it must be unused)."""
        for transition in self._transitions.values():
            if name in transition.input_burst.signals() or name in transition.output_burst.signals():
                raise BurstModeError(f"signal {name!r} still used; cannot drop")
        if self._signals.pop(name, None) is not None:
            self.invalidate_analyses()

    def rename_signal(self, old: str, new_signal: Signal) -> None:
        """Replace every occurrence of ``old`` with ``new_signal.name``
        (used by LT5 signal sharing)."""
        self.declare_signal(new_signal)
        for transition in self._transitions.values():
            if old in transition.input_burst.signals():
                self.set_input_burst(
                    transition.uid,
                    InputBurst(
                        tuple(
                            Edge(new_signal.name, e.rising, e.ddc) if e.signal == old else e
                            for e in transition.input_burst.edges
                        ),
                        transition.input_burst.conditions,
                    ),
                )
            if old in transition.output_burst.signals():
                self.set_output_burst(
                    transition.uid,
                    OutputBurst(
                        tuple(
                            Edge(new_signal.name, e.rising, e.ddc) if e.signal == old else e
                            for e in transition.output_burst.edges
                        )
                    ),
                )
        self._signals.pop(old, None)
        self.invalidate_analyses()

    # ------------------------------------------------------------------
    # states / transitions
    # ------------------------------------------------------------------
    def fresh_state(self, hint: str = "s") -> str:
        while True:
            self._next_state += 1
            name = f"{hint}{self._next_state}"
            if name not in self._states:
                break
        self._states[name] = State(name)
        self.invalidate_analyses()
        return name

    def add_state(self, name: str) -> str:
        if name in self._states:
            raise BurstModeError(f"duplicate state {name!r}")
        self._states[name] = State(name)
        self.invalidate_analyses()
        return name

    def add_transition(
        self,
        src: str,
        dst: str,
        input_burst: InputBurst,
        output_burst: OutputBurst,
        tags: Optional[Dict[str, str]] = None,
    ) -> Transition:
        for state in (src, dst):
            if state not in self._states:
                raise BurstModeError(f"unknown state {state!r}")
        transition = Transition(self._next_uid, src, dst, input_burst, output_burst, tags)
        self._next_uid += 1
        self._transitions[transition.uid] = transition
        # uids ascend, so appending keeps the lists sorted
        self._from_index.setdefault(src, []).append(transition.uid)
        self._to_index.setdefault(dst, []).append(transition.uid)
        self.invalidate_analyses()
        return transition

    def remove_transition(self, uid: int) -> Transition:
        try:
            transition = self._transitions.pop(uid)
        except KeyError:
            raise BurstModeError(f"no transition #{uid}") from None
        self._from_index[transition.src].remove(uid)
        self._to_index[transition.dst].remove(uid)
        self.invalidate_analyses()
        return transition

    def retarget_transition(self, uid: int, dst: str) -> None:
        """Point transition ``uid`` at a new destination state."""
        transition = self.transition(uid)
        if dst not in self._states:
            raise BurstModeError(f"unknown state {dst!r}")
        self._to_index[transition.dst].remove(uid)
        object.__setattr__(transition, "dst", dst)
        insort(self._to_index.setdefault(dst, []), uid)
        self.invalidate_analyses()

    def set_input_burst(self, uid: int, burst: InputBurst) -> None:
        """Replace transition ``uid``'s input burst."""
        object.__setattr__(self.transition(uid), "input_burst", burst)
        self.invalidate_analyses()

    def set_output_burst(self, uid: int, burst: OutputBurst) -> None:
        """Replace transition ``uid``'s output burst."""
        object.__setattr__(self.transition(uid), "output_burst", burst)
        self.invalidate_analyses()

    def tag_transition(self, uid: int, key: str, value: str) -> None:
        """Set one tag of transition ``uid``."""
        transition = self.transition(uid)
        object.__setattr__(transition, "tags", _Tags({**transition.tags, key: value}))
        self.invalidate_analyses()

    def remove_state(self, name: str) -> None:
        if name == self.initial_state:
            raise BurstModeError("cannot remove the initial state")
        if self._from_index.get(name) or self._to_index.get(name):
            raise BurstModeError(f"state {name!r} still has transitions")
        del self._states[name]
        self._from_index.pop(name, None)
        self._to_index.pop(name, None)
        self.invalidate_analyses()

    def transition(self, uid: int) -> Transition:
        try:
            return self._transitions[uid]
        except KeyError:
            raise BurstModeError(f"no transition #{uid}") from None

    def transitions(self) -> List[Transition]:
        return list(self._transitions.values())

    def transitions_from(self, state: str) -> List[Transition]:
        """The transitions leaving ``state``, in uid order."""
        return [self._transitions[uid] for uid in self._from_index.get(state, ())]

    def transitions_to(self, state: str) -> List[Transition]:
        """The transitions entering ``state``, in uid order."""
        return [self._transitions[uid] for uid in self._to_index.get(state, ())]

    def states(self) -> List[str]:
        return list(self._states.keys())

    @property
    def state_count(self) -> int:
        return len(self._states)

    @property
    def transition_count(self) -> int:
        return len(self._transitions)

    # ------------------------------------------------------------------
    # rewrite helpers
    # ------------------------------------------------------------------
    def fold_trivial_states(self) -> int:
        """Merge away states entered and left unconditionally.

        A state whose single outgoing transition has an *empty* input
        burst fires immediately; its outputs are appended to every
        incoming transition and the state disappears.  Returns the
        number of states removed.  This is how local transforms shrink
        the machine: they empty bursts, folding does the bookkeeping.
        """
        removed = 0
        changed = True
        while changed:
            changed = False
            for state in list(self._states):
                if state == self.initial_state:
                    continue
                outgoing = self.transitions_from(state)
                incoming = self.transitions_to(state)
                if len(outgoing) != 1 or not incoming:
                    continue
                follow = outgoing[0]
                if not follow.input_burst.is_empty or follow.dst == state:
                    continue
                # never merge bursts that touch the same output wire
                # (e.g. a request's rise and fall must stay ordered)
                if any(
                    follow.output_burst.signals() & entry.output_burst.signals()
                    for entry in incoming
                ):
                    continue
                if follow.input_burst.edges:
                    # only ddc edges left: they ride along, unless the
                    # receiving burst already touches the same wire
                    ddc_edges = follow.input_burst.edges
                    ddc_signals = {edge.signal for edge in ddc_edges}
                    if any(
                        ddc_signals
                        & (entry.input_burst.signals() | entry.output_burst.signals())
                        for entry in incoming
                    ):
                        continue
                else:
                    ddc_edges = ()
                for entry in incoming:
                    self.set_output_burst(
                        entry.uid,
                        OutputBurst(entry.output_burst.edges + follow.output_burst.edges),
                    )
                    if ddc_edges:
                        self.set_input_burst(
                            entry.uid,
                            InputBurst(
                                entry.input_burst.edges + ddc_edges,
                                entry.input_burst.conditions,
                            ),
                        )
                    self.retarget_transition(entry.uid, follow.dst)
                    self.tag_transition(
                        entry.uid,
                        "folded",
                        entry.tags.get("folded", "") + f"+{follow.tags.get('micro', '?')}",
                    )
                self.remove_transition(follow.uid)
                self.remove_state(state)
                removed += 1
                changed = True
        return removed

    def reachable_states(self) -> Set[str]:
        seen = {self.initial_state}
        frontier = [self.initial_state]
        while frontier:
            current = frontier.pop()
            for transition in self.transitions_from(current):
                if transition.dst not in seen:
                    seen.add(transition.dst)
                    frontier.append(transition.dst)
        return seen

    def prune_unreachable(self) -> int:
        reachable = self.reachable_states()
        removed = 0
        for transition in list(self._transitions.values()):
            if transition.src not in reachable:
                self.remove_transition(transition.uid)
        for state in list(self._states):
            if state not in reachable:
                del self._states[state]
                removed += 1
        if removed:
            self.invalidate_analyses()
        return removed

    def copy(self) -> "BurstModeMachine":
        """Deep copy (states/transitions are duplicated; signals and
        bursts are immutable and shared).  The copy carries the memoized
        analyses, which describe content only."""
        clone = BurstModeMachine(self.name, self.initial_state)
        clone._states = {name: State(name) for name in self._states}
        clone._signals = dict(self._signals)
        clone._next_uid = self._next_uid
        clone._next_state = self._next_state
        for transition in self._transitions.values():
            # the read-only tags are shared
            clone._transitions[transition.uid] = Transition(
                transition.uid,
                transition.src,
                transition.dst,
                transition.input_burst,
                transition.output_burst,
                transition.tags,
            )
        clone._from_index = {state: list(uids) for state, uids in self._from_index.items()}
        clone._to_index = {state: list(uids) for state, uids in self._to_index.items()}
        clone._analysis_cache = dict(self._analysis_cache)
        return clone

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"machine {self.name}: {self.state_count} states, "
            f"{self.transition_count} transitions, "
            f"{len(self.inputs())} inputs, {len(self.outputs())} outputs"
        ]
        for transition in sorted(self._transitions.values(), key=lambda t: t.uid):
            lines.append(f"  {transition}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BurstModeMachine {self.name!r} states={self.state_count} "
            f"transitions={self.transition_count}>"
        )
