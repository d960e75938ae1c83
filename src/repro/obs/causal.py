"""Causal event log and critical-path analysis for the simulators.

Both simulators run on :class:`~repro.sim.kernel.EventKernel`.  When a
kernel carries an :class:`EventTrace`, every ``schedule()`` call is
recorded as a causal event whose *parent* is the event during whose
callback it was scheduled — i.e. the event that *enabled* it
(in the token simulator the completion that delivered the last missing
token; in the AFSM simulator the burst that triggered the datapath
element or controller step).  Each event also keeps the exact ``delay``
it was scheduled with, so the chain of parents reconstructs simulated
time precisely:

    ``time(event) == time(parent) + delay(event)``

as the *same* floating-point computation the kernel performed.  Walking
parents back from the event that established the makespan therefore
yields a **critical path** whose segment delays — summed in path order —
reproduce the makespan *exactly* (zero-delay bookkeeping events add
``0.0`` and change nothing).  In ``NOMINAL`` delay mode this is the
deterministic decomposition the paper's cycle-time attribution needs:
every unit of makespan is charged to a named FU computation, controller
burst, mux/latch settle or channel hop.

:func:`slack_by_label` complements the path with per-operation slack:
how much later an event (and, conservatively, everything it triggered)
could have finished without extending the makespan.  Labels on the
critical path have slack ``0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "CausalEvent",
    "EventTrace",
    "Segment",
    "critical_path",
    "path_delay_sum",
    "slack_by_label",
    "bottleneck_label",
]


@dataclass
class CausalEvent:
    """One scheduled kernel callback (a view built on demand)."""

    uid: int  # the kernel's scheduling sequence number
    at: float  # simulation time of the scheduling call
    delay: float  # requested delay
    time: float  # at + delay: when the callback runs
    parent: Optional[int]  # uid of the event whose callback scheduled this one
    label: Optional[str]  # caller-supplied tag ("M1:U := U - M1", "dp:latch:Y", ...)
    order: int = -1  # execution order; -1 until the callback actually ran


class EventTrace:
    """Recorder attached to an :class:`~repro.sim.kernel.EventKernel`.

    A traced run schedules hundreds of thousands of events and the
    queries below read a few hundred of them, so the recorder keeps
    parallel arrays indexed by uid (parent, start, delay, label) plus
    the uids in execution order, and builds a :class:`CausalEvent` only
    for an event a query returns.  Uids are the kernel's scheduling
    sequence numbers: ``0, 1, 2, ...`` in scheduling order.
    """

    def __init__(self) -> None:
        self.current: Optional[int] = None  # uid of the executing event
        self._parent: List[Optional[int]] = []
        self._at: List[float] = []
        self._delay: List[float] = []
        self._label: List[Optional[str]] = []
        #: uids in execution order (each uid executes at most once)
        self._executed: List[int] = []
        #: uid -> execution order, extended lazily from ``_executed``
        self._order: Dict[int, int] = {}
        #: events built so far, so repeated queries return the same objects
        self._views: Dict[int, CausalEvent] = {}

    # called by the kernel -------------------------------------------------
    def on_schedule(self, uid: int, at: float, delay: float, label: Optional[str]) -> None:
        # uid is the kernel's sequence number, i.e. the arrays' length
        self._parent.append(self.current)
        self._at.append(at)
        self._delay.append(delay)
        self._label.append(label)

    def on_execute(self, uid: int) -> None:
        self._executed.append(uid)
        self.current = uid

    # views ----------------------------------------------------------------
    def _event(self, uid: int) -> CausalEvent:
        order = self._order
        for position in range(len(order), len(self._executed)):
            order[self._executed[position]] = position
        event = self._views.get(uid)
        if event is None:
            at = self._at[uid]
            delay = self._delay[uid]
            event = self._views[uid] = CausalEvent(
                uid=uid,
                at=at,
                delay=delay,
                time=at + delay,
                parent=self._parent[uid],
                label=self._label[uid],
            )
        event.order = order.get(uid, -1)
        return event

    @property
    def events(self) -> Dict[int, CausalEvent]:
        """Every scheduled event by uid (builds every view: debugging only)."""
        return {uid: self._event(uid) for uid in range(len(self._parent))}

    def _path(self, uid: Optional[int]) -> List[int]:
        """Uids of the parent chain root -> ``uid`` (default: the last
        executed event)."""
        if uid is None:
            if not self._executed:
                return []
            uid = self._executed[-1]
        parents = self._parent
        path: List[int] = []
        cursor: Optional[int] = uid
        while cursor is not None:
            path.append(cursor)
            cursor = parents[cursor]
        path.reverse()
        return path

    # queries --------------------------------------------------------------
    def executed(self) -> List[CausalEvent]:
        """Events whose callback actually ran, in execution order."""
        return [self._event(uid) for uid in self._executed]

    def last_event(self) -> Optional[CausalEvent]:
        """The final executed event — the one that set the kernel's end time."""
        if not self._executed:
            return None
        return self._event(self._executed[-1])

    def chain(self, uid: Optional[int] = None) -> List[CausalEvent]:
        """Parent chain root -> ``uid`` (default: the last executed event)."""
        return [self._event(cursor) for cursor in self._path(uid)]

    def to_dicts(self) -> List[Dict[str, object]]:
        return [
            {
                "uid": uid,
                "time": self._at[uid] + self._delay[uid],
                "delay": self._delay[uid],
                "parent": self._parent[uid],
                "label": self._label[uid],
                "order": order,
            }
            for order, uid in enumerate(self._executed)
        ]


@dataclass(frozen=True)
class Segment:
    """One link of the critical path."""

    label: str
    start: float  # time the segment was enabled (parent completion)
    end: float  # completion time
    delay: float  # end - start, as scheduled (exact)


def critical_path(
    trace: EventTrace,
    end_uid: Optional[int] = None,
    include_zero: bool = False,
) -> List[Segment]:
    """The enabling chain behind the run's final event, as segments.

    ``end_uid`` selects a different terminal event (e.g. the recorded
    END completion of a token simulation whose kernel processed
    stragglers afterwards).  Zero-delay bookkeeping events (pokes,
    immediate re-enables) are dropped unless ``include_zero`` — their
    contribution to the sum is exactly ``0.0``, so
    :func:`path_delay_sum` over the filtered path still reproduces the
    terminal event's time.
    """
    at, delays, labels = trace._at, trace._delay, trace._label
    segments = []
    for uid in trace._path(end_uid):
        delay = delays[uid]
        if include_zero or delay > 0.0:
            start = at[uid]
            segments.append(
                Segment(
                    label=labels[uid] or "(unlabeled)",
                    start=start,
                    end=start + delay,
                    delay=delay,
                )
            )
    return segments


def path_delay_sum(segments: List[Segment]) -> float:
    """Fold-left sum of segment delays, in path order.

    Performs the same left-to-right additions the kernel performed when
    accumulating absolute time, so for a complete path the result
    equals the terminal event's time bit-for-bit.
    """
    total = 0.0
    for segment in segments:
        total += segment.delay
    return total


def slack_by_label(trace: EventTrace, end_time: Optional[float] = None) -> Dict[str, float]:
    """Per-label slack: how much later the label's events could complete
    without pushing any completion past ``end_time``.

    Conservative (tree-shaped) analysis over the enabling chain: the
    slack of an event is ``end_time`` minus the latest completion among
    the event and everything it (transitively) enabled; a label's slack
    is the minimum over its events.  Critical-path labels get ``0.0``.
    """
    executed = trace._executed
    if not executed:
        return {}
    at, delays, parents, labels = trace._at, trace._delay, trace._parent, trace._label
    if end_time is None:
        end_time = max(at[uid] + delays[uid] for uid in executed)
    # children scheduled after parents => parent uid < child uid, so a
    # single descending sweep sees every child before its parent
    latest: Dict[int, float] = {}
    for uid in sorted(executed, reverse=True):
        down = latest.get(uid)
        if down is None:
            down = latest[uid] = at[uid] + delays[uid]
        parent = parents[uid]
        if parent is not None:
            parent_down = latest.get(parent)
            if parent_down is None or down > parent_down:
                latest[parent] = down
    slack: Dict[str, float] = {}
    for uid in executed:
        label = labels[uid]
        if label is None:
            continue
        value = end_time - latest[uid]
        if value < 0.0:
            value = 0.0  # stragglers past a token-sim END are not "negative slack"
        current = slack.get(label)
        if current is None or value < current:
            slack[label] = value
    return slack


def bottleneck_label(segments: List[Segment]) -> str:
    """The label group contributing the most delay to the path.

    Labels are grouped by their leading components ("``ctrl:M1:...``"
    -> ``ctrl:M1``, "``dp:fu:M1:...``" -> ``dp:fu:M1``), which names
    the FU / datapath element / channel rather than one specific burst.
    """
    totals: Dict[str, float] = {}
    for segment in segments:
        parts = segment.label.split(":")
        width = 3 if parts[0] == "dp" else 2
        group = ":".join(parts[:width])
        totals[group] = totals.get(group, 0.0) + segment.delay
    if not totals:
        return ""
    return max(sorted(totals), key=lambda label: totals[label])
