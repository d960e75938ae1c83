"""Minimal deterministic event-driven simulation kernel.

Events are callbacks scheduled at absolute times; ties are broken by
insertion order, so runs are reproducible for a fixed delay model and
random seed.

For profiling, a kernel may carry an
:class:`~repro.obs.causal.EventTrace`: every ``schedule()`` then
records a causal event (keyed by the scheduling sequence number)
whose parent is the event being executed when the call was made, plus
the optional caller-supplied ``label``.  Tracing is off by default and
costs one branch per schedule when disabled.

Independently of tracing, the kernel keeps a small rolling window of
the labels of the most recently executed events
(:attr:`EventKernel.recent_labels`).  The window is what turns a bare
"exceeded max_events" abort into a diagnosable report: the runaway
loop's participants are, with overwhelming probability, the labels
repeating in the window.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.causal import EventTrace

#: how many executed-event labels the kernel remembers for diagnostics
RECENT_WINDOW = 8


class EventKernel:
    """A time-ordered event queue."""

    def __init__(self, trace: Optional[EventTrace] = None) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None], Optional[str]]] = []
        self._sequence = 0
        self.now = 0.0
        self.events_processed = 0
        self.trace = trace
        #: labels of the last few executed events (unlabeled ones skipped)
        self.recent_labels: Deque[str] = deque(maxlen=RECENT_WINDOW)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        label: Optional[str] = None,
    ) -> None:
        """Run ``callback`` at ``now + delay``.

        ``label`` tags the event in the causal trace (ignored when the
        kernel is not tracing): simulators pass the FU/operation, wire
        or datapath element the callback belongs to.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        sequence = self._sequence
        self._sequence = sequence + 1
        now = self.now
        heappush(self._queue, (now + delay, sequence, callback, label))
        if self.trace is not None:
            self.trace.on_schedule(sequence, now, delay, label)

    def pending(self) -> int:
        return len(self._queue)

    def run(self, max_events: int = 1_000_000) -> float:
        """Process events until the queue drains; return the final time.

        ``max_events`` bounds *this* call, not the kernel's lifetime:
        successive ``run()`` calls each get the full budget, while
        ``events_processed`` keeps the cumulative total for reporting.
        """
        queue = self._queue
        trace = self.trace
        remember = self.recent_labels.append
        processed = 0
        while queue:
            if processed >= max_events:
                recent = ", ".join(self.recent_labels) or "(no labeled events)"
                raise SimulationError(
                    f"simulation exceeded {max_events} events "
                    f"(livelock or runaway loop?) at t={self.now:.3f} "
                    f"with {len(queue)} events still pending; "
                    f"last executed: {recent}"
                )
            time, sequence, callback, label = heappop(queue)
            self.now = time
            processed += 1
            self.events_processed += 1
            if label is not None:
                remember(label)
            if trace is not None:
                trace.on_execute(sequence)
            callback()
        return self.now
