"""Span tracing: the program's one timing registry.

A *span* is a named, nested, timed section with attributes.  Spans
preserve nesting (``optimize_global`` > ``global/GT3``) and
per-instance attributes (arcs removed, machine name, workload).
:func:`section_timings` reads per-name running totals that each span
adds to as it closes, which is what ``repro synthesize --timings``
prints (:func:`format_timings`).

The registry is process-global: a worker process in ``explore
--workers`` collects its own spans independently.  Nesting is per
thread: each thread keeps its own stack of open spans, so a span's
depth, :func:`current_span` and :func:`set_attribute` only ever see the
calling thread's spans, while the retained spans of every thread share
one registry.  It keeps only the newest :data:`SPAN_HISTORY` spans,
oldest dropped first, so a long-lived process (a sweep, a shard or
serve worker, ``repro serve`` itself) stays bounded without trimming
anything.  The totals count every span closed since the last
:func:`reset_spans`, dropped ones too; they stay bounded because span
names are templates (route templates, pass names), never raw data.

>>> from repro.obs.spans import reset_spans, section_timings, span, spans
>>> reset_spans()
>>> with span("outer"):
...     with span("inner", detail=1):
...         pass
>>> [s.name for s in spans()]
['outer', 'inner']
>>> spans()[1].depth
1
>>> section_timings()["inner"].calls
1
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

__all__ = [
    "SPAN_HISTORY",
    "Span",
    "SectionStat",
    "span",
    "current_span",
    "set_attribute",
    "spans",
    "reset_spans",
    "format_spans",
    "spans_to_dicts",
    "section_timings",
    "format_timings",
]

#: spans the registry retains, oldest dropped first
SPAN_HISTORY = 1024


@dataclass
class Span:
    """One completed (or in-flight) timed section."""

    name: str
    start: float  # perf_counter timestamp at entry
    duration: float = 0.0
    depth: int = 0
    attributes: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "duration": self.duration,
            "depth": self.depth,
            "attributes": dict(self.attributes),
        }


@dataclass
class SectionStat:
    """Aggregated wall time of the spans of one name."""

    calls: int = 0
    total: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.calls if self.calls else 0.0


class _OpenSpans(threading.local):
    """The calling thread's stack of open spans."""

    def __init__(self) -> None:
        self.stack: List[Span] = []


_spans: Deque[Span] = deque(maxlen=SPAN_HISTORY)
_open = _OpenSpans()
#: name -> running total of the spans closed since the last reset
_totals: Dict[str, SectionStat] = {}
_totals_lock = threading.Lock()


def _fresh_lock_after_fork() -> None:
    # a forked worker must not inherit a lock another thread held
    global _totals_lock
    _totals_lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_after_fork)


@contextmanager
def span(name: str, **attributes: object) -> Iterator[Span]:
    """Open a span; its duration is filled in on exit."""
    stack = _open.stack
    entry = Span(
        name=name,
        start=time.perf_counter(),
        depth=len(stack),
        attributes=dict(attributes),
    )
    _spans.append(entry)  # appended at entry: pre-order (parents first)
    stack.append(entry)
    try:
        yield entry
    finally:
        stack.pop()
        entry.duration = time.perf_counter() - entry.start
        with _totals_lock:
            stat = _totals.get(name)
            if stat is None:
                stat = _totals[name] = SectionStat()
            stat.calls += 1
            stat.total += entry.duration


def current_span() -> Optional[Span]:
    """The calling thread's innermost open span, if any."""
    stack = _open.stack
    return stack[-1] if stack else None


def set_attribute(key: str, value: object) -> None:
    """Attach ``key=value`` to the calling thread's innermost open span
    (no-op outside)."""
    stack = _open.stack
    if stack:
        stack[-1].attributes[key] = value


def spans() -> List[Span]:
    """Snapshot of the retained spans, in entry (pre-)order."""
    return list(_spans)


def reset_spans() -> None:
    """Clear the registry and the totals (open spans still fill in
    their duration, and count when they close)."""
    with _totals_lock:
        _totals.clear()
    _spans.clear()


def spans_to_dicts() -> List[Dict[str, object]]:
    return [entry.to_dict() for entry in _spans]


def format_spans() -> str:
    """The retained spans as an indented tree with durations."""
    if not _spans:
        return "(no spans recorded)"
    lines = []
    for entry in _spans:
        attrs = ""
        if entry.attributes:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(entry.attributes.items())
            )
            attrs = f"  ({rendered})"
        lines.append(f"{'  ' * entry.depth}{entry.name}  {entry.duration:.4f}s{attrs}")
    return "\n".join(lines)


def section_timings() -> Dict[str, SectionStat]:
    """Every span closed since the last reset, aggregated per name
    (name -> :class:`SectionStat`), including spans the ring dropped."""
    with _totals_lock:
        return {
            name: SectionStat(stat.calls, stat.total) for name, stat in _totals.items()
        }


def format_timings() -> str:
    """:func:`section_timings` as an aligned text table, slowest first."""
    sections = section_timings()
    if not sections:
        return "(no timed sections recorded)"
    rows = sorted(sections.items(), key=lambda item: -item[1].total)
    width = max(len(name) for name, __ in rows)
    lines = [f"{'section':<{width}}  {'calls':>6}  {'total':>9}  {'mean':>9}"]
    for name, stat in rows:
        lines.append(
            f"{name:<{width}}  {stat.calls:>6}  {stat.total:>8.3f}s  {stat.mean:>8.4f}s"
        )
    return "\n".join(lines)
