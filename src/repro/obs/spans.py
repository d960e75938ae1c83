"""Span tracing: the program's one timing registry.

A *span* is a named, nested, timed section with attributes.  Spans
preserve nesting (``optimize_global`` > ``global/GT3``) and
per-instance attributes (arcs removed, machine name, workload);
:func:`section_timings` aggregates them per name on demand, which is
what ``repro synthesize --timings`` prints (:func:`format_timings`).

The registry is process-global and single-threaded: a worker process
in ``explore --workers`` collects its own spans independently.  It
keeps only the newest :data:`SPAN_HISTORY` spans, oldest dropped
first, so a long-lived process (a sweep, a shard or serve worker,
``repro serve`` itself) stays bounded without trimming anything.

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
    """Aggregated wall time of the retained spans of one name."""

    calls: int = 0
    total: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.calls if self.calls else 0.0


_spans: Deque[Span] = deque(maxlen=SPAN_HISTORY)
_stack: List[Span] = []


@contextmanager
def span(name: str, **attributes: object) -> Iterator[Span]:
    """Open a span; its duration is filled in on exit."""
    entry = Span(
        name=name,
        start=time.perf_counter(),
        depth=len(_stack),
        attributes=dict(attributes),
    )
    _spans.append(entry)  # appended at entry: pre-order (parents first)
    _stack.append(entry)
    try:
        yield entry
    finally:
        _stack.pop()
        entry.duration = time.perf_counter() - entry.start


def current_span() -> Optional[Span]:
    """The innermost open span, if any."""
    return _stack[-1] if _stack else None


def set_attribute(key: str, value: object) -> None:
    """Attach ``key=value`` to the innermost open span (no-op outside)."""
    if _stack:
        _stack[-1].attributes[key] = value


def spans() -> List[Span]:
    """Snapshot of the retained spans, in entry (pre-)order."""
    return list(_spans)


def reset_spans() -> None:
    """Clear the registry (open spans still fill in their duration)."""
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
    """The retained spans aggregated per name (name -> :class:`SectionStat`)."""
    sections: Dict[str, SectionStat] = {}
    for entry in _spans:
        stat = sections.get(entry.name)
        if stat is None:
            stat = sections[entry.name] = SectionStat()
        stat.calls += 1
        stat.total += entry.duration
    return sections


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
