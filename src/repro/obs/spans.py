"""Lightweight span tracing for the synthesis flow.

A *span* is a named, nested, timed section with attributes — the
structured sibling of :func:`repro.perf.timed_section`.  Every span
exit also feeds :func:`repro.perf.record_duration` under the span's
name, so the pre-existing ``--timings`` aggregation keeps working
unchanged; spans additionally preserve nesting (``optimize_global`` >
``global/GT3``) and per-instance attributes (arcs removed, machine
name, workload), which the flat registry cannot express.

The registry is process-global and single-threaded, like
:mod:`repro.perf`: a worker process in ``explore --workers`` collects
its own spans independently.

>>> from repro.obs.spans import span, spans, reset_spans
>>> reset_spans()
>>> with span("outer"):
...     with span("inner", detail=1):
...         pass
>>> [s.name for s in spans()]
['outer', 'inner']
>>> spans()[1].depth
1
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro import perf

__all__ = [
    "Span",
    "span",
    "current_span",
    "set_attribute",
    "spans",
    "reset_spans",
    "trim_spans",
    "format_spans",
    "spans_to_dicts",
]


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


_spans: List[Span] = []
_stack: List[Span] = []


@contextmanager
def span(name: str, **attributes: object) -> Iterator[Span]:
    """Open a span; on exit the duration lands here *and* in
    :mod:`repro.perf` under ``name`` (keeping ``--timings`` accurate)."""
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
        perf.record_duration(name, entry.duration)


def current_span() -> Optional[Span]:
    """The innermost open span, if any."""
    return _stack[-1] if _stack else None


def set_attribute(key: str, value: object) -> None:
    """Attach ``key=value`` to the innermost open span (no-op outside)."""
    if _stack:
        _stack[-1].attributes[key] = value


def spans() -> List[Span]:
    """Snapshot of the recorded spans, in entry (pre-)order."""
    return list(_spans)


def reset_spans() -> None:
    """Clear the registry (open spans still record on exit)."""
    _spans.clear()


def trim_spans(keep: int) -> None:
    """Drop all but the newest ``keep`` recorded spans.

    Long-lived processes (``repro serve``) call this to bound the
    registry; :mod:`repro.perf` section totals are unaffected.
    """
    excess = len(_spans) - keep
    if excess > 0:
        del _spans[:excess]


def spans_to_dicts() -> List[Dict[str, object]]:
    return [entry.to_dict() for entry in _spans]


def format_spans() -> str:
    """The recorded spans as an indented tree with durations."""
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
