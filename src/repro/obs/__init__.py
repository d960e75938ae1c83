"""Observability layer: transform provenance, span tracing, and
simulation critical-path profiling.

Three facilities, threaded through the whole flow:

- :mod:`repro.obs.provenance` — typed records of what each GT/LT pass
  changed (and why), exportable as JSONL;
- :mod:`repro.obs.spans` — nested timed sections with attributes:
  the program's one timing registry, which keeps the newest
  :data:`~repro.obs.spans.SPAN_HISTORY` spans and a per-name running
  total of every span, the ``--timings`` table;
- :mod:`repro.obs.causal` — a causal event log recorded by the
  simulation kernel, from which the makespan-critical path and
  per-operation slack are extracted.

Surfaced by ``repro profile`` and ``repro trace`` on the CLI.
"""

from repro.obs.causal import (
    CausalEvent,
    EventTrace,
    Segment,
    bottleneck_label,
    critical_path,
    path_delay_sum,
    slack_by_label,
)
from repro.obs.provenance import (
    ProvenanceRecord,
    from_jsonl,
    read_jsonl,
    to_jsonl,
    write_jsonl,
)
from repro.obs.spans import (
    Span,
    current_span,
    format_spans,
    reset_spans,
    set_attribute,
    span,
    spans,
    spans_to_dicts,
)

__all__ = [
    "CausalEvent",
    "EventTrace",
    "Segment",
    "bottleneck_label",
    "critical_path",
    "path_delay_sum",
    "slack_by_label",
    "ProvenanceRecord",
    "from_jsonl",
    "read_jsonl",
    "to_jsonl",
    "write_jsonl",
    "Span",
    "current_span",
    "format_spans",
    "reset_spans",
    "set_attribute",
    "span",
    "spans",
    "spans_to_dicts",
]
