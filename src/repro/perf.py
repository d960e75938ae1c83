"""The analysis-cache switch.

The analysis caches introduced for scaling (memoized
:class:`~repro.transforms.unfold.UnfoldedReach` construction and
reachability closures, :class:`~repro.timing.delays.DelayModel`
interval memoization, anchored longest-path tables in
:mod:`repro.timing.analysis`, the flow proofs' token-run memo) all
consult :func:`caching_enabled`.  :func:`caching_disabled` turns them
off for a scope — used by the property tests that prove cached and
uncached runs produce identical designs, and handy when bisecting a
suspected stale-cache bug.

Timings live in the span registry, :mod:`repro.obs.spans`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

# the benchmark harness still imports the registry's reset under this name
from repro.obs.spans import reset_spans as reset_timings

__all__ = ["caching_enabled", "caching_disabled", "reset_timings"]

_caching = True


def caching_enabled() -> bool:
    """True when the analysis caches are active (the default)."""
    return _caching


@contextmanager
def caching_disabled() -> Iterator[None]:
    """Scope with every analysis cache bypassed (recompute everything)."""
    global _caching
    previous, _caching = _caching, False
    try:
        yield
    finally:
        _caching = previous
