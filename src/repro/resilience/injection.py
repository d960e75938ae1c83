"""Deterministic failure injection for exploration sweeps.

The fault-tolerant exploration path is only trustworthy if its failure
handling is exercised, so the injector is a first-class (picklable)
object that CI and tests pass into ``explore_design_space`` — or the
``repro explore --inject-fail`` flag — to make chosen grid points
fail on demand:

- ``mode="raise"`` — the point raises inside the worker; the per-point
  guard converts it into a ``status="failed"`` design point.
- ``mode="exit"`` — the worker process dies (``os._exit``), breaking
  the process pool; the shard runner must recover via retry or
  in-process degradation.  With ``once_marker`` set, the crash happens only the
  first time (a sentinel file records it), modelling a transient
  worker death; without it the crash repeats, and only processes that
  actually are pool workers die — the serial fallback in the parent
  degrades to an ordinary raise, so a persistent crasher ends up
  ``failed`` instead of killing the sweep.

This module also provides the per-point wall-clock deadline used by
``explore_design_space(point_timeout=...)`` and the shard runner:
SIGALRM-based where available (worker processes and the serial sweep
run evaluations on their main thread), a no-op elsewhere.
"""

from __future__ import annotations

import os
import signal
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.errors import ReproError


class InjectedFault(ReproError):
    """Raised by a :class:`ConfigFaultInjector` in ``raise`` mode."""


class PointTimeout(ReproError):
    """One exploration point exceeded its wall-clock deadline."""


def _normalize(config: Tuple[str, ...]) -> Tuple[str, ...]:
    return tuple(sorted(name.upper() for name in config))


@dataclass(frozen=True)
class ConfigFaultInjector:
    """Fail specific ``(gt, lt)`` grid points, deterministically.

    ``targets`` holds normalized GT subsets (sorted, upper-case); a
    point matches when its GT subset equals a target — any LT subset.
    Frozen + plain data, so it pickles into pool workers unchanged.
    """

    targets: Tuple[Tuple[str, ...], ...]
    mode: str = "raise"  # "raise" | "exit"
    once_marker: Optional[str] = None

    @classmethod
    def for_configs(cls, configs, mode: str = "raise", once_marker: Optional[str] = None):
        return cls(
            targets=tuple(sorted({_normalize(tuple(config)) for config in configs})),
            mode=mode,
            once_marker=once_marker,
        )

    def matches(self, global_transforms: Tuple[str, ...]) -> bool:
        return _normalize(tuple(global_transforms)) in self.targets

    def __call__(self, global_transforms, local_transforms) -> None:
        if not self.matches(tuple(global_transforms)):
            return
        label = "+".join(global_transforms) or "(no GT)"
        if self.mode == "exit":
            # only ever kill real pool workers — in the parent process
            # (serial path or degraded fallback) dying would defeat the
            # resilience being tested, so degrade to an ordinary raise
            import multiprocessing

            in_worker = multiprocessing.parent_process() is not None
            if self.once_marker is not None:
                marker = Path(self.once_marker)
                if marker.exists():
                    raise InjectedFault(f"injected fault at {label} (post-crash retry)")
                if in_worker:
                    try:
                        marker.touch()
                    except OSError:
                        pass
                    os._exit(17)
                raise InjectedFault(f"injected fault at {label} (serial, nothing to kill)")
            if in_worker:
                os._exit(17)
            raise InjectedFault(f"injected fault at {label} (crasher, serial fallback)")
        raise InjectedFault(f"injected fault at {label}")


def parse_inject_spec(spec: str, mode: str = "raise") -> ConfigFaultInjector:
    """Build an injector from a CLI spec like ``GT1+GT2,GT1+GT3``.

    Each comma-separated item is one GT subset (``+``-joined); the
    empty item (``-``) targets the no-GT point.
    """
    configs = []
    for item in spec.split(","):
        item = item.strip()
        names = () if item in ("", "-") else tuple(part for part in item.split("+") if part)
        configs.append(names)
    return ConfigFaultInjector.for_configs(configs, mode=mode)


#: One-time flag: a sweep evaluating hundreds of points off the main
#: thread should warn once, not once per point.
_watchdog_warned = False


def _reset_watchdog_warning() -> None:
    """Re-arm the one-time skip warning (test hook)."""
    global _watchdog_warned
    _watchdog_warned = False


def watchdog_unavailable_reason() -> Optional[str]:
    """Why :func:`point_deadline` would be skipped *here*, else ``None``.

    Checks the calling thread, so call it from wherever the deadline
    would actually be armed.
    """
    if not hasattr(signal, "SIGALRM"):
        return "signal.SIGALRM is unavailable on this platform"
    if threading.current_thread() is not threading.main_thread():
        return "the current thread is not the main thread"
    return None


def watchdog_active() -> bool:
    """Whether point deadlines armed on the calling thread will actually
    be enforced."""
    return watchdog_unavailable_reason() is None


@contextmanager
def point_deadline(seconds: Optional[float]):
    """Raise :class:`PointTimeout` if the block runs longer than ``seconds``.

    Uses ``SIGALRM``/``setitimer``, which is only available on the main
    thread of a Unix process — exactly where pool workers and the
    serial exploration path evaluate points.  Anywhere else (Windows,
    background threads) the deadline is skipped rather than
    half-enforced, with a one-time :class:`RuntimeWarning` naming the
    reason so a silently-unbounded sweep is at least a visible one.
    """
    if not seconds:
        yield
        return
    reason = watchdog_unavailable_reason()
    if reason is not None:
        global _watchdog_warned
        if not _watchdog_warned:
            _watchdog_warned = True
            warnings.warn(
                f"point deadline of {seconds:g}s is not enforced: {reason}",
                RuntimeWarning,
                stacklevel=3,
            )
        yield
        return

    def _expired(signum, frame):
        raise PointTimeout(f"design-point evaluation exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
