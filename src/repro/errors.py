"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the phase that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class RtlSyntaxError(ReproError):
    """An RTL statement could not be parsed."""

    def __init__(self, text: str, reason: str):
        self.text = text
        self.reason = reason
        super().__init__(f"cannot parse RTL statement {text!r}: {reason}")


class CdfgError(ReproError):
    """Structural problem in a CDFG (bad arc, unknown node, ...)."""


class BlockStructureError(CdfgError):
    """The CDFG violates the block-structure restriction of Section 2.1."""


class ValidationError(CdfgError):
    """A CDFG failed a well-formedness check."""


class TransformError(ReproError):
    """A transformation could not be applied."""

    def __init__(self, transform: str, reason: str):
        self.transform = transform
        self.reason = reason
        super().__init__(f"{transform}: {reason}")


class TimingError(ReproError):
    """Timing analysis failed or a timing assumption is violated."""


class ExtractionError(ReproError):
    """Burst-mode controller extraction failed."""


class BurstModeError(ReproError):
    """A burst-mode machine is malformed or violates BM properties."""


class LogicError(ReproError):
    """Two-level logic synthesis or minimization failed."""


class HazardError(LogicError):
    """A cover violates a hazard-freedom requirement."""


class SimulationError(ReproError):
    """The event-driven simulation detected a protocol violation."""


class VerificationError(ReproError):
    """Differential conformance checking found a divergence.

    Raised by :mod:`repro.verify` when an execution level disagrees
    with the golden reference, or when a metamorphic transform oracle
    detects a violated per-pass invariant.
    """


class FlowRefutedError(VerificationError):
    """A flow-equivalence proof obligation failed.

    Raised by the :mod:`repro.verify.flow` oracles when a GT/LT pass
    cannot be certified; the message carries a ``flow[<pass>]:``
    prefix and the first refuted obligation.
    """


class DeadlockError(SimulationError):
    """The simulation quiesced with unfired operations.

    Beyond the human-readable message, the exception carries the
    watchdog's structured diagnosis so resilience tooling (fault
    campaigns, exploration sweeps) can report *which* channels and
    nodes were blocked instead of re-parsing the message:

    ``time``
        simulation time at quiescence;
    ``waiting``
        one dict per blocked node — ``{"node", "missing", "held"}``,
        the arcs whose tokens never arrived vs the ones already held;
    ``blocked_channels``
        arc keys (and channel names, when a plan was active) the
        missing tokens would have travelled on;
    ``recent_events``
        labels of the last executed causal-trace events before the
        stall (empty when the run was not traced).
    """

    def __init__(
        self,
        message: str,
        time: float = 0.0,
        waiting: tuple = (),
        blocked_channels: tuple = (),
        recent_events: tuple = (),
    ):
        self.time = time
        self.waiting = list(waiting)
        self.blocked_channels = list(blocked_channels)
        self.recent_events = list(recent_events)
        super().__init__(message)

    def to_dict(self) -> dict:
        """JSON-serializable form (used by fault-campaign reports)."""
        return {
            "time": self.time,
            "waiting": list(self.waiting),
            "blocked_channels": list(self.blocked_channels),
            "recent_events": list(self.recent_events),
            "message": str(self),
        }


class SpaceError(ReproError):
    """A design-space specification is malformed.

    Raised by :mod:`repro.cache.space` while parsing a ``--space`` file
    or materializing a scenario (unknown workload, bad delay variant,
    unparseable kernel reference, empty axis).
    """


class FrontendError(ReproError):
    """A Python kernel steps outside the compilable subset.

    Raised by :mod:`repro.frontend` while parsing or lowering; carries
    the offending source line when one is known.
    """

    def __init__(self, reason: str, lineno: int = None):
        self.reason = reason
        self.lineno = lineno
        where = f" (line {lineno})" if lineno is not None else ""
        super().__init__(f"{reason}{where}")


class KernelBoundError(FrontendError):
    """A compiled kernel exceeded its execution bound.

    The frontend subset only admits *bounded* while loops; the IR
    interpreter enforces the bound at execution time and raises this
    when a kernel runs away (e.g. a loop whose condition register is
    never updated).
    """


class JobError(ReproError):
    """A served job could not be executed.

    Raised by :mod:`repro.serve.jobs` for malformed submissions
    (unknown kind/workload, bad parameters).  Maps to the ``fatal``
    exit class — resubmitting the same request can never succeed, so
    the server must not burn its retry budget on it.
    """


class StoreVersionError(ReproError):
    """A durable store was written in a format this version does not know.

    Raised by :class:`repro.serve.store.JobStore` when the store's
    ``meta.version`` differs from the format it writes.  The store is
    not corrupt, so it is left exactly as it is (never quarantined):
    open it with the version of the program that wrote it.
    """


# ----------------------------------------------------------------------
# Exit-code taxonomy
# ----------------------------------------------------------------------
# Every sweep-shaped command (``repro explore``, ``repro faults``, the
# job server's per-job verdicts) maps its outcome through one shared
# table so scripts and CI can branch on a single convention:
#
#   0   ok           completed, nothing wrong
#   1   issues       completed, but found problems (non-conformant
#                    points, unhealthy campaign, divergent bench)
#   2   fatal        could not evaluate at all (usage error, every
#                    point failed, missing optional dependency)
#   130 interrupted  stopped by the user (SIGINT convention)

EXIT_OK = 0
EXIT_ISSUES = 1
EXIT_FATAL = 2
EXIT_INTERRUPTED = 130

#: exit-class label -> process exit code (the serve layer stamps each
#: terminal job with the label; CLIs return the code)
EXIT_CODES = {
    "ok": EXIT_OK,
    "issues": EXIT_ISSUES,
    "fatal": EXIT_FATAL,
    "interrupted": EXIT_INTERRUPTED,
}


def exit_class(
    *,
    interrupted: bool = False,
    total: int = 0,
    failed: int = 0,
    issues: int = 0,
) -> str:
    """Classify a sweep outcome into the shared exit taxonomy.

    ``total``/``failed`` count evaluated vs crashed units (points,
    trials, jobs); ``issues`` counts units that evaluated but reported
    problems.  Interruption dominates; a sweep whose every unit failed
    is ``fatal`` (there is nothing to report on); reported problems are
    ``issues``; otherwise ``ok`` — *partial* failures alone stay ``ok``,
    matching the historical ``repro explore`` contract where quarantined
    points are reported but do not fail the sweep.
    """
    if interrupted:
        return "interrupted"
    if total and failed == total:
        return "fatal"
    if issues:
        return "issues"
    return "ok"


def sweep_exit_code(
    *,
    interrupted: bool = False,
    total: int = 0,
    failed: int = 0,
    issues: int = 0,
) -> int:
    """:func:`exit_class` folded through :data:`EXIT_CODES`."""
    return EXIT_CODES[
        exit_class(interrupted=interrupted, total=total, failed=failed, issues=issues)
    ]


class ChannelSafetyError(SimulationError):
    """Two transitions were outstanding on a single-wire channel.

    This is exactly the failure mode GT1 step D ("limit parallelism")
    exists to prevent: transition-signalling channels carry a single
    unacknowledged event, so queueing a second request on the same wire
    before the first is consumed loses an event.
    """
