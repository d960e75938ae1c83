"""Job model for the synthesis service: kinds, keys, execution.

A *job* is one unit of pipeline work a client can submit over HTTP —
``synthesize``, ``verify``, ``explore`` or ``faults`` — described
entirely by a JSON parameter object.  Three properties make the
serving layer's crash-safety story work:

- **Canonical parameters.**  :func:`canonical_params` validates a
  submission against the kind's schema (unknown kinds, workloads or
  parameter names are :class:`~repro.errors.JobError`, the ``fatal``
  exit class — retrying can never help) and fills every default, so
  two requests that mean the same thing become byte-identical
  parameter objects.
- **Content-addressed keys.**  :func:`job_key` fingerprints the kind,
  the canonical parameters *and the workload's CDFG* (via
  :func:`repro.cache.fingerprint.fingerprint_cdfg`), so a million
  identical submissions share one key — the store deduplicates them
  against a single execution — while any change to the workload
  definition changes the key and can never be served a stale result.
- **Deterministic execution.**  :func:`execute_job` is a pure function
  of the canonical parameters (seeded campaigns, nominal simulations),
  so a retry after a worker crash, or a re-execution after a
  quarantined store row, reproduces the original result byte for byte.

The ``_chaos`` parameter is the fault-injection side channel used by
the chaos harness (:mod:`repro.serve.chaos`): it is **excluded from
the job key** (a chaos-wrapped job is semantically the same job) and
interpreted at execution time — sleep, die once, raise once —
mirroring :class:`repro.resilience.injection.ConfigFaultInjector`'s
only-kill-real-workers discipline.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.cache.fingerprint import fingerprint_cdfg, stable_digest
from repro.errors import JobError, ReproError

# ----------------------------------------------------------------------
# Lifecycle states
# ----------------------------------------------------------------------
SUBMITTED = "SUBMITTED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
TIMED_OUT = "TIMED_OUT"

#: every state a job can be in, in lifecycle order
STATES = (SUBMITTED, RUNNING, DONE, FAILED, TIMED_OUT)
#: states a job never leaves (except store-corruption healing)
TERMINAL_STATES = (DONE, FAILED, TIMED_OUT)

#: kind -> {param: default} (None = required)
JOB_SCHEMAS: Dict[str, Dict[str, object]] = {
    "synthesize": {"workload": None, "level": "gt+lt"},
    "verify": {"workload": None, "runs": 5, "seed": 0},
    "explore": {"workload": None, "gts": (), "lts": ()},
    "faults": {
        "workload": None,
        "seed": 0,
        "trials": 4,
        "scale_max": 16.0,
        "magnitude": 1.0,
    },
}
JOB_KINDS = tuple(sorted(JOB_SCHEMAS))

_LEVELS = ("unoptimized", "gt", "gt+lt", "gt+lt+min")


@dataclass
class Job:
    """One submission's durable record (mirrors a ``jobs`` table row)."""

    job_id: str
    key: str
    kind: str
    params: Dict[str, object]
    client: str = ""
    state: str = SUBMITTED
    attempts: int = 0
    result: Optional[dict] = None
    error: str = ""
    exit_class: str = ""
    dedup: bool = False
    created_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: run diagnostics not part of identity
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, include_result: bool = True) -> dict:
        document = {
            "job_id": self.job_id,
            "key": self.key,
            "kind": self.kind,
            "params": self.params,
            "client": self.client,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "exit_class": self.exit_class,
            "dedup": self.dedup,
        }
        if include_result:
            document["result"] = self.result
        return document


# ----------------------------------------------------------------------
# Canonicalization + keys
# ----------------------------------------------------------------------
def canonical_params(kind: str, params: Optional[dict]) -> Dict[str, object]:
    """Validate ``params`` against ``kind``'s schema, defaults filled.

    Raises :class:`JobError` (the ``fatal`` taxonomy) for unknown
    kinds, unknown parameter names, missing required parameters, or a
    workload that is not registered.
    """
    if kind not in JOB_SCHEMAS:
        raise JobError(f"unknown job kind {kind!r} (known: {', '.join(JOB_KINDS)})")
    schema = JOB_SCHEMAS[kind]
    params = dict(params or {})
    chaos = params.pop("_chaos", None)
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise JobError(
            f"{kind}: unknown parameter(s) {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(schema))})"
        )
    canon: Dict[str, object] = {}
    for name, default in sorted(schema.items()):
        if name in params:
            value = params[name]
        elif default is None:
            raise JobError(f"{kind}: missing required parameter {name!r}")
        else:
            value = default
        canon[name] = _canonical_value(kind, name, value, default)
    from repro.workloads import WORKLOADS

    workload = canon["workload"]
    if workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        raise JobError(f"{kind}: unknown workload {workload!r} (known: {known})")
    if kind == "synthesize" and canon["level"] not in _LEVELS:
        raise JobError(
            f"synthesize: unknown level {canon['level']!r} (known: {', '.join(_LEVELS)})"
        )
    if chaos is not None:
        if not isinstance(chaos, dict):
            raise JobError("_chaos must be an object")
        canon["_chaos"] = chaos
    return canon


def _canonical_value(kind: str, name: str, value: object, default: object) -> object:
    """Coerce one parameter to its schema type (JSON is stringly loose)."""
    try:
        if name == "workload":
            return str(value).strip().lower()
        if name == "level":
            return str(value)
        if name in ("runs", "seed", "trials"):
            return int(value)
        if name in ("scale_max", "magnitude"):
            return float(value)
        if name in ("gts", "lts"):
            return tuple(
                tuple(str(part).upper() for part in subset) for subset in (value or ())
            )
    except (TypeError, ValueError) as exc:
        raise JobError(f"{kind}: bad value for {name!r}: {exc}")
    return value


def job_key(kind: str, canon: Dict[str, object]) -> str:
    """Content-addressed dedup key: kind + params + workload CDFG.

    ``canon`` must come from :func:`canonical_params`; the ``_chaos``
    side channel is excluded (an injected fault does not change what
    the job computes).  Building the workload CDFG for its fingerprint
    costs a few milliseconds per submission and buys the property that
    a key can never alias across workload definitions.
    """
    from repro.workloads import WORKLOADS

    identity = tuple(
        (name, value) for name, value in sorted(canon.items()) if name != "_chaos"
    )
    cdfg_fp = fingerprint_cdfg(WORKLOADS[canon["workload"]]())
    return "job:" + stable_digest(("job", kind, cdfg_fp, identity))


# ----------------------------------------------------------------------
# Execution (runs inside pool workers — must stay top-level picklable)
# ----------------------------------------------------------------------
def execute_job(kind: str, params: Dict[str, object]) -> dict:
    """Run one job to completion; returns its JSON-serializable result.

    Deterministic: every randomized stage is seeded from the canonical
    parameters, so retries and post-crash re-executions reproduce the
    original result exactly.
    """
    _apply_chaos(params.get("_chaos"))
    if kind == "synthesize":
        return _run_synthesize(params)
    if kind == "verify":
        return _run_verify(params)
    if kind == "explore":
        return _run_explore(params)
    if kind == "faults":
        return _run_faults(params)
    raise JobError(f"unknown job kind {kind!r}")


class WorkerKilled(ReproError):
    """A chaos plan killed this worker (transient: the job retries)."""


def _apply_chaos(chaos: Optional[dict]) -> None:
    """Interpret the ``_chaos`` side channel inside the worker.

    ``sleep`` delays execution (holding a worker slot, for drain and
    timeout drills).  ``kill_once``/``raise_once`` name a marker file:
    the first execution to observe the marker missing creates it and
    dies — ``kill_once`` via ``os._exit`` when running in a real pool
    worker (breaking the pool, exactly what a chaos drill wants),
    degrading to an exception anywhere else so an in-process executor
    never takes the server down with it.
    """
    if not chaos:
        return
    if chaos.get("sleep"):
        time.sleep(float(chaos["sleep"]))
    for mode in ("kill_once", "raise_once"):
        marker_path = chaos.get(mode)
        if marker_path is None:
            continue
        marker = Path(marker_path)
        if marker.exists():
            continue  # already died once; this is the retry
        try:
            marker.touch()
        except OSError:
            pass
        if mode == "kill_once":
            import multiprocessing

            if multiprocessing.parent_process() is not None:
                os._exit(43)
        raise WorkerKilled(f"chaos {mode} at {marker_path}")


def _run_synthesize(params: Dict[str, object]) -> dict:
    from repro.afsm.extract import extract_controllers
    from repro.channels.model import derive_channels
    from repro.local_transforms import optimize_local
    from repro.sim.seeding import NOMINAL
    from repro.sim.system import simulate_system
    from repro.transforms import optimize_global
    from repro.workloads import WORKLOADS

    level = params["level"]
    cdfg = WORKLOADS[params["workload"]]()
    if level == "unoptimized":
        design = extract_controllers(cdfg, derive_channels(cdfg))
    else:
        optimized = optimize_global(cdfg)
        design = extract_controllers(optimized.cdfg, optimized.plan)
        if level in ("gt+lt", "gt+lt+min"):
            design = optimize_local(design).design
        if level == "gt+lt+min":
            from repro.afsm.minimize import minimize_design

            design, __, __ = minimize_design(design)
    result = simulate_system(design, seed=NOMINAL)
    return {
        "kind": "synthesize",
        "workload": params["workload"],
        "level": level,
        "channels": design.plan.count(include_env=False),
        "states": sum(c.state_count for c in design.controllers.values()),
        "transitions": sum(c.transition_count for c in design.controllers.values()),
        "makespan": result.end_time,
        "registers": dict(sorted(result.registers.items())),
        "events": result.events_processed,
    }


def _run_verify(params: Dict[str, object]) -> dict:
    from repro.verify import fuzz_workload

    report = fuzz_workload(
        params["workload"], runs=params["runs"], seed=params["seed"], shrink=True
    )
    document = report.to_dict()
    # wall-clock duration is the one nondeterministic field; served
    # results must be byte-stable across retries and recoveries
    document["duration"] = 0.0
    return {"kind": "verify", "report": document}


def _run_explore(params: Dict[str, object]) -> dict:
    from repro.explore import explore_design_space
    from repro.workloads import WORKLOADS

    cdfg = WORKLOADS[params["workload"]]()
    gts = [list(subset) for subset in params["gts"]] or None
    lts = [list(subset) for subset in params["lts"]] or None
    result = explore_design_space(cdfg, global_subsets=gts, local_subsets=lts)
    return {
        "kind": "explore",
        "workload": params["workload"],
        "points": [point.to_dict() for point in result.points],
        "pareto": [point.to_dict() for point in result.pareto_points()],
    }


def _run_faults(params: Dict[str, object]) -> dict:
    from repro.resilience import run_campaign

    report = run_campaign(
        params["workload"],
        seed=params["seed"],
        trials=params["trials"],
        scale_max=params["scale_max"],
        magnitude_max=params["magnitude"],
    )
    return {"kind": "faults", "report": report.to_dict()}


# ----------------------------------------------------------------------
# Failure classification (shared exit taxonomy)
# ----------------------------------------------------------------------
def classify_failure(exc: BaseException) -> Tuple[str, str, bool]:
    """Map an execution failure to ``(state, exit_class, retryable)``.

    Worker deaths (broken pools, chaos kills) are *transient* — the
    job goes back to ``SUBMITTED`` under the retry budget.  Timeouts
    and library errors are deterministic, so retrying burns budget for
    nothing: they go terminal immediately, stamped with the shared
    exit taxonomy of :mod:`repro.errors` (``fatal`` for unexecutable
    submissions, ``issues`` for jobs that ran and found problems).
    """
    from concurrent.futures.process import BrokenProcessPool

    from repro.resilience.injection import PointTimeout

    if isinstance(exc, (BrokenProcessPool, WorkerKilled)):
        return FAILED, "issues", True
    if isinstance(exc, PointTimeout):
        return TIMED_OUT, "issues", False
    if isinstance(exc, JobError):
        return FAILED, "fatal", False
    if isinstance(exc, ReproError):
        return FAILED, "issues", False
    return FAILED, "issues", False


def canonical_json(document: object) -> str:
    """The one serialization used for params, results and comparisons."""
    return json.dumps(document, sort_keys=True)
