"""Generators for the golden-report regression suite.

Each function regenerates one checked-in report byte-for-byte,
rendered through the canonical ``repro-report/v1`` envelope.  The
explore reports come from the independent per-point oracle
(``tests/per_point.py``); ``bench/`` and the engine tests compare the
shipped shared-prefix engine against the same files.  Wall-clock fields (the fuzzer's
``duration``) are zeroed so the bytes depend only on the flow's
semantics, never on machine speed.

Regenerate the checked-in files after an intentional behavior change
with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden
"""

from __future__ import annotations

from repro.resilience import run_campaign
from repro.verify import fuzz_workload, prove_workload
from repro.verify.schema import canonical_json, report_envelope
from repro.workloads import WORKLOADS
from tests.per_point import explore_per_point

#: pinned campaign sizes — small enough to run in CI on every push,
#: large enough to exercise shrinking, faults and the full GT/LT grid
VERIFY_RUNS = 3
FAULT_TRIALS = 4
SEED = 0


def verify_text(workload: str) -> str:
    report = fuzz_workload(workload, runs=VERIFY_RUNS, seed=SEED)
    payload = report.to_dict()
    payload["duration"] = 0.0
    return canonical_json(report_envelope("verify", [payload]))


def faults_text(workload: str) -> str:
    report = run_campaign(workload, seed=SEED, trials=FAULT_TRIALS)
    return canonical_json(report_envelope("faults", [report.to_dict()]))


def explore_text(workload: str) -> str:
    result = explore_per_point(WORKLOADS[workload]())
    return canonical_json(
        report_envelope("explore", [point.to_dict() for point in result.points])
    )


def flow_proofs_text(workload: str) -> str:
    report = prove_workload(workload, minimize=True)
    return canonical_json(report_envelope("flow-proofs", [report.to_dict()]))


GENERATORS = {
    "verify_diffeq": lambda: verify_text("diffeq"),
    "verify_fir": lambda: verify_text("fir"),
    "faults_diffeq": lambda: faults_text("diffeq"),
    "faults_fir": lambda: faults_text("fir"),
    "explore_diffeq": lambda: explore_text("diffeq"),
    "explore_fir": lambda: explore_text("fir"),
    "flow_proofs_diffeq": lambda: flow_proofs_text("diffeq"),
    "flow_proofs_fir": lambda: flow_proofs_text("fir"),
}
