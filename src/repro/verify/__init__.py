"""Differential conformance fuzzing.

The correctness claim of the whole flow — GT1–GT5 and LT1–LT5
preserve behaviour while restructuring control — is checked here
*differentially*: every workload is executed at three levels (golden
Python reference, CDFG token simulation, extracted-AFSM system
simulation) at every transform level, under randomized inputs and
randomized bounded delays, with metamorphic per-transform oracles
running inside the scripts and failing cases shrunk to minimal
counterexamples.

Entry points:

- :func:`check_case` — run one pinned case through every level;
- :func:`fuzz_workload` — a seeded randomized campaign returning a
  machine-readable :class:`VerifyReport` (the ``repro verify`` CLI and
  the conformance stamp of ``explore_design_space`` sit on top);
- :func:`shrink_case` — minimize a failing case;
- :func:`sampled_timing_campaign` — batched-vs-scalar *timing*
  conformance: B sampled delay assignments evaluated by the max-plus
  engine and cross-checked bit-for-bit against the scalar kernel;
- :func:`make_global_oracle` / :func:`make_local_oracle` — the
  per-pass invariant checkers, installable on any
  ``optimize_global`` / ``optimize_local`` call.  The GT oracle is
  the raising form of the flow proof's ``order`` and plan-coverage
  obligations; the LT oracle also checks ack and reset edges, which
  the flow proof's stream languages do not observe;
- :mod:`repro.verify.flow` — the flow-equivalence *proof* engine:
  :func:`prove_workload` discharges symbolic per-pass obligations and
  emits replayable :class:`FlowProof` certificates (``repro verify
  --proofs``), upgrading the sampled trials above to proofs;
- :func:`report_envelope` / :func:`load_envelope` — the normalized
  ``repro-report/v1`` JSON envelope every verify-family subcommand
  emits.
"""

from repro.verify.conformance import CaseResult, VerifyCase, check_case
from repro.verify.flow import (
    FlowObligation,
    FlowProof,
    FlowReport,
    check_global_flow,
    check_local_flow,
    load_flow_report,
    make_flow_global_oracle,
    make_flow_local_oracle,
    prove_workload,
    replay_flow_report,
)
from repro.verify.fuzz import PARAM_SPACES, fuzz_workload, random_case
from repro.verify.oracles import make_global_oracle, make_local_oracle
from repro.verify.report import FailureRecord, VerifyReport, load_report
from repro.verify.schema import load_envelope, report_envelope
from repro.verify.shrink import MINIMAL_PARAMS, shrink_case
from repro.verify.timing import TimingLevelReport, TimingReport, sampled_timing_campaign

__all__ = [
    "FlowObligation",
    "FlowProof",
    "FlowReport",
    "check_global_flow",
    "check_local_flow",
    "load_flow_report",
    "make_flow_global_oracle",
    "make_flow_local_oracle",
    "prove_workload",
    "replay_flow_report",
    "load_envelope",
    "report_envelope",
    "CaseResult",
    "VerifyCase",
    "check_case",
    "PARAM_SPACES",
    "fuzz_workload",
    "random_case",
    "make_global_oracle",
    "make_local_oracle",
    "FailureRecord",
    "VerifyReport",
    "load_report",
    "MINIMAL_PARAMS",
    "shrink_case",
    "TimingLevelReport",
    "TimingReport",
    "sampled_timing_campaign",
]
