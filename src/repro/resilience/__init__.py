"""Fault injection and resilience for the synthesis flow.

Three concerns, one subsystem:

- :mod:`repro.resilience.faults` — seeded, deterministic delay-fault
  plans (scale / jitter / stuck-slow per ``(fu, operator)``);
- :mod:`repro.resilience.campaign` — fault campaigns that measure the
  timing slack behind GT3's arc removals, the skew tolerance of GT5's
  merged channels, and the behaviour of the whole design under random
  delay faults (``repro faults`` on the CLI);
- :mod:`repro.resilience.pool` / :mod:`repro.resilience.injection` —
  the one crash-tolerant process pool (rebuild with backoff, in-process
  degradation, joined shutdown), plus the deterministic failure
  injectors that exercise it in tests and CI.
"""

from repro.resilience.campaign import (
    ArcSlackEntry,
    CampaignReport,
    ChannelSkewEntry,
    FaultTrial,
    Gt3MonteCarloEntry,
    load_report,
    quick_probe,
    run_campaign,
)
from repro.resilience.faults import FaultPlan, FaultSpec, fault_targets, unit_slowdown
from repro.resilience.injection import (
    ConfigFaultInjector,
    InjectedFault,
    PointTimeout,
    parse_inject_spec,
    point_deadline,
)
from repro.resilience.pool import RetryPolicy, WorkerPool

__all__ = [
    "ArcSlackEntry",
    "CampaignReport",
    "ChannelSkewEntry",
    "ConfigFaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultTrial",
    "Gt3MonteCarloEntry",
    "InjectedFault",
    "PointTimeout",
    "RetryPolicy",
    "WorkerPool",
    "fault_targets",
    "load_report",
    "parse_inject_spec",
    "point_deadline",
    "quick_probe",
    "run_campaign",
    "unit_slowdown",
]
