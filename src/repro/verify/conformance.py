"""Differential conformance checking of one synthesis case.

A :class:`VerifyCase` pins everything that determines one end-to-end
synthesis run: the workload and its input parameters, a delay-model
perturbation, the enabled GT/LT subsets, and the delay-sampling seed.
:func:`check_case` executes the case at every level of the flow —

- the golden Python reference (``repro.workloads``),
- a CDFG token simulation of the untransformed graph,
- a token simulation after *each* global transform of the script
  (with GT5's channel plan installed, so merged-wire occupancy is
  checked dynamically),
- an AFSM system simulation of the freshly extracted controllers,
- a system simulation after each prefix of the local script —

asserting at every level that the register file equals the golden
reference and that no channel-safety violation or datapath hazard was
recorded.  The metamorphic per-transform oracles of
:mod:`repro.verify.oracles` run inside the scripts, so a pass that
breaks its own invariant fails even when the final registers happen to
be right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.afsm.extract import extract_controllers
from repro.channels.model import ChannelPlan
from repro.local_transforms import optimize_local
from repro.local_transforms.scripts import STANDARD_LOCAL_SEQUENCE
from repro.sim.system import simulate_system
from repro.sim.token_sim import simulate_tokens
from repro.timing.delays import DelayModel
from repro.transforms import optimize_global
from repro.transforms.scripts import STANDARD_SEQUENCE
from repro.verify.oracles import make_global_oracle, make_local_oracle
from repro.workloads import build_workload, golden_reference

#: delay override as stored in a case: (fu, operator-or-None, (lo, hi))
DelayOverride = Tuple[str, Optional[str], Tuple[float, float]]


@dataclass
class VerifyCase:
    """One fully-pinned conformance case (JSON-serializable)."""

    workload: str
    params: Dict[str, object] = field(default_factory=dict)
    gts: Tuple[str, ...] = tuple(STANDARD_SEQUENCE)
    lts: Tuple[str, ...] = tuple(STANDARD_LOCAL_SEQUENCE)
    delay_overrides: Tuple[DelayOverride, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # canonical transform order makes prefixes meaningful and keeps
        # shrinking stable
        self.gts = tuple(n for n in STANDARD_SEQUENCE if n in self.gts)
        self.lts = tuple(n for n in STANDARD_LOCAL_SEQUENCE if n in self.lts)

    def delay_model(self) -> DelayModel:
        model = DelayModel()
        for fu, operator, interval in self.delay_overrides:
            model = model.with_override(fu, operator, tuple(interval))
        return model

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "params": dict(self.params),
            "gts": list(self.gts),
            "lts": list(self.lts),
            "delay_overrides": [
                [fu, operator, list(interval)]
                for fu, operator, interval in self.delay_overrides
            ],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "VerifyCase":
        return cls(
            workload=payload["workload"],
            params=dict(payload.get("params", {})),
            gts=tuple(payload.get("gts", STANDARD_SEQUENCE)),
            lts=tuple(payload.get("lts", STANDARD_LOCAL_SEQUENCE)),
            delay_overrides=tuple(
                (fu, operator, tuple(interval))
                for fu, operator, interval in payload.get("delay_overrides", [])
            ),
            seed=int(payload.get("seed", 0)),
        )


@dataclass
class CaseResult:
    """Outcome of checking one case at every level."""

    case: VerifyCase
    ok: bool
    levels: List[str] = field(default_factory=list)
    failure_level: Optional[str] = None
    message: Optional[str] = None


class _LevelFailure(Exception):
    """Internal: carries the level name with the failure message."""

    def __init__(self, level: str, message: str):
        self.level = level
        self.message = message
        super().__init__(f"[{level}] {message}")


def _compare(level: str, registers: Dict[str, float], golden: Dict[str, float]) -> None:
    for name, value in golden.items():
        got = registers.get(name)
        if got != value:
            raise _LevelFailure(
                level, f"register {name}: got {got!r}, golden reference says {value!r}"
            )


def check_case(case: VerifyCase) -> CaseResult:
    """Run one case through every execution level; never raises."""
    levels: List[str] = []
    level = "golden"
    try:
        golden = golden_reference(case.workload, **case.params)
        cdfg = build_workload(case.workload, **case.params)
        delays = case.delay_model()

        def token_level(name: str, graph, plan: Optional[ChannelPlan]) -> None:
            result = simulate_tokens(
                graph, delay_model=delays, seed=case.seed, channel_plan=plan, strict=False
            )
            if result.violations:
                raise _LevelFailure(name, f"channel safety: {result.violations[0]}")
            _compare(name, result.registers, golden)
            levels.append(name)

        def system_level(name: str, design) -> None:
            result = simulate_system(design, delays=delays, seed=case.seed, strict=False)
            if result.violations:
                raise _LevelFailure(name, f"channel safety: {result.violations[0]}")
            if result.hazards:
                raise _LevelFailure(name, f"datapath hazard: {result.hazards[0]}")
            _compare(name, result.registers, golden)
            levels.append(name)

        level = "token:base"
        token_level("token:base", cdfg, None)

        if case.gts:
            metamorphic = make_global_oracle()

            def global_oracle(report, before, after):
                nonlocal level
                level = f"token:{report.name}"
                metamorphic(report, before, after)
                token_level(level, after, report.artifacts.get("channel_plan"))

            level = f"token:{case.gts[0]}"
            optimized = optimize_global(
                cdfg, enabled=case.gts, delays=delays, oracle=global_oracle
            )
            final_cdfg, plan = optimized.cdfg, optimized.plan
        else:
            final_cdfg, plan = cdfg, None

        level = "system:extracted"
        if plan is None:
            from repro.channels import derive_channels

            plan = derive_channels(final_cdfg)
        design = extract_controllers(final_cdfg, plan)
        system_level("system:extracted", design)

        if case.lts:
            local_oracle = make_local_oracle()

            def checked_local(enabled: Tuple[str, ...]):
                nonlocal level
                level = f"system:{'+'.join(enabled)}"
                return optimize_local(design, enabled=enabled, oracle=local_oracle).design

            for cut in range(1, len(case.lts) + 1):
                prefix = case.lts[:cut]
                system_level(f"system:{'+'.join(prefix)}", checked_local(prefix))
    except _LevelFailure as failure:
        return CaseResult(
            case, ok=False, levels=levels, failure_level=failure.level, message=failure.message
        )
    except Exception as exc:  # noqa: BLE001 — a fuzz harness must not crash
        return CaseResult(
            case,
            ok=False,
            levels=levels,
            failure_level=level,
            message=f"{type(exc).__name__}: {exc}",
        )
    return CaseResult(case, ok=True, levels=levels)
