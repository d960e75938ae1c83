"""The per-point exploration oracle.

:func:`evaluate_point` pushes one ``(gt, lt)`` configuration through
the whole synthesize → extract → optimize → simulate pipeline on its
own, sharing nothing with any other point.  The shipped engine
(:class:`repro.cache.incremental.IncrementalExplorer`) shares trie
prefixes, extractions and content-keyed evaluations across the grid;
flow obligations compose per transformation, so its points must be
bit-identical to this independent evaluation.  The golden reports
(``tests/golden/generate.py``) and the engine-equivalence tests compare
against :func:`explore_per_point`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.afsm.extract import extract_controllers
from repro.cache.space import default_gt_grid, default_lt_grid
from repro.cdfg.graph import Cdfg
from repro.errors import VerificationError
from repro.explore import DesignPoint, ExplorationResult, proof_stamp
from repro.local_transforms import optimize_local
from repro.obs.causal import EventTrace, bottleneck_label, critical_path
from repro.sim.seeding import NOMINAL
from repro.sim.system import simulate_system
from repro.sim.token_sim import simulate_tokens
from repro.timing.delays import DelayModel
from repro.transforms import optimize_global
from repro.verify.flow import (
    compose_local_oracles,
    make_flow_global_oracle,
    make_flow_local_oracle,
)
from repro.verify.oracles import make_local_oracle


def evaluate_point(
    cdfg: Cdfg,
    global_transforms: Sequence[str],
    local_transforms: Sequence[str],
    delays: Optional[DelayModel] = None,
    seed: int = 9,
    reference: Optional[Dict[str, float]] = None,
    golden: Optional[Dict[str, float]] = None,
) -> DesignPoint:
    """Synthesize and execute one configuration; optionally verify
    against a golden register file.

    ``reference`` raises on a register mismatch; ``golden`` instead
    *stamps* the returned point: the per-pass oracles run inside both
    scripts and the run must reproduce ``golden`` with zero violations
    and hazards, or the point comes back ``conformant=False`` with the
    reason recorded.
    """
    conformance = "unchecked"
    oracle = local_oracle = None
    flow_proofs: List = []
    if golden is not None:
        oracle = make_flow_global_oracle(delays=delays, collect=flow_proofs)
        local_oracle = compose_local_oracles(
            make_local_oracle(), make_flow_local_oracle(collect=flow_proofs)
        )

    def synthesize(global_oracle, lt_oracle):
        optimized = optimize_global(
            cdfg, enabled=tuple(global_transforms), delays=delays, oracle=global_oracle
        )
        design = extract_controllers(optimized.cdfg, optimized.plan)
        records = len(optimized.provenance)
        if local_transforms:
            local = optimize_local(design, enabled=tuple(local_transforms), oracle=lt_oracle)
            design = local.design
            records += len(local.provenance)
        return design, records

    try:
        design, provenance_records = synthesize(oracle, local_oracle)
    except VerificationError as exc:
        if golden is None:
            raise
        # synthesize again without the failing oracle so the point's
        # metrics are still reported, stamped non-conformant
        design, provenance_records = synthesize(None, None)
        conformance = f"failed: {exc}"
    result = simulate_system(
        design, delays=delays, seed=seed, strict=(golden is None), trace=EventTrace()
    )
    segments = critical_path(result.trace)
    if reference is not None:
        for register, value in reference.items():
            if result.registers.get(register) != value:
                raise AssertionError(
                    f"configuration {global_transforms}/{local_transforms} "
                    f"computed {register}={result.registers.get(register)!r}, "
                    f"expected {value!r}"
                )
    if golden is not None and conformance == "unchecked":
        conformance = "conformant"
        if result.violations:
            conformance = f"failed: {result.violations[0]}"
        elif result.hazards:
            conformance = f"failed: hazard {result.hazards[0]}"
        else:
            for register, value in golden.items():
                got = result.registers.get(register)
                if got != value:
                    conformance = f"failed: register {register} = {got!r}, golden says {value!r}"
                    break
    proved, proof = proof_stamp(conformance, len(flow_proofs))
    return DesignPoint(
        global_transforms=tuple(global_transforms),
        local_transforms=tuple(local_transforms),
        channels=design.plan.count(include_env=False),
        total_states=sum(c.state_count for c in design.controllers.values()),
        total_transitions=sum(c.transition_count for c in design.controllers.values()),
        makespan=result.end_time,
        conformant=conformance in ("conformant", "unchecked"),
        conformance=conformance,
        proved=proved,
        proof=proof,
        provenance_records=provenance_records,
        bottleneck=bottleneck_label(segments) if segments else "",
    )


def explore_per_point(
    cdfg: Cdfg,
    global_subsets: Optional[Sequence[Sequence[str]]] = None,
    local_subsets: Optional[Sequence[Sequence[str]]] = None,
    delays: Optional[DelayModel] = None,
    seed: int = 9,
    reference: Optional[Dict[str, float]] = None,
    verify: bool = True,
) -> ExplorationResult:
    """The grid :func:`repro.explore.explore_design_space` sweeps, one
    independent :func:`evaluate_point` per configuration, serially."""
    golden = simulate_tokens(cdfg, seed=NOMINAL).registers if verify else None
    return ExplorationResult(
        points=[
            evaluate_point(
                cdfg, gt, lt, delays=delays, seed=seed, reference=reference, golden=golden
            )
            for gt in (default_gt_grid() if global_subsets is None else global_subsets)
            for lt in (default_lt_grid() if local_subsets is None else local_subsets)
        ]
    )
