"""Post-extraction state minimization by simulation equivalence.

The local transforms shrink machines by emptying and folding bursts;
what they cannot remove are *behaviorally duplicate* states — distinct
states whose outgoing behavior is identical because the extraction
walked the same CDFG fragment from two control contexts.  Following
the alternating-simulation minimization line of work (Gleizer et al.,
PAPERS.md), this pass quotients a :class:`BurstModeMachine` by mutual
similarity:

1. compute the greatest simulation preorder over states, where state
   ``b`` simulates ``a`` when every transition of ``a`` (matched by
   its full input burst — compulsory and ddc edges plus sampled
   conditions — and output burst) has a transition of ``b`` with the
   same label whose destination again simulates;
2. merge each class of mutually similar states onto one
   representative (burst-mode machines are deterministic per input
   burst, so mutual similarity coincides with bisimilarity and the
   quotient preserves the stream language);
3. retarget incoming transitions, drop the duplicate states'
   outgoing transitions, and prune.

The pass is **gated** by the flow-equivalence checker
(:func:`repro.verify.flow.machine_flow_obligations`): the quotient is
kept only when every observable stream language of the minimized
machine provably equals the original's and the machine still validates
(:func:`repro.afsm.validate.check_machine`).  A gate failure returns
the machine unchanged — minimization is an optimization, never a
correctness risk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.afsm.extract import Controller, DistributedDesign
from repro.afsm.machine import BurstModeMachine, Transition
from repro.afsm.signals import SignalKind
from repro.afsm.validate import collect_problems

#: transition label: (input edges + conditions, output edges)
_Label = Tuple[FrozenSet, FrozenSet]


@dataclass
class MinimizeReport:
    """What minimization did to one machine."""

    machine: str
    applied: bool = False
    before_states: int = 0
    after_states: int = 0
    before_transitions: int = 0
    after_transitions: int = 0
    #: merged state classes, rendered as "kept <- dropped, dropped"
    merged: List[str] = field(default_factory=list)
    #: why the quotient was rejected ("" when kept)
    gate_failure: str = ""

    def summary(self) -> str:
        if not self.applied and self.gate_failure:
            return f"{self.machine}: rejected ({self.gate_failure})"
        if not self.applied:
            return f"{self.machine}: already minimal ({self.before_states} states)"
        return (
            f"{self.machine}: {self.before_states} -> {self.after_states} states "
            f"({len(self.merged)} classes merged)"
        )


def _transition_label(transition: Transition) -> _Label:
    burst = transition.input_burst
    inputs = frozenset(
        {("edge", edge.signal, edge.rising, edge.ddc) for edge in burst.edges}
        | {("cond", cond.signal, cond.high) for cond in burst.conditions}
    )
    outputs = frozenset(
        (edge.signal, edge.rising) for edge in transition.output_burst.edges
    )
    return inputs, outputs


def simulation_preorder(machine: BurstModeMachine) -> Set[Tuple[str, str]]:
    """The greatest simulation relation: ``(a, b)`` when ``b`` can
    match every labeled step of ``a``, forever (greatest fixpoint by
    iterated refinement)."""
    states = machine.states()
    labeled: Dict[str, List[Tuple[_Label, str]]] = {
        state: [
            (_transition_label(t), t.dst) for t in machine.transitions_from(state)
        ]
        for state in states
    }
    relation: Set[Tuple[str, str]] = {(a, b) for a in states for b in states}
    changed = True
    while changed:
        changed = False
        for a, b in sorted(relation):
            ok = True
            for label, a_dst in labeled[a]:
                if not any(
                    b_label == label and (a_dst, b_dst) in relation
                    for b_label, b_dst in labeled[b]
                ):
                    ok = False
                    break
            if not ok:
                relation.discard((a, b))
                changed = True
    return relation


def _equivalence_classes(machine: BurstModeMachine) -> Dict[str, str]:
    """State -> representative under mutual similarity.  The initial
    state always represents its own class; other classes elect their
    lexicographically smallest member for determinism."""
    relation = simulation_preorder(machine)
    representative: Dict[str, str] = {}
    for state in sorted(machine.states()):
        if state in representative:
            continue
        cls = sorted(
            other
            for other in machine.states()
            if (state, other) in relation and (other, state) in relation
        )
        rep = machine.initial_state if machine.initial_state in cls else cls[0]
        for member in cls:
            representative.setdefault(member, rep)
    return representative


def _flow_gate(before: BurstModeMachine, after: BurstModeMachine):
    """:func:`~repro.verify.flow.machine_flow_obligations` of ``before``
    against ``after``, leaving neither machine holding the flow index it
    memoizes: callers keep both (a design's controllers, the quotient)."""
    from repro.verify.flow import machine_flow_obligations

    try:
        return machine_flow_obligations(before, after)
    finally:
        for machine in (before, after):
            machine.analysis_cache().pop(("MachineIndex",), None)


def minimize_machine(
    machine: BurstModeMachine,
) -> Tuple[BurstModeMachine, MinimizeReport]:
    """Quotient ``machine`` by simulation equivalence, gated by the
    flow checker.  Returns ``(minimized-or-original, report)``; the
    input machine is never mutated."""
    report = MinimizeReport(
        machine=machine.name,
        before_states=machine.state_count,
        before_transitions=machine.transition_count,
        after_states=machine.state_count,
        after_transitions=machine.transition_count,
    )
    representative = _equivalence_classes(machine)
    dropped = sorted(s for s, rep in representative.items() if s != rep)
    if not dropped:
        return machine, report

    work = machine.copy()
    for transition in list(work.transitions()):
        rep = representative[transition.dst]
        if rep != transition.dst:
            work.retarget_transition(transition.uid, rep)
    for state in dropped:
        for transition in list(work.transitions_from(state)):
            work.remove_transition(transition.uid)
        for transition in list(work.transitions_to(state)):  # self-loops already gone
            work.remove_transition(transition.uid)
        work.remove_state(state)
    # merging can leave byte-identical parallel transitions; keep one
    seen: Set[Tuple[str, str, _Label]] = set()
    for transition in sorted(work.transitions(), key=lambda t: t.uid):
        key = (transition.src, transition.dst, _transition_label(transition))
        if key in seen:
            work.remove_transition(transition.uid)
        else:
            seen.add(key)
    work.prune_unreachable()

    # the gate: the quotient must be observationally flow-equivalent
    # and still a valid burst-mode machine
    obligations = _flow_gate(machine, work)[0]
    refuted = [o for o in obligations if not o.proved]
    if refuted:
        report.gate_failure = f"{refuted[0].name}: {refuted[0].detail}"
        return machine, report
    problems = collect_problems(work)
    if problems:
        report.gate_failure = f"validation: {problems[0]}"
        return machine, report

    by_rep: Dict[str, List[str]] = {}
    for state, rep in representative.items():
        if state != rep:
            by_rep.setdefault(rep, []).append(state)
    report.merged = [
        f"{rep} <- {', '.join(sorted(members))}" for rep, members in sorted(by_rep.items())
    ]
    report.applied = True
    report.after_states = work.state_count
    report.after_transitions = work.transition_count
    return work, report


def minimize_design(
    design: DistributedDesign,
) -> Tuple[DistributedDesign, List[MinimizeReport], List]:
    """Minimize every controller of a design.

    Returns ``(new design, reports, flow proofs)`` — one ``minimize``
    stage :class:`~repro.verify.flow.FlowProof` per machine, refuted
    (and the original machine kept) when the gate rejects a quotient.
    """
    from repro.verify.flow import FlowObligation, FlowProof, MachineIndex

    minimized = DistributedDesign(
        cdfg=design.cdfg, plan=design.plan, phases=design.phases
    )
    reports: List[MinimizeReport] = []
    proofs: List[FlowProof] = []
    for index, (fu, controller) in enumerate(design.controllers.items()):
        machine, report = minimize_machine(controller.machine)
        reports.append(report)
        if report.applied:
            obligations, counterexample, signature = _flow_gate(
                controller.machine, machine
            )
            proofs.append(
                FlowProof(
                    "minimize",
                    fu,
                    index,
                    "proved",
                    obligations,
                    signature,
                    counterexample,
                )
            )
        elif report.gate_failure:
            proofs.append(
                FlowProof(
                    "minimize",
                    fu,
                    index,
                    "refuted",
                    [FlowObligation("gate", "refuted", report.gate_failure)],
                    MachineIndex(controller.machine).signature(),
                )
            )
        else:
            proofs.append(FlowProof("minimize", fu, index, "no-op"))
        minimized.controllers[fu] = Controller(
            fu=fu,
            machine=machine,
            input_wires=[
                s.name for s in machine.inputs() if s.kind is SignalKind.GLOBAL_READY
            ],
            output_wires=[
                s.name for s in machine.outputs() if s.kind is SignalKind.GLOBAL_READY
            ],
        )
    return minimized, reports, proofs
