"""State minimization by simulation equivalence (src/repro/afsm/minimize.py)."""

import pytest

from repro.afsm.extract import extract_controllers
from repro.afsm.minimize import (
    MinimizeReport,
    _equivalence_classes,
    minimize_design,
    minimize_machine,
    simulation_preorder,
)
from repro.afsm.validate import collect_problems
from repro.local_transforms import optimize_local
from repro.sim.seeding import NOMINAL
from repro.sim.system import simulate_system
from repro.sim.token_sim import simulate_tokens


@pytest.fixture(scope="module")
def diffeq_design(diffeq_optimized):
    design = extract_controllers(diffeq_optimized.cdfg, diffeq_optimized.plan)
    return optimize_local(design).design


class TestSimulationPreorder:
    def test_reflexive(self, diffeq_design):
        machine = next(iter(diffeq_design.controllers.values())).machine
        relation = simulation_preorder(machine)
        for state in machine.states():
            assert (state, state) in relation

    def test_initial_state_represents_its_class(self, diffeq_design):
        for controller in diffeq_design.controllers.values():
            representative = _equivalence_classes(controller.machine)
            initial = controller.machine.initial_state
            assert representative[initial] == initial


class TestMinimizeMachine:
    def test_reduces_diffeq_controllers(self, diffeq_design):
        reduced = 0
        for controller in diffeq_design.controllers.values():
            machine, report = minimize_machine(controller.machine)
            assert report.gate_failure == ""
            if report.applied:
                reduced += 1
                assert machine.state_count < controller.machine.state_count
                assert not collect_problems(machine)
        assert reduced > 0

    def test_never_mutates_the_input(self, diffeq_design):
        controller = next(iter(diffeq_design.controllers.values()))
        before_states = controller.machine.state_count
        before_transitions = controller.machine.transition_count
        minimize_machine(controller.machine)
        assert controller.machine.state_count == before_states
        assert controller.machine.transition_count == before_transitions

    def test_idempotent(self, diffeq_design):
        controller = next(iter(diffeq_design.controllers.values()))
        once, report = minimize_machine(controller.machine)
        twice, second = minimize_machine(once)
        assert not second.applied
        assert twice.state_count == once.state_count

    def test_gate_rejection_keeps_the_original(self, diffeq_design, monkeypatch):
        from repro.verify import flow
        from repro.verify.flow import FlowObligation

        monkeypatch.setattr(
            flow,
            "machine_flow_obligations",
            lambda before, after: (
                [FlowObligation("streams", "refuted", "injected")],
                None,
                {},
            ),
        )
        controller = next(
            c
            for c in diffeq_design.controllers.values()
            if minimize_machine(c.machine)[1].applied or True
        )
        machine, report = minimize_machine(controller.machine)
        if report.gate_failure:
            assert machine is controller.machine
            assert not report.applied
            assert "injected" in report.gate_failure

    def test_report_summary_strings(self):
        applied = MinimizeReport(
            "ALU1", applied=True, before_states=12, after_states=10, merged=["a <- b"]
        )
        assert "12 -> 10" in applied.summary()
        rejected = MinimizeReport("ALU1", gate_failure="streams: x")
        assert "rejected" in rejected.summary()
        noop = MinimizeReport("ALU1", before_states=7, after_states=7)
        assert "already minimal" in noop.summary()


class TestMinimizeDesign:
    def test_diffeq_total_reduction(self, diffeq_design):
        minimized, reports, proofs = minimize_design(diffeq_design)
        before = sum(r.before_states for r in reports)
        after = sum(r.after_states for r in reports)
        assert after < before
        assert all(p.proved for p in proofs)
        assert {p.verdict for p in proofs} <= {"proved", "no-op"}

    def test_minimized_design_still_conformant(self, diffeq, diffeq_design):
        minimized, __, __ = minimize_design(diffeq_design)
        golden = simulate_tokens(diffeq, seed=NOMINAL).registers
        result = simulate_system(minimized, seed=NOMINAL)
        assert result.registers == golden
        assert not result.violations
        assert not result.hazards

    def test_same_makespan_as_unminimized(self, diffeq_design):
        minimized, __, __ = minimize_design(diffeq_design)
        original = simulate_system(diffeq_design, seed=NOMINAL)
        reduced = simulate_system(minimized, seed=NOMINAL)
        assert reduced.end_time == original.end_time

    def test_machines_keep_no_flow_index(self, diffeq_design):
        """Both designs outlive the call, so the gate's memoized flow
        indexes must not stay on their machines."""
        minimized, reports, __ = minimize_design(diffeq_design)
        assert any(report.applied for report in reports)
        for design in (diffeq_design, minimized):
            for controller in design.controllers.values():
                assert ("MachineIndex",) not in controller.machine.analysis_cache()

    def test_controllers_rewired(self, diffeq_design):
        minimized, __, __ = minimize_design(diffeq_design)
        assert set(minimized.controllers) == set(diffeq_design.controllers)
        for fu, controller in minimized.controllers.items():
            original = diffeq_design.controllers[fu]
            assert set(controller.input_wires) == set(original.input_wires)
            assert set(controller.output_wires) == set(original.output_wires)

    @pytest.mark.parametrize("workload", ["gcd", "ewf", "fir"])
    def test_other_workloads_conformant(self, workload):
        from repro.transforms import optimize_global
        from repro.workloads import WORKLOADS

        cdfg = WORKLOADS[workload]()
        optimized = optimize_global(cdfg)
        design = optimize_local(
            extract_controllers(optimized.cdfg, optimized.plan)
        ).design
        minimized, reports, proofs = minimize_design(design)
        assert all(p.proved for p in proofs)
        result = simulate_system(minimized, seed=NOMINAL)
        assert result.registers == simulate_tokens(cdfg, seed=NOMINAL).registers
        assert not result.violations
