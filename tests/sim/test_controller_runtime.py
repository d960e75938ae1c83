"""Controller interpreter edge cases."""

import pytest

from repro.afsm import BurstModeMachine, Cond, Edge, InputBurst, OutputBurst, Signal, SignalKind
from repro.errors import SimulationError
from repro.sim.controller import ControllerRuntime, GlobalWire
from repro.sim.datapath import Datapath
from repro.sim.kernel import EventKernel


def _runtime(machine, registers=None):
    kernel = EventKernel()
    datapath = Datapath(kernel, initial_registers=registers or {}, inputs={})
    wires = {
        signal.name: GlobalWire(signal.name, ["FU"])
        for signal in machine.signals()
        if signal.kind is SignalKind.GLOBAL_READY
    }
    runtime = ControllerRuntime(
        fu="FU", machine=machine, kernel=kernel, datapath=datapath, wires=wires
    )
    return kernel, runtime, wires


class TestFiring:
    def test_fires_on_queued_event(self):
        machine = BurstModeMachine("m")
        machine.declare_signal(Signal("w", SignalKind.GLOBAL_READY, is_input=True))
        s1 = machine.fresh_state()
        machine.add_transition("s0", s1, InputBurst((Edge("w", True),)), OutputBurst(()))
        kernel, runtime, wires = _runtime(machine)
        wires["w"].emit(0.0, rising=True)
        runtime.poke()
        kernel.run()
        assert runtime.state == s1
        assert runtime.transitions_taken == 1

    def test_direction_blocks(self):
        machine = BurstModeMachine("m")
        machine.declare_signal(Signal("w", SignalKind.GLOBAL_READY, is_input=True))
        s1 = machine.fresh_state()
        machine.add_transition("s0", s1, InputBurst((Edge("w", False),)), OutputBurst(()))
        kernel, runtime, wires = _runtime(machine)
        wires["w"].emit(0.0, rising=True)  # wrong direction
        runtime.poke()
        kernel.run()
        assert runtime.state == "s0"

    def test_conditional_sampling(self):
        machine = BurstModeMachine("m")
        machine.declare_signal(
            Signal("cond_C", SignalKind.CONDITIONAL, is_input=True, action=("cond", "C"))
        )
        taken = machine.fresh_state()
        skipped = machine.fresh_state()
        machine.add_transition("s0", taken, InputBurst((), (Cond("cond_C", True),)), OutputBurst(()))
        machine.add_transition("s0", skipped, InputBurst((), (Cond("cond_C", False),)), OutputBurst(()))
        kernel, runtime, __ = _runtime(machine, registers={"C": 1.0})
        runtime.poke()
        kernel.run()
        assert runtime.state == taken

    def test_nondeterminism_detected(self):
        machine = BurstModeMachine("m")
        machine.declare_signal(Signal("w", SignalKind.GLOBAL_READY, is_input=True))
        a = machine.fresh_state()
        b = machine.fresh_state()
        machine.add_transition("s0", a, InputBurst((Edge("w", True),)), OutputBurst(()))
        machine.add_transition("s0", b, InputBurst((Edge("w", True),)), OutputBurst(()))
        kernel, runtime, wires = _runtime(machine)
        wires["w"].emit(0.0, rising=True)
        runtime.poke()
        with pytest.raises(SimulationError):
            kernel.run()

    def test_local_request_drives_datapath(self):
        machine = BurstModeMachine("m")
        machine.declare_signal(Signal("go", SignalKind.GLOBAL_READY, is_input=True))
        machine.declare_signal(
            Signal(
                "reg_R_sel_X_req",
                SignalKind.LOCAL_REQ,
                is_input=False,
                partner="reg_R_sel_X_ack",
                action=("reg_mux", "R", ("reg", "X")),
            )
        )
        machine.declare_signal(
            Signal(
                "reg_R_sel_X_ack",
                SignalKind.LOCAL_ACK,
                is_input=True,
                partner="reg_R_sel_X_req",
            )
        )
        s1 = machine.fresh_state()
        s2 = machine.fresh_state()
        machine.add_transition(
            "s0", s1, InputBurst((Edge("go", True),)), OutputBurst((Edge("reg_R_sel_X_req", True),))
        )
        machine.add_transition(
            s1, s2, InputBurst((Edge("reg_R_sel_X_ack", True),)), OutputBurst(())
        )
        kernel, runtime, wires = _runtime(machine, registers={"X": 9.0})
        wires["go"].emit(0.0, rising=True)
        runtime.poke()
        kernel.run()
        assert runtime.state == s2
        assert runtime.datapath.reg_muxes["R"] == ("reg", "X")


class TestCompiledSteps:
    """Each state's transitions are compiled once into condition, wire
    and ack checks; these pin the compiled stepping's semantics."""

    @staticmethod
    def _ddc_machine():
        machine = BurstModeMachine("m")
        machine.declare_signal(Signal("a", SignalKind.GLOBAL_READY, is_input=True))
        machine.declare_signal(Signal("b", SignalKind.GLOBAL_READY, is_input=True))
        s1 = machine.fresh_state()
        machine.add_transition(
            "s0", s1, InputBurst((Edge("a", True), Edge("b", True, ddc=True))), OutputBurst(())
        )
        return machine, s1

    def test_ddc_edge_consumes_an_event_that_already_arrived(self):
        machine, s1 = self._ddc_machine()
        kernel, runtime, wires = _runtime(machine)
        wires["b"].emit(0.0, rising=True)
        wires["a"].emit(0.0, rising=True)
        runtime.poke()
        kernel.run()
        assert runtime.state == s1
        assert wires["a"].pending_total("FU") == 0
        assert wires["b"].pending_total("FU") == 0
        assert wires["b"].debt[("FU", True)] == 0

    def test_ddc_edge_leaves_a_debt_that_absorbs_a_late_event(self):
        machine, s1 = self._ddc_machine()
        kernel, runtime, wires = _runtime(machine)
        wires["a"].emit(0.0, rising=True)
        runtime.poke()
        kernel.run()
        # the ddc edge is not compulsory: the transition fired without it
        assert runtime.state == s1
        assert wires["b"].debt[("FU", True)] == 1
        wires["b"].emit(kernel.now, rising=True)
        assert wires["b"].pending_total("FU") == 0
        assert wires["b"].debt[("FU", True)] == 0

    def test_conditions_and_edges_are_checked_together(self):
        machine = BurstModeMachine("m")
        machine.declare_signal(Signal("w", SignalKind.GLOBAL_READY, is_input=True))
        machine.declare_signal(
            Signal("cond_C", SignalKind.CONDITIONAL, is_input=True, action=("cond", "C"))
        )
        high = machine.fresh_state()
        low = machine.fresh_state()
        machine.add_transition(
            "s0", high, InputBurst((Edge("w", True),), (Cond("cond_C", True),)), OutputBurst(())
        )
        machine.add_transition(
            "s0", low, InputBurst((Edge("w", True),), (Cond("cond_C", False),)), OutputBurst(())
        )
        kernel, runtime, wires = _runtime(machine, registers={"C": 0.0})
        runtime.poke()
        kernel.run()
        assert runtime.state == "s0"  # condition holds, edge missing
        wires["w"].emit(kernel.now, rising=True)
        runtime.poke()
        kernel.run()
        assert runtime.state == low
        assert runtime.transitions_taken == 1

    def test_fire_re_pokes_when_inputs_changed_during_the_control_delay(self):
        """The burst was satisfied when the step scheduled the firing;
        the condition flips before the firing runs, so ``_fire`` must
        re-check, consume nothing, and re-poke, after which the other
        branch fires."""
        machine = BurstModeMachine("m")
        machine.declare_signal(Signal("w", SignalKind.GLOBAL_READY, is_input=True))
        machine.declare_signal(
            Signal("cond_C", SignalKind.CONDITIONAL, is_input=True, action=("cond", "C"))
        )
        high = machine.fresh_state()
        low = machine.fresh_state()
        machine.add_transition(
            "s0", high, InputBurst((Edge("w", True),), (Cond("cond_C", True),)), OutputBurst(())
        )
        machine.add_transition(
            "s0", low, InputBurst((Edge("w", True),), (Cond("cond_C", False),)), OutputBurst(())
        )
        kernel, runtime, wires = _runtime(machine, registers={"C": 1.0})
        wires["w"].emit(0.0, rising=True)
        runtime.poke()

        def flip():
            runtime.datapath.registers["C"] = 0.0

        kernel.schedule(0.1, flip, label="flip")  # inside the 0.2 control delay
        kernel.run()
        assert runtime.state == low
        assert runtime.transitions_taken == 1
        assert wires["w"].pending_total("FU") == 0
        assert "flip" in kernel.recent_labels

    def test_each_state_is_compiled_once(self):
        machine = BurstModeMachine("m")
        machine.declare_signal(Signal("w", SignalKind.GLOBAL_READY, is_input=True))
        s1 = machine.fresh_state()
        machine.add_transition("s0", s1, InputBurst((Edge("w", True),)), OutputBurst(()))
        machine.add_transition(s1, "s0", InputBurst((Edge("w", False),)), OutputBurst(()))
        kernel, runtime, wires = _runtime(machine)
        for rising in (True, False, True):
            wires["w"].emit(kernel.now, rising=rising)
            runtime.poke()
            kernel.run()
        assert runtime.state == s1 and runtime.transitions_taken == 3
        steps = runtime._steps["s0"]
        wires["w"].emit(kernel.now, rising=False)
        runtime.poke()
        kernel.run()
        assert runtime._steps["s0"] is steps
        assert set(runtime._steps) == {"s0", s1}

    def test_output_edges_drive_wires_and_requests_in_order(self):
        machine = BurstModeMachine("m")
        machine.declare_signal(Signal("go", SignalKind.GLOBAL_READY, is_input=True))
        machine.declare_signal(Signal("done", SignalKind.GLOBAL_READY, is_input=False))
        machine.declare_signal(
            Signal(
                "latch_R_req",
                SignalKind.LOCAL_REQ,
                is_input=False,
                action=("reg_mux", "R", ("reg", "X")),
            )
        )
        s1 = machine.fresh_state()
        machine.add_transition(
            "s0", s1, InputBurst((Edge("go", True),)),
            OutputBurst((Edge("done", True), Edge("latch_R_req", True))),
        )
        kernel, runtime, wires = _runtime(machine, registers={"X": 2.0})
        wires["done"] = GlobalWire("done", ["OTHER"])  # before the state compiles
        wires["go"].emit(0.0, rising=True)
        runtime.poke()
        kernel.run()
        assert runtime.state == s1
        assert wires["done"].pending_total("OTHER") == 1
        # a request with no ack partner completes by re-poking only
        assert runtime.datapath.reg_muxes["R"] == ("reg", "X")

    def test_signals_of_the_wrong_kind_are_reported_when_reached(self):
        machine = BurstModeMachine("m")
        machine.declare_signal(Signal("w", SignalKind.GLOBAL_READY, is_input=True))
        machine.declare_signal(Signal("ack", SignalKind.LOCAL_ACK, is_input=True))
        s1 = machine.fresh_state()
        # an ack cannot be driven: the firing consumes w, then fails
        machine.add_transition(
            "s0", s1, InputBurst((Edge("w", True),)), OutputBurst((Edge("ack", True),))
        )
        kernel, runtime, wires = _runtime(machine)
        wires["w"].emit(0.0, rising=True)
        runtime.poke()
        with pytest.raises(SimulationError, match="cannot drive ack"):
            kernel.run()
        assert wires["w"].pending_total("FU") == 0
