"""Burst-mode machine container and rewrite helpers."""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro import perf
from repro.afsm import BurstModeMachine, Edge, InputBurst, OutputBurst, Signal, SignalKind
from repro.afsm.extract import extract_controllers
from repro.cache.fingerprint import fingerprint_machine
from repro.errors import BurstModeError
from repro.verify.flow import MachineIndex

from tests import flow_reference as reference


def _machine():
    machine = BurstModeMachine("test")
    machine.declare_signal(Signal("req", SignalKind.GLOBAL_READY, is_input=True))
    machine.declare_signal(Signal("x_req", SignalKind.LOCAL_REQ, is_input=False, partner="x_ack"))
    machine.declare_signal(Signal("x_ack", SignalKind.LOCAL_ACK, is_input=True, partner="x_req"))
    machine.declare_signal(Signal("done", SignalKind.GLOBAL_READY, is_input=False))
    return machine


class TestStructure:
    def test_states_and_transitions(self):
        machine = _machine()
        s1 = machine.fresh_state()
        machine.add_transition(
            "s0", s1, InputBurst((Edge("req", True),)), OutputBurst((Edge("x_req", True),))
        )
        assert machine.state_count == 2
        assert machine.transition_count == 1

    def test_unknown_state_rejected(self):
        machine = _machine()
        with pytest.raises(BurstModeError):
            machine.add_transition("s0", "nope", InputBurst(()), OutputBurst(()))

    def test_duplicate_state_rejected(self):
        machine = _machine()
        machine.add_state("sX")
        with pytest.raises(BurstModeError):
            machine.add_state("sX")

    def test_inconsistent_signal_redeclaration(self):
        machine = _machine()
        with pytest.raises(BurstModeError):
            machine.declare_signal(Signal("req", SignalKind.GLOBAL_READY, is_input=False))

    def test_remove_state_guards(self):
        machine = _machine()
        s1 = machine.fresh_state()
        transition = machine.add_transition("s0", s1, InputBurst((Edge("req", True),)), OutputBurst(()))
        with pytest.raises(BurstModeError):
            machine.remove_state(s1)
        machine.remove_transition(transition.uid)
        machine.remove_state(s1)
        with pytest.raises(BurstModeError):
            machine.remove_state("s0")  # initial state


class TestFolding:
    def test_empty_input_transition_folds(self):
        machine = _machine()
        s1 = machine.fresh_state()
        s2 = machine.fresh_state()
        machine.add_transition(
            "s0", s1, InputBurst((Edge("req", True),)), OutputBurst((Edge("x_req", True),))
        )
        machine.add_transition(
            s1, s2, InputBurst(()), OutputBurst((Edge("done", True),))
        )
        removed = machine.fold_trivial_states()
        assert removed == 1
        assert machine.state_count == 2
        merged = machine.transitions()[0]
        assert {e.signal for e in merged.output_burst.edges} == {"x_req", "done"}

    def test_fold_blocked_by_shared_wire(self):
        machine = _machine()
        s1 = machine.fresh_state()
        s2 = machine.fresh_state()
        machine.add_transition(
            "s0", s1, InputBurst((Edge("req", True),)), OutputBurst((Edge("x_req", True),))
        )
        machine.add_transition(
            s1, s2, InputBurst(()), OutputBurst((Edge("x_req", False),))
        )
        assert machine.fold_trivial_states() == 0  # x_req+ and x_req- must not merge

    def test_fold_carries_ddc(self):
        machine = _machine()
        s1 = machine.fresh_state()
        s2 = machine.fresh_state()
        machine.add_transition(
            "s0", s1, InputBurst((Edge("req", True),)), OutputBurst(())
        )
        machine.add_transition(
            s1, s2, InputBurst((Edge("done", True, ddc=True),)), OutputBurst(())
        )
        # hmm: "done" is an output here; use a dedicated input for ddc
        machine.declare_signal(Signal("extra", SignalKind.GLOBAL_READY, is_input=True))
        t = machine.transitions_from(s1)[0]
        machine.set_input_burst(t.uid, InputBurst((Edge("extra", True, ddc=True),)))
        machine.fold_trivial_states()
        merged = machine.transitions()[0]
        assert any(e.ddc and e.signal == "extra" for e in merged.input_burst.edges)

    def test_prune_unreachable(self):
        machine = _machine()
        s1 = machine.fresh_state()
        orphan = machine.fresh_state()
        machine.add_transition("s0", s1, InputBurst((Edge("req", True),)), OutputBurst(()))
        machine.add_transition(orphan, s1, InputBurst((Edge("req", False),)), OutputBurst(()))
        removed = machine.prune_unreachable()
        assert removed == 1
        assert orphan not in machine.states()


class TestSignalRewrites:
    def test_rename_signal(self):
        machine = _machine()
        s1 = machine.fresh_state()
        machine.add_transition(
            "s0", s1, InputBurst((Edge("req", True),)), OutputBurst((Edge("x_req", True),))
        )
        merged = Signal("shared", SignalKind.LOCAL_REQ, is_input=False)
        machine.rename_signal("x_req", merged)
        assert "x_req" not in {s.name for s in machine.signals()}
        assert machine.transitions()[0].output_burst.edges[0].signal == "shared"

    def test_drop_used_signal_rejected(self):
        machine = _machine()
        s1 = machine.fresh_state()
        machine.add_transition(
            "s0", s1, InputBurst((Edge("req", True),)), OutputBurst(())
        )
        with pytest.raises(BurstModeError):
            machine.drop_signal("req")

    def test_copy_is_independent(self):
        machine = _machine()
        s1 = machine.fresh_state()
        machine.add_transition("s0", s1, InputBurst((Edge("req", True),)), OutputBurst(()))
        clone = machine.copy()
        clone.retarget_transition(clone.transitions()[0].uid, "s0")
        assert machine.transitions()[0].dst == s1


# ----------------------------------------------------------------------
# the generation counter: no mutation may leave a stale analysis
# ----------------------------------------------------------------------
def _index_view(index):
    """Everything a flow index derives from its machine, per observable
    down to the projected NFA and its canonical subset table."""
    observables = sorted(index.observables | {("wire", "never-declared")}, key=str)
    return (
        index.initial_state,
        index.successors,
        index.targets,
        index.global_edges,
        index.actions,
        {
            observable: (
                index.projection(observable).initial,
                index.projection(observable)._tau,
                index.projection(observable)._moves,
                index.table(observable),
            )
            for observable in observables
        },
        index.signature(),
    )


@pytest.fixture(scope="module")
def extracted(gcd_optimized):
    """The largest controller extracted from optimized GCD."""
    design = extract_controllers(gcd_optimized.cdfg, gcd_optimized.plan)
    return max(
        (controller.machine for controller in design.controllers.values()),
        key=lambda machine: machine.transition_count,
    )


def _observed(machine):
    """A transition whose output burst carries an edge."""
    return next(t for t in machine.transitions() if t.output_burst.edges)


def _spare_signal():
    return Signal("spare", SignalKind.GLOBAL_READY, is_input=False)


def _setup_spare(machine):
    machine.declare_signal(_spare_signal())


def _setup_orphan(machine):
    orphan = machine.add_state("orphan")
    machine.add_transition(orphan, machine.initial_state, InputBurst(()), OutputBurst(()))


def _setup_foldable(machine):
    """Empty one input burst, so fold_trivial_states has a state to fold."""
    for transition in machine.transitions():
        state = transition.src
        if (
            state != machine.initial_state
            and len(machine.transitions_from(state)) == 1
            and machine.transitions_to(state)
            and transition.dst != state
            and not transition.output_burst.edges
        ):
            machine.set_input_burst(transition.uid, InputBurst(()))
            return
    raise AssertionError("no foldable state")


def _first(machine):
    return machine.transitions()[0]


def _rename(machine):
    name = _observed(machine).output_burst.edges[0].signal
    signal = machine.signal(name)
    machine.rename_signal(
        name,
        Signal("renamed", signal.kind, signal.is_input, signal.partner, signal.action),
    )


def _retarget(machine):
    transition = _observed(machine)
    machine.retarget_transition(transition.uid, transition.src)


MUTATORS = {
    "declare_signal": (None, lambda m: m.declare_signal(_spare_signal())),
    "drop_signal": (_setup_spare, lambda m: m.drop_signal("spare")),
    "rename_signal": (None, _rename),
    "fresh_state": (None, lambda m: m.fresh_state()),
    "add_state": (None, lambda m: m.add_state("extra")),
    "add_transition": (
        None,
        lambda m: m.add_transition(
            m.initial_state,
            m.initial_state,
            InputBurst(()),
            OutputBurst(_observed(m).output_burst.edges[:1]),
        ),
    ),
    "remove_transition": (None, lambda m: m.remove_transition(_observed(m).uid)),
    "retarget_transition": (None, _retarget),
    "remove_state": (lambda m: m.add_state("extra"), lambda m: m.remove_state("extra")),
    "set_input_burst": (
        None,
        lambda m: m.set_input_burst(_first(m).uid, InputBurst(())),
    ),
    "set_output_burst": (
        None,
        lambda m: m.set_output_burst(_observed(m).uid, OutputBurst(())),
    ),
    "tag_transition": (None, lambda m: m.tag_transition(_first(m).uid, "note", "x")),
    "fold_trivial_states": (_setup_foldable, lambda m: m.fold_trivial_states()),
    "prune_unreachable": (_setup_orphan, lambda m: m.prune_unreachable()),
    "prune_unreachable bare state": (
        lambda m: m.add_state("orphan"),
        lambda m: m.prune_unreachable(),
    ),
    "rename unused signal onto a declared one": (
        _setup_spare,
        lambda m: m.rename_signal("spare", m.signals()[0]),
    ),
}


def _merge_in_place(tags):
    tags |= {"node": "x"}


class TestGeneration:
    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_mutator_moves_generation_and_drops_the_index(self, extracted, name):
        setup, mutate = MUTATORS[name]
        machine = extracted.copy()
        if setup is not None:
            setup(machine)
        stale = MachineIndex.of(machine)
        _index_view(stale)  # memoize every projection and table
        generation = machine.generation
        mutate(machine)
        assert machine.generation > generation
        assert ("MachineIndex",) not in machine.analysis_cache()
        assert _index_view(MachineIndex.of(machine)) == _index_view(MachineIndex(machine))
        assert MachineIndex.of(machine).signature() == reference.machine_signature(machine)

    def test_index_is_memoized_per_generation(self, extracted):
        machine = extracted.copy()
        assert MachineIndex.of(machine) is MachineIndex.of(machine)
        with perf.caching_disabled():
            assert MachineIndex.of(machine) is not MachineIndex.of(machine)

    def test_reads_do_not_move_the_generation(self, extracted):
        machine = extracted.copy()
        generation = machine.generation
        MachineIndex.of(machine).signature()
        machine.transitions_from(machine.initial_state)
        machine.reachable_states()
        machine.describe()
        machine.declare_signal(machine.signals()[0])  # already declared: no change
        assert machine.fold_trivial_states() == 0
        assert machine.prune_unreachable() == 0
        assert machine.generation == generation

    def test_tags_are_read_only(self, extracted):
        machine = extracted.copy()
        transition = _first(machine)
        generation = machine.generation
        for write in (
            lambda tags: tags.__setitem__("node", "x"),
            lambda tags: tags.setdefault("fresh", "x"),
            lambda tags: tags.update(node="x"),
            lambda tags: tags.pop("node"),
            lambda tags: tags.clear(),
            _merge_in_place,
        ):
            with pytest.raises(BurstModeError, match="read-only"):
                write(transition.tags)
        with pytest.raises(BurstModeError, match="read-only"):
            transition.tags |= {"node": "x"}
        assert transition.tags == _first(extracted).tags
        assert machine.generation == generation

    def test_direct_assignment_raises(self, extracted):
        """A write that bypassed the machine would leave its index
        stale, so a transition refuses every assignment."""
        machine = extracted.copy()
        transition = _observed(machine)
        index = MachineIndex.of(machine)
        generation = machine.generation
        for name, value in (
            ("dst", transition.src),
            ("input_burst", InputBurst(())),
            ("output_burst", OutputBurst(())),
            ("tags", {}),
            ("uid", -1),
            ("src", transition.dst),
        ):
            with pytest.raises(FrozenInstanceError):
                setattr(transition, name, value)
        assert machine.generation == generation
        assert MachineIndex.of(machine) is index
        assert _index_view(index) == _index_view(MachineIndex(machine))

    def test_copy_carries_the_index_and_edits_stay_apart(self, extracted):
        machine = extracted.copy()
        index = MachineIndex.of(machine)
        clone = machine.copy()
        assert MachineIndex.of(clone) is index
        clone.set_output_burst(_observed(clone).uid, OutputBurst(()))
        assert MachineIndex.of(machine) is index
        assert MachineIndex.of(clone) is not index
        assert _index_view(MachineIndex.of(clone)) == _index_view(MachineIndex(clone))

    def test_pickle_round_trip(self, extracted):
        machine = extracted.copy()
        MachineIndex.of(machine)
        clone = pickle.loads(pickle.dumps(machine))
        assert fingerprint_machine(clone) == fingerprint_machine(machine)
        with pytest.raises(BurstModeError, match="read-only"):
            _first(clone).tags["node"] = "x"
        clone.tag_transition(_first(clone).uid, "node", "x")
        assert fingerprint_machine(clone) != fingerprint_machine(machine)


class TestStaleDrift:
    """The drift an object-identity memo once caused: project, edit
    the machine in place, project again — the second projection must
    see the edit."""

    def test_second_projection_sees_the_edit(self, extracted):
        machine = extracted.copy()
        transition = next(
            t
            for t in machine.transitions()
            if any(
                machine.signal(edge.signal).kind is SignalKind.GLOBAL_READY
                for edge in t.output_burst.edges
            )
        )
        wire = next(
            edge.signal
            for edge in transition.output_burst.edges
            if machine.signal(edge.signal).kind is SignalKind.GLOBAL_READY
        )
        observable = ("wire", wire)
        first = MachineIndex.of(machine).table(observable)
        machine.set_output_burst(
            transition.uid, transition.output_burst.without_signal(wire)
        )
        second = MachineIndex.of(machine).table(observable)
        assert second != first
        assert second == MachineIndex(machine).table(observable)
        assert MachineIndex.of(machine).signature() == reference.machine_signature(machine)
