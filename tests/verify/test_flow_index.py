"""The indexed stream-language engine against the naive reference.

:class:`repro.verify.flow.MachineIndex` indexes each machine once per
generation, memoizes ``closure``/``step`` per projection and the
canonical subset table per observable, and the LT chain hands pass k's
``after`` index to pass k+1 as its ``before``; the product walk runs
only where the two tables differ.  The direct construction it replaced
lives on in ``tests/flow_reference.py``.  Every LT ``(before, after)``
pair of a gcd, a fir and a diffeq sweep, of a diffeq sweep under the
``lt2_moves_one_too_far`` mutant, and of refuted pairs made by editing
an ``after`` machine must yield the same shortest distinguishing word
and the same per-observable signature (digest and length) on both
sides — both from a fresh check of the pair and from the proof the
sweep's own chain produced, with reused indexes and skipped walks.
(The LT2 mutant is killed by a deadlock at the design checkpoint; none
of its local proofs is refuted, so refuted pairs come from the edits.)
A count test pins how much work the chain saves, and a last group
checks that an index never outlives its generation: editing a machine
in place between two checks must show up in the second verdict.
"""

from typing import List, Tuple

import pytest

import repro.cache.incremental as incremental
from repro.afsm.machine import BurstModeMachine
from repro.explore import explore_design_space
from repro.local_transforms.base import LocalReport
from repro.verify import flow
from repro.verify.flow import (
    FlowProof,
    MachineIndex,
    _observable_key,
    check_local_flow,
    machine_flow_obligations,
    observable_signature,
    stream_language_counterexample,
)
from repro.workloads import build_diffeq_cdfg, build_fir_cdfg, build_gcd_cdfg

from tests import flow_reference as reference
from tests.mutation.mutants import lt2_moves_one_too_far

Pair = Tuple[str, BurstModeMachine, BurstModeMachine, FlowProof]


def _sweep_pairs(monkeypatch, build, **grid) -> List[Pair]:
    """Snapshots of every applied LT pass's (before, after) machines
    that the sweep's flow oracle checks, with the proof it produced."""
    pairs: List[Pair] = []
    factory = flow.make_flow_local_oracle

    def recording_factory(collect=None, strict=True):
        proofs = collect if collect is not None else []
        check = factory(collect=proofs, strict=strict)

        def oracle(report, before, after):
            snapshots = (before.copy(), after.copy())
            check(report, before, after)
            if report.applied:
                pairs.append((report.name, *snapshots, proofs[-1]))

        return oracle

    with monkeypatch.context() as patch:
        patch.setattr(flow, "make_flow_local_oracle", recording_factory)
        explore_design_space(build(), **grid)
    return pairs


def _assert_agrees(before: BurstModeMachine, after: BurstModeMachine) -> bool:
    """Both engines agree on the pair; returns whether it was refuted."""
    obligations, counterexample, signature = machine_flow_obligations(before, after)
    expected = reference.first_counterexample(before, after)
    if expected is None:
        assert counterexample is None
    else:
        assert counterexample is not None
        assert (counterexample["observable"], counterexample["word"]) == expected
    assert signature == reference.machine_signature(after)
    assert MachineIndex(before).signature() == reference.machine_signature(before)
    return expected is not None


def _assert_chain_proof_agrees(before, after, proof: FlowProof) -> None:
    """The proof the sweep's chain produced, with reused indexes and
    skipped walks, says what the reference says about the pair."""
    expected = reference.first_counterexample(before, after)
    if expected is None:
        assert proof.counterexample is None
        assert proof.proved
    else:
        assert (proof.counterexample["observable"], proof.counterexample["word"]) == expected
        assert not proof.proved
    assert proof.streams == reference.machine_signature(after)


WORKLOADS = {"gcd": build_gcd_cdfg, "fir": build_fir_cdfg, "diffeq": build_diffeq_cdfg}


@pytest.fixture(scope="module")
def sweep_pairs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {
            workload: _sweep_pairs(monkeypatch, build)
            for workload, build in WORKLOADS.items()
        }


class TestAgainstReference:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_sweep_pairs_agree(self, sweep_pairs, workload):
        pairs = sweep_pairs[workload]
        assert pairs, f"the {workload} sweep applied no LT pass"
        for name, before, after, _ in pairs:
            assert not _assert_agrees(before, after), f"{name} refuted"

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_chain_proofs_agree(self, sweep_pairs, workload):
        for _, before, after, proof in sweep_pairs[workload]:
            _assert_chain_proof_agrees(before, after, proof)

    def test_every_lt_is_covered(self, sweep_pairs):
        names = {name for pairs in sweep_pairs.values() for name, *_ in pairs}
        assert names == {"LT1", "LT2", "LT3", "LT4", "LT5"}

    def test_mutant_pairs_agree(self, monkeypatch):
        with lt2_moves_one_too_far():
            pairs = _sweep_pairs(
                monkeypatch, build_diffeq_cdfg, global_subsets=[()]
            )
        assert any(name == "LT2" for name, *_ in pairs)
        for _, before, after, proof in pairs:
            _assert_agrees(before, after)
            _assert_chain_proof_agrees(before, after, proof)

    def test_refuted_pairs_agree(self, sweep_pairs):
        """Edited copies of each gcd ``after`` machine: one drops an
        observable transition, one retargets it onto its source."""
        refuted = 0
        for _, before, after, _ in sweep_pairs["gcd"]:
            for edit in ("remove", "retarget"):
                edited = after.copy()
                transition = _observed_transition(edited)
                if edit == "remove":
                    edited.remove_transition(transition.uid)
                else:
                    edited.retarget_transition(transition.uid, transition.src)
                refuted += _assert_agrees(before, edited)
        assert refuted >= len(sweep_pairs["gcd"])

    def test_per_observable_functions(self, sweep_pairs):
        _, before, after, _ = sweep_pairs["gcd"][0]
        old, new = MachineIndex(before), MachineIndex(after)
        observables = sorted(old.observables | new.observables, key=_observable_key)
        for observable in observables:
            assert stream_language_counterexample(
                old, new, observable
            ) == reference.stream_language_counterexample(before, after, observable)
            assert observable_signature(
                new, observable
            ) == reference.observable_signature(after, observable)


def _observed_transition(machine: BurstModeMachine):
    """A transition whose bursts carry a GLOBAL_READY edge."""
    index = MachineIndex(machine)
    wires = {name for name, _ in index.global_edges[0] | index.global_edges[1]}
    for transition in sorted(machine.transitions(), key=lambda t: t.uid):
        edges = [*transition.input_burst.edges, *transition.output_burst.edges]
        if any(edge.signal in wires for edge in edges):
            return transition
    raise AssertionError(f"{machine.name} has no observable transition")


def _differing_tables(before, after) -> int:
    """Observables whose canonical tables differ between fresh indexes."""
    old, new = MachineIndex(before), MachineIndex(after)
    return sum(
        old.table(observable) != new.table(observable)
        for observable in old.observables | new.observables
    )


class TestChainSavings:
    def test_walks_follow_differing_tables_and_builds_follow_passes(
        self, monkeypatch
    ):
        """On a cold diffeq sweep the product walk runs exactly once per
        (pass, observable) pair whose tables differ, and each chain
        builds at most one index for its first ``before`` plus one per
        applied pass."""
        counts = {"builds": 0, "walks": 0, "machines": 0}
        real_init = MachineIndex.__init__
        real_walk = flow.stream_language_counterexample
        real_optimize = incremental.optimize_machine

        def counting_init(self, machine):
            counts["builds"] += 1
            real_init(self, machine)

        def counting_walk(before, after, observable):
            counts["walks"] += 1
            return real_walk(before, after, observable)

        def counting_optimize(fu, machine, transforms, oracle=None):
            counts["machines"] += oracle is not None
            return real_optimize(fu, machine, transforms, oracle=oracle)

        monkeypatch.setattr(MachineIndex, "__init__", counting_init)
        monkeypatch.setattr(flow, "stream_language_counterexample", counting_walk)
        monkeypatch.setattr(incremental, "optimize_machine", counting_optimize)
        pairs = _sweep_pairs(monkeypatch, build_diffeq_cdfg)
        sweep = dict(counts)
        assert all(proof.proved for *_, proof in pairs)
        assert sweep["walks"] == sum(
            _differing_tables(before, after) for _, before, after, _ in pairs
        )
        assert 0 < sweep["walks"] < len(pairs)
        assert sweep["builds"] <= sweep["machines"] + len(pairs)


class TestFreshIndex:
    """Machines are edited in place after they are proved: each check
    must index the machines as they are now, never a stale snapshot."""

    def _pair(self, sweep_pairs):
        name, before, after, _ = sweep_pairs["gcd"][0]
        return LocalReport(name=name, machine=after.name, applied=True), before, after

    def test_removed_observable_transition_is_refuted(self, sweep_pairs):
        report, before, after = self._pair(sweep_pairs)
        after = after.copy()
        first = check_local_flow(report, before, after)
        assert first.proved
        after.remove_transition(_observed_transition(after).uid)
        second = check_local_flow(report, before, after)
        assert not second.proved
        assert second.streams != first.streams

    def test_retargeted_observable_transition_changes_signature(self, sweep_pairs):
        report, before, after = self._pair(sweep_pairs)
        after = after.copy()
        first = check_local_flow(report, before, after)
        transition = _observed_transition(after)
        after.retarget_transition(transition.uid, transition.src)
        second = check_local_flow(report, before, after)
        assert second.streams != first.streams
        assert second.streams == reference.machine_signature(after)
        assert (second.verdict, second.counterexample) != (
            first.verdict,
            first.counterexample,
        )
