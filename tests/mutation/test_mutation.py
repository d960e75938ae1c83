"""Mutation-testing the verification stack itself.

Every seeded soundness bug in ``mutants.py`` must be killed by BOTH
detection tools — the symbolic flow-equivalence checker and the
differential fuzzer — on the pinned workload.  The equivalent-mutant
negative control must survive both.  The aggregate kill score is gated
at >= 95% per tool (in practice 100%: any survivor is a regression in
an oracle, not an accepted loss).  A mutant of the proofs' own caching
leaves every design correct, so each such mutant must be killed by the
golden proof reports instead (one per mutant; a score gate is added
once there is more than one).
"""

from pathlib import Path

import pytest

from repro.verify import fuzz_workload
from repro.verify.flow import prove_workload

from tests.golden.generate import GENERATORS
from tests.mutation.mutants import GOLDEN_KILLABLE, KILLABLE, MUTANTS

GOLDEN_DIR = Path(__file__).parents[1] / "golden" / "reports"

FUZZ_RUNS = 3
KILL_SCORE_FLOOR = 0.95


def flow_kills(mutant) -> bool:
    """The proof engine refutes (or errors out on) the mutated flow."""
    with mutant.arm():
        report = prove_workload(mutant.workload)
    return not report.proved


def fuzzer_kills(mutant) -> bool:
    """The differential campaign reports non-conformance."""
    with mutant.arm():
        report = fuzz_workload(
            mutant.workload, runs=FUZZ_RUNS, seed=0, shrink=False
        )
    return not report.conformant


def golden_kills(mutant) -> bool:
    """The workload's flow-proof report drifts from its golden bytes."""
    name = f"flow_proofs_{mutant.workload}"
    with mutant.arm():
        text = GENERATORS[name]()
    return text != (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


class TestEveryMutantKilled:
    @pytest.mark.parametrize("mutant", KILLABLE, ids=lambda m: m.name)
    def test_flow_checker_kills(self, mutant):
        assert flow_kills(mutant), (
            f"flow checker failed to kill {mutant.name} ({mutant.description}) "
            f"on {mutant.workload}"
        )

    @pytest.mark.parametrize("mutant", KILLABLE, ids=lambda m: m.name)
    def test_fuzzer_kills(self, mutant):
        assert fuzzer_kills(mutant), (
            f"fuzzer failed to kill {mutant.name} ({mutant.description}) "
            f"on {mutant.workload}"
        )

    @pytest.mark.parametrize("mutant", GOLDEN_KILLABLE, ids=lambda m: m.name)
    def test_golden_reports_kill(self, mutant):
        assert golden_kills(mutant), (
            f"the golden proof report of {mutant.workload} did not drift under "
            f"{mutant.name} ({mutant.description})"
        )


class TestEquivalentControlSurvives:
    @pytest.mark.parametrize(
        "mutant",
        [m for m in MUTANTS if m.expect == "equivalent"],
        ids=lambda m: m.name,
    )
    def test_control_is_not_killed(self, mutant):
        assert not flow_kills(mutant), (
            f"the equivalent control {mutant.name} was killed by the flow "
            "checker — the mutation is no longer behavior-preserving"
        )


class TestKillScore:
    def test_flow_checker_kill_score(self):
        killed = sum(1 for m in KILLABLE if flow_kills(m))
        score = killed / len(KILLABLE)
        assert score >= KILL_SCORE_FLOOR, f"flow kill score {score:.0%}"

    def test_fuzzer_kill_score(self):
        killed = sum(1 for m in KILLABLE if fuzzer_kills(m))
        score = killed / len(KILLABLE)
        assert score >= KILL_SCORE_FLOOR, f"fuzzer kill score {score:.0%}"


class TestCleanRestore:
    """Arming and disarming a mutant leaves the real passes intact."""

    def test_flow_proves_after_all_mutants(self):
        for mutant in MUTANTS:
            with mutant.arm():
                pass
        assert prove_workload("diffeq").proved
