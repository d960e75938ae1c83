"""The GT proofs' content-keyed token-simulation memo.

A sweep's GT proofs simulate the same graphs over and over (each pass's
``before`` is its parent edge's ``after``; GT5's occupancy NOMINAL run
is its streams obligation's ``after`` run).  :class:`TokenRunMemo`
serves those repeats.  The contract pinned here: a hit is exactly what
a fresh simulation of the same inputs returns, the key is content (a
mutated graph misses), failed runs are never cached, and proofs and
sweeps read the same with and without the memo.
"""

import pytest

from repro import perf
from repro.cache.space import build_random_program
from repro.explore import explore_design_space
from repro.sim.seeding import NOMINAL
from repro.sim.token_sim import simulate_tokens
from repro.transforms import optimize_global
from repro.verify import flow
from repro.verify.flow import TokenRunMemo, make_flow_global_oracle
from repro.workloads import build_workload
from tests.per_point import explore_per_point
from tests.property.test_transform_properties import GT5_OCCUPANCY_WITNESS


def _same(run, cdfg, delays, seed, plan):
    """A memoized run equals a fresh simulation of the same inputs."""
    fresh = simulate_tokens(cdfg, delay_model=delays, seed=seed, channel_plan=plan, strict=False)
    return run.writes == tuple(fresh.writes) and run.violations == tuple(fresh.violations)


@pytest.fixture
def simulations(monkeypatch):
    """The graphs the memo actually simulated, in call order."""
    calls = []

    def counting(cdfg, *args, **kwargs):
        calls.append(cdfg)
        return simulate_tokens(cdfg, *args, **kwargs)

    monkeypatch.setattr(flow, "simulate_tokens", counting)
    return calls


@pytest.mark.parametrize("workload", ["diffeq", "fir"])
def test_every_sweep_hit_equals_a_fresh_simulation(workload, simulations, monkeypatch):
    hits = []
    original = TokenRunMemo.run

    def run(self, cdfg, delays, seed, plan=None):
        before = len(simulations)
        result = original(self, cdfg, delays, seed, plan)
        if len(simulations) == before:
            hits.append((result, cdfg, delays, seed, plan))
        return result

    monkeypatch.setattr(TokenRunMemo, "run", run)
    result = explore_design_space(build_workload(workload))
    assert all(point.proved for point in result.points)
    assert len(hits) > 10
    for hit in hits:
        assert _same(*hit)


def test_hits_skip_the_simulator_and_return_equal_immutable_runs(simulations):
    memo = TokenRunMemo()
    cdfg = build_workload("diffeq")
    first = memo.run(cdfg, None, NOMINAL)
    # an equal graph built separately shares the run: content, not identity
    second = memo.run(build_workload("diffeq"), None, NOMINAL)
    assert second is first and len(simulations) == 1
    assert _same(first, cdfg, None, NOMINAL, None)
    with pytest.raises(AttributeError):
        first.writes.append(("X", 0.0))
    streams = first.write_streams()
    streams["X"].append(0.0)
    assert first.write_streams() != streams
    # the seed is part of the key
    memo.run(cdfg, None, 0)
    assert len(simulations) == 2


def test_mutated_graph_misses(simulations):
    memo = TokenRunMemo()
    cdfg = build_workload("diffeq")
    before = memo.run(cdfg, None, NOMINAL)
    generation = cdfg.generation
    # re-inserting an arc advances the generation and moves the arc to
    # the end of the arc order, which the fingerprint encodes
    arc = cdfg.arcs()[0]
    cdfg.remove_arc(arc.src, arc.dst)
    cdfg.add_arc(arc)
    assert cdfg.generation > generation
    assert memo.run(cdfg, None, NOMINAL) is not before
    assert len(simulations) == 2
    # register values are outside the generation count but in the key
    changed = build_workload("diffeq")
    memo.run(changed, None, NOMINAL)
    assert len(simulations) == 2
    changed.initial_registers[next(iter(changed.initial_registers))] += 1.0
    assert memo.run(changed, None, NOMINAL).writes != before.writes
    assert len(simulations) == 3


def test_failed_runs_are_not_cached(monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(args[0])
        raise RuntimeError("simulator crashed")

    monkeypatch.setattr(flow, "simulate_tokens", failing)
    memo = TokenRunMemo()
    cdfg = build_workload("gcd")
    for _ in range(2):
        with pytest.raises(RuntimeError, match="simulator crashed"):
            memo.run(cdfg, None, NOMINAL)
    assert len(calls) == 2


def test_caching_disabled_bypasses_the_memo(simulations):
    memo = TokenRunMemo()
    with perf.caching_disabled():
        for _ in range(2):
            memo.run(build_workload("gcd"), None, NOMINAL)
    assert len(simulations) == 2


def _gt_proofs(cdfg):
    proofs = []
    optimize_global(cdfg, oracle=make_flow_global_oracle(collect=proofs, strict=False))
    return [proof.to_dict() for proof in proofs]


@pytest.mark.parametrize(
    "cdfg",
    [
        pytest.param(lambda: build_workload("fir"), id="fir"),
        pytest.param(lambda: build_random_program(GT5_OCCUPANCY_WITNESS), id="gt5-witness"),
    ],
)
def test_proofs_read_the_same_with_and_without_the_memo(cdfg):
    memoized = _gt_proofs(cdfg())
    with perf.caching_disabled():
        plain = _gt_proofs(cdfg())
    assert memoized == plain


def test_gt5_witness_occupancy_stays_refuted():
    """The second GT5 occupancy witness: the memoized occupancy runs
    must keep refuting the merge the unmemoized runs refuted."""
    proofs = _gt_proofs(build_random_program(GT5_OCCUPANCY_WITNESS))
    occupancy = [
        obligation
        for proof in proofs
        if proof["stage"] == "GT5"
        for obligation in proof["obligations"]
        if obligation["name"] == "occupancy"
    ]
    assert occupancy and occupancy[0]["status"] == "refuted"


def test_fir_sweep_matches_the_per_point_oracle():
    cdfg = build_workload("fir")
    subsets = [(), ("GT1",), ("GT1", "GT2", "GT3", "GT4", "GT5"), ("GT4", "GT5")]
    lts = [(), ("LT4", "LT2", "LT1", "LT5")]
    swept = explore_design_space(cdfg, global_subsets=subsets, local_subsets=lts)
    baseline = explore_per_point(cdfg, global_subsets=subsets, local_subsets=lts)
    assert swept.points == baseline.points
