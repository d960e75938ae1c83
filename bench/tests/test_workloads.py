"""Workload inputs: seeded, of one size, and free of failing points."""

from repro.cache.shards import explore_space
from repro.cache.space import ParameterSpace, Scenario, bench_space, random_program

from bench.workloads import RANDOM_POOL, RANDOM_SHAPE, SpaceSharded, SweepCold


def test_pool_programs_have_the_fixed_shape():
    assert len(set(RANDOM_POOL)) == len(RANDOM_POOL)
    for seed in RANDOM_POOL:
        pre, body, iterations = random_program(seed)
        assert (len(pre), len(body), iterations) == RANDOM_SHAPE


def test_every_pool_program_proves_at_every_space_delay_scale():
    base = bench_space(random_scenarios=0)
    space = ParameterSpace(
        scenarios=[Scenario.from_dict({"random": seed}) for seed in RANDOM_POOL],
        delay_variants=base.delay_variants,
    )
    result = explore_space(space, shards=2)
    assert len(result.points) == len(space)
    assert [p.label for p in result.points if p.status != "ok" or not p.proved] == []


def test_the_seed_alone_picks_the_inputs(tmp_path):
    def labels(seed, name):
        workload = SweepCold(tmp_path / name, seed)
        return [[step.args[0] for step in workload.steps(index)] for index in range(3)]

    assert labels(5, "a") == labels(5, "b")
    assert labels(5, "a") != labels(6, "c")
    space = SpaceSharded(tmp_path / "space", 5)
    space.base = bench_space(random_scenarios=0)
    (step,) = space.steps(0)
    assert len(step.args[1]) == 1024
