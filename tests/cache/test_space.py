"""Parameter-space axes, specs, and content-addressed keys."""

import json

import pytest

from repro.cache.fingerprint import fingerprint_cdfg, fingerprint_delays, fingerprint_registers
from repro.cache.space import (
    KEY_GENERATION,
    DelayVariant,
    ParameterSpace,
    Scenario,
    bench_space,
    default_gt_grid,
    default_lt_grid,
    random_cdfg,
    random_program,
)
from repro.cache.store import make_key
from repro.errors import SpaceError
from repro.sim.seeding import NOMINAL
from repro.sim.token_sim import simulate_tokens


def small_space(**overrides):
    doc = {
        "scenarios": [{"workload": "diffeq"}],
        "delays": [{"name": "nominal"}, {"name": "x1.5", "scale": 1.5}],
        "seeds": [9],
        "gt": [[], ["GT1"]],
        "lt": [[]],
    }
    doc.update(overrides)
    return ParameterSpace.from_dict(doc)


# ----------------------------------------------------------------------
# random scenarios
# ----------------------------------------------------------------------
def test_random_program_is_deterministic():
    assert random_program(7) == random_program(7)
    assert random_program(7) != random_program(8)


def test_random_cdfg_builds_and_simulates():
    cdfg = random_cdfg(3)
    result = simulate_tokens(cdfg, seed=NOMINAL)
    assert "I" in result.registers


def test_random_scenarios_share_the_strategy_builder():
    # tests/strategies.py builds through the same function, so a
    # failing scenario replays as a fuzz case
    from tests.strategies import build_program

    program = random_program(5)
    a = build_program(program)
    b = random_cdfg(5)
    from repro.cache.fingerprint import fingerprint_cdfg

    # graphs are structurally identical (names differ: random vs random-5)
    assert len(list(a.nodes())) == len(list(b.nodes()))


# ----------------------------------------------------------------------
# delay variants
# ----------------------------------------------------------------------
def test_nominal_variant_builds_none():
    assert DelayVariant().build() is None


def test_scaled_variant_scales_every_interval():
    base_model = DelayVariant(name="x2", scale=2.0).build()
    from repro.timing.delays import DelayModel

    default = DelayModel()
    assert base_model.copy_delay == tuple(2 * x for x in default.copy_delay)
    for op, interval in default.operator_delays.items():
        assert base_model.operator_delays[op] == (interval[0] * 2, interval[1] * 2)


def test_override_variant_pins_pairs():
    variant = DelayVariant.from_dict(
        {"overrides": [["MUL1", "*", [9.0, 13.0]]]}
    )
    model = variant.build()
    assert model.overrides[("MUL1", "*")] == (9.0, 13.0)
    assert variant.name == "MUL1.*"


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
def test_space_roundtrips_through_dict():
    space = small_space()
    again = ParameterSpace.from_dict(space.to_dict())
    assert again.to_dict() == space.to_dict()


def test_space_from_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(small_space().to_dict()), encoding="utf-8")
    assert len(ParameterSpace.from_file(path)) == len(small_space())


def test_default_grids_match_the_historical_sweep():
    space = ParameterSpace.for_workload("diffeq")
    assert len(space.gt_subsets) == 32
    assert len(space.lt_subsets) == 2
    assert len(space) == 64
    assert space.gt_subsets == default_gt_grid()
    assert space.lt_subsets == default_lt_grid()


def test_random_scenarios_sugar():
    space = ParameterSpace.from_dict(
        {
            "scenarios": [],
            "random_scenarios": {"count": 3, "base_seed": 10},
            "gt": [[]],
            "lt": [[]],
        }
    )
    assert [s.seed for s in space.scenarios] == [10, 11, 12]


@pytest.mark.parametrize(
    "doc",
    [
        {"scenarios": []},
        {"scenarios": [{"workload": "diffeq"}], "schema": "bogus/v9"},
        {"scenarios": [{"mystery": 1}]},
        {"scenarios": [{"workload": "diffeq"}], "gt": [["NOT_A_PASS"]]},
        {"scenarios": [{"workload": "diffeq"}], "gt": []},
        {"scenarios": [{"workload": "diffeq"}], "delays": [{"scale": -1.0}]},
        {"scenarios": [{"workload": "diffeq"}], "delays": [{"overrides": [["FU"]]}]},
        {
            "scenarios": [{"workload": "diffeq"}],
            "delays": [{"name": "dup"}, {"name": "dup"}],
        },
    ],
)
def test_malformed_specs_raise_space_error(doc):
    with pytest.raises(SpaceError):
        ParameterSpace.from_dict(doc)


def test_unknown_workload_scenario_fails_at_build():
    scenario = Scenario.from_dict({"workload": "no-such-workload"})
    with pytest.raises(SpaceError):
        scenario.build()


def test_space_file_errors(tmp_path):
    with pytest.raises(SpaceError):
        ParameterSpace.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpaceError):
        ParameterSpace.from_file(bad)


def test_kernel_scenario_compiles():
    from pathlib import Path

    kernel = Path(__file__).resolve().parents[2] / "examples" / "kernels" / "accumulate.py"
    scenario = Scenario.from_dict({"kernel": str(kernel), "bounds": {"ALU": 2}})
    cdfg = scenario.build()
    assert simulate_tokens(cdfg, seed=NOMINAL).registers
    assert scenario.name == "accumulate"


# ----------------------------------------------------------------------
# contexts and keys
# ----------------------------------------------------------------------
def test_context_keys_are_content_addressed():
    space = small_space()
    keys = [ctx.key for ctx in space.contexts()]
    assert len(set(keys)) == len(keys)  # delay variant changes the key
    # same spec again: identical keys (pure content, no run identity)
    assert [ctx.key for ctx in small_space().contexts()] == keys


def test_point_keys_distinguish_grid_points():
    space = small_space()
    ctx = next(space.contexts())
    keys = {
        space.point_key(ctx, gt, tuple(lt))
        for gt in space.gt_subsets
        for lt in space.lt_subsets
    }
    assert len(keys) == space.points_per_context


def test_contexts_are_scenario_major_and_counted():
    space = ParameterSpace.from_dict(
        {
            "scenarios": [{"workload": "diffeq"}, {"random": 1}],
            "delays": [{"name": "nominal"}, {"name": "x2", "scale": 2.0}],
            "seeds": [9, 11],
            "gt": [[]],
            "lt": [[]],
        }
    )
    contexts = list(space.contexts())
    assert len(contexts) == space.context_count == 8
    assert [c.scenario_index for c in contexts] == [0] * 4 + [1] * 4
    assert [c.index for c in contexts] == list(range(8))


def test_contexts_simulate_one_golden_per_scenario(monkeypatch):
    """The golden is a NOMINAL default-delay simulation, so delay
    variants and seeds of one scenario share it; keys are unchanged."""
    calls = []

    def counting(cdfg, **kwargs):
        calls.append(cdfg.name)
        return simulate_tokens(cdfg, **kwargs)

    monkeypatch.setattr("repro.cache.incremental.simulate_tokens", counting)
    space = ParameterSpace.from_dict(
        {
            "scenarios": [{"workload": "gcd"}, {"random": 1}],
            "delays": [{"name": "nominal"}, {"name": "x2", "scale": 2.0}],
            "seeds": [9, 11],
            "gt": [[]],
            "lt": [[]],
        }
    )
    contexts = list(space.contexts())
    assert len(contexts) == 8
    assert len(calls) == 2
    for ctx in contexts:
        golden = simulate_tokens(ctx.cdfg, seed=NOMINAL).registers
        assert list(ctx.golden.items()) == list(golden.items())
        assert ctx.key == make_key(
            "ctx",
            KEY_GENERATION,
            fingerprint_cdfg(ctx.cdfg),
            fingerprint_delays(ctx.delays),
            ctx.seed_key,
            fingerprint_registers(golden),
        )


def test_bench_space_shape():
    space = bench_space()
    assert space.context_count == 16  # (1 workload + 3 random) x 4 scales
    assert len(space) == 1024
