"""Property-based checks over randomly generated CDFG programs.

A random structured program (straight-line ops, one optional loop,
random binding onto 2-3 units) is built, the full transform script is
applied, and the invariants of the paper's framework are asserted:
well-formedness, semantic equivalence under random delays, and channel
monotonicity.  The program generator lives in :mod:`tests.strategies`
so the verify tests can reuse it.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cdfg import check_well_formed
from repro.channels import derive_channels
from repro.errors import ChannelSafetyError
from repro.sim import NOMINAL, simulate_tokens
from repro.transforms import optimize_global

from tests.strategies import build_program, programs


def _op(dest, operator):
    return (dest, dest, operator, dest, "FU_A")


#: a known refutation, not yet fixed (ROADMAP item 4, second witness):
#: after the transform script, seed 0 puts two outstanding transitions
#: on body2 -> body3.  Pinned as an explicit example so every run checks
#: it; when the static wire-capacity check lands the example stops
#: raising and Hypothesis fails it: drop the xfail then
GT5_OCCUPANCY_WITNESS = (
    (),
    (_op("R0", "+"),) * 3 + (_op("R1", "+"), _op("R1", "*")),
    4,
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
@example(GT5_OCCUPANCY_WITNESS).xfail(
    reason="ROADMAP item 4: GT5 merges a wire that GT1 double-books",
    raises=ChannelSafetyError,
)
def test_transform_script_preserves_semantics(program):
    cdfg = build_program(program)
    check_well_formed(cdfg)
    baseline = simulate_tokens(cdfg, seed=0)

    optimized = optimize_global(cdfg)
    check_well_formed(optimized.cdfg)
    for seed in (0, 1):
        result = simulate_tokens(optimized.cdfg, seed=seed)
        assert result.registers == baseline.registers
        assert result.violations == []


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_channels_never_increase(program):
    cdfg = build_program(program)
    before = derive_channels(cdfg).count(include_env=False)
    optimized = optimize_global(cdfg)
    assert optimized.plan.count(include_env=False) <= before


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.integers(min_value=0, max_value=1000))
def test_token_simulation_delay_insensitive(program, seed):
    """Final register files are independent of delay assignments."""
    cdfg = build_program(program)
    nominal = simulate_tokens(cdfg, seed=NOMINAL)
    random_delays = simulate_tokens(cdfg, seed=seed)
    assert nominal.registers == random_delays.registers
