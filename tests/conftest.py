"""Shared fixtures: the three workloads at each optimization level."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.transforms import optimize_global
from repro.workloads import build_diffeq_cdfg, build_ewf_cdfg, build_gcd_cdfg

# Tier-1 draws fresh random examples every run, but keeps no examples
# database: a red run must not leave state that changes the next run.
settings.register_profile("tier1", database=None)
settings.load_profile("tier1")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the checked-in golden reports (tests/golden/reports/) "
        "instead of comparing against them",
    )


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def diffeq():
    return build_diffeq_cdfg()


@pytest.fixture(scope="session")
def gcd():
    return build_gcd_cdfg()


@pytest.fixture(scope="session")
def ewf():
    return build_ewf_cdfg()


@pytest.fixture(scope="session")
def diffeq_optimized(diffeq):
    """DIFFEQ after the full GT1..GT5 script (graph is never mutated by
    consumers: treat as read-only)."""
    return optimize_global(diffeq)


@pytest.fixture(scope="session")
def gcd_optimized(gcd):
    return optimize_global(gcd)


@pytest.fixture(scope="session")
def ewf_optimized(ewf):
    return optimize_global(ewf)
