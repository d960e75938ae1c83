"""Host-speed scaling divides each interval by the probe's slowness there."""

import time

import pytest

from bench.hostspeed import REFERENCE_PROBE_S, HostSpeed


def test_scaled_interval_is_divided_by_the_local_factor():
    with HostSpeed() as host:
        start = time.perf_counter()
        time.sleep(0.3)
        end = time.perf_counter()
    assert len(host.samples) >= 3
    factor = host.factor(start, end)
    probes = [seconds for __, seconds in host.samples]
    assert min(probes) / REFERENCE_PROBE_S <= factor <= max(probes) / REFERENCE_PROBE_S
    assert host.scaled(start, end) == pytest.approx((end - start) / factor)


def test_a_short_interval_uses_the_neighbouring_samples():
    with HostSpeed() as host:
        time.sleep(0.2)
        start = time.perf_counter()
        end = start + 1e-6
        time.sleep(0.2)
    before = [s for t, s in host.samples if t < start][-1]
    after = [s for t, s in host.samples if t > end][0]
    assert host.factor(start, end) == pytest.approx((before + after) / 2 / REFERENCE_PROBE_S)
