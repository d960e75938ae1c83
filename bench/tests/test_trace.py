"""The tracer wraps ``repro.*`` from outside and leaves no trace behind."""

import inspect
import sys
import types

import repro.cache.shards  # noqa: F401  (load every traced module up front)
import repro.explore  # noqa: F401
import repro.serve.client  # noqa: F401
import repro.verify.flow  # noqa: F401
import repro.verify.oracles  # noqa: F401
from repro.cache.shards import explore_space
from repro.cache.space import ParameterSpace
from repro.explore import explore_design_space
from repro.workloads import build_gcd_cdfg

from bench.trace import Tracer, repro_modules


def _snapshot():
    """Identity of every attribute of every loaded repro module and of
    every class they define."""
    state = {}
    for module in repro_modules():
        for name, value in vars(module).items():
            state[(module.__name__, name)] = value
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attribute, member in vars(value).items():
                    state[(module.__name__, name, attribute)] = member
    return state


def _lookup(key):
    module = sys.modules[key[0]]
    if len(key) == 2:
        return vars(module)[key[1]]
    return vars(vars(module)[key[1]])[key[2]]


def test_uninstall_restores_every_patched_attribute(tmp_path):
    before = _snapshot()
    original = sys.modules["repro.sim.system"].simulate_system
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        # rebound in the defining module and in its importers
        assert sys.modules["repro.sim.system"].simulate_system is not original
        assert sys.modules["repro.cache.incremental"].simulate_system is not original
        assert _snapshot() != before
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if _lookup(key) is not value]
    assert changed == []


def test_uninstall_restores_bindings_made_while_installed(tmp_path):
    tracer = Tracer(tmp_path)
    original = sys.modules["repro.sim.system"].simulate_system
    probe = types.ModuleType("repro.bench_probe")
    sys.modules[probe.__name__] = probe
    try:
        tracer.install()
        try:
            # a module imported mid-run binds the wrapper
            probe.simulate_system = sys.modules["repro.sim.system"].simulate_system
            assert probe.simulate_system is not original
        finally:
            tracer.uninstall()
        assert probe.simulate_system is original
    finally:
        del sys.modules[probe.__name__]


def test_traced_and_untraced_sweeps_return_identical_points(tmp_path):
    plain = explore_design_space(build_gcd_cdfg())
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        with tracer.span("bench.op"):
            traced = explore_design_space(build_gcd_cdfg())
    finally:
        tracer.uninstall()
    assert traced.points == plain.points
    profile = tracer.profile()
    for layer in ("transforms.GT1", "local_transforms.LT4", "verify.flow.LT4",
                  "verify.meta", "sim.simulate_system", "cache.incremental"):
        assert profile.self_s[layer] > 0.0, layer
    assert profile.counters["evaluations"] == plain.stats["evaluations"]
    assert profile.counters["edges"] == plain.stats["edges"]
    (duration, unattributed), = profile.ops
    assert 0.0 <= unattributed < 0.05 * duration


def test_forked_shard_workers_spool_their_spans(tmp_path):
    tracer = Tracer(tmp_path / "spans")
    tracer.install()
    try:
        result = explore_space(ParameterSpace.for_workload("gcd"), shards=2, run_dir=tmp_path / "run")
    finally:
        tracer.uninstall()
    assert len(result.points) == 64
    assert list((tmp_path / "spans").glob("spans-*.jsonl"))
    profile = tracer.profile()
    assert profile.worker_busy_s > 0.0
    assert profile.counters["evaluations"] > 0
    assert profile.calls["cache.journal.append"] == 64
