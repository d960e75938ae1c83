"""The shared process-pool primitive and the process hygiene it buys."""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.resilience.pool as pool_module
from repro.cache.shards import explore_space
from repro.cache.space import ParameterSpace
from repro.cli import main
from repro.resilience.pool import RetryPolicy, WorkerPool
from repro.serve.runner import JobRunner

_INITIALIZED = []


def _note_init(tag):
    _INITIALIZED.append(tag)


def _die():
    os._exit(3)


def _double(value):
    return 2 * value


class TestWorkerPool:
    def test_recover_backs_off_then_degrades(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(pool_module.time, "sleep", sleeps.append)
        policy = RetryPolicy(max_retries=2, seed=5)
        pool = WorkerPool(1, policy=policy)
        try:
            outcomes = []
            while not pool.degraded:
                with pytest.raises(BrokenProcessPool):
                    pool.submit(_die).result()
                outcomes.append(pool.recover())
        finally:
            pool.shutdown()
        assert outcomes == [True, True, False]
        assert pool.broken == 3
        assert sleeps == policy.schedule()

    def test_run_local_runs_the_initializer_once(self):
        _INITIALIZED.clear()
        pool = WorkerPool(1, initializer=_note_init, initargs=("parent",))
        pool.shutdown()
        assert pool.run_local(_double, 4) == 8
        assert pool.run_local(_double, 5) == 10
        assert _INITIALIZED == ["parent"]


@pytest.fixture
def no_stray_children():
    # earlier tests may cancel pools without waiting; let those finish
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    yield
    assert multiprocessing.active_children() == []


class TestNoProcessOutlivesItsCall:
    def test_sharded_space(self, no_stray_children):
        space = ParameterSpace.from_dict(
            {
                "scenarios": [{"workload": "gcd"}],
                "delays": [{"name": "nominal"}, {"name": "x2", "scale": 2.0}],
                "gt": [[], ["GT1"]],
                "lt": [[]],
            }
        )
        result = explore_space(space, shards=2, parallelism=2)
        assert result.complete and result.stats["effective_shards"] == 2

    def test_pooled_sweep(self, capsys, no_stray_children):
        # --workers N is the CLI's sharded route: N one-process shards
        assert main(["explore", "gcd", "--workers", "2", "--no-cache"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert "of 64 explored points (1 contexts x 64 grid points, 2 shards" in summary

    def test_process_job_runner(self, no_stray_children):
        runner = JobRunner(workers=1, executor="process")
        worker = runner._pool.submit(os.getpid).result(timeout=60)
        runner.shutdown()
        # forkserver workers are not our children: check the pid itself
        with pytest.raises(ProcessLookupError):
            os.kill(worker, 0)
