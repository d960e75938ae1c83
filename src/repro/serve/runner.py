"""The worker pool behind the job server.

Wraps a :class:`~repro.resilience.pool.WorkerPool` (or a thread pool,
for lightweight deployments and tests) behind an async call:

- **Per-job timeouts**, enforced twice: inside the worker via
  :func:`repro.resilience.injection.point_deadline` (``SIGALRM`` on
  the worker's main thread — the same watchdog ``repro explore
  --timeout`` uses), and as an ``asyncio.wait_for`` backstop with a
  grace period for executors where signals cannot fire (thread mode,
  non-Unix).  Either way the caller sees ``PointTimeout``.
- **BrokenProcessPool rebuild**: one worker dying (chaos kill, OOM)
  breaks the whole pool; the runner rebuilds it immediately (counted
  in :attr:`rebuilds`) and reports the failure as *transient* so the
  dispatcher retries the job under its
  :class:`~repro.resilience.pool.RetryPolicy` budget.  In-flight
  sibling jobs fail the same way and retry too — none are lost.  There
  is no in-process fallback: running a job in the server process
  would block its event loop.

The runner never touches the job store: it executes and classifies;
the server owns state transitions.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional

from repro.resilience.injection import PointTimeout, point_deadline
from repro.resilience.pool import WorkerPool
from repro.serve.jobs import execute_job

#: executor kinds the runner can host
EXECUTORS = ("process", "thread")

#: extra wall-clock slack the async backstop allows the in-worker
#: watchdog before assuming it could not fire
TIMEOUT_GRACE = 0.75


def _invoke(kind: str, params: dict, deadline: Optional[float]) -> dict:
    """Top-level worker entry point (must stay picklable)."""
    with point_deadline(deadline):
        return execute_job(kind, params)


class JobRunner:
    """Executes jobs on a pool; owns rebuild and timeout mechanics."""

    def __init__(self, workers: int = 2, executor: str = "process"):
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        self.workers = max(1, int(workers))
        self.executor_kind = executor
        if executor == "process":
            # fork-context workers inherit every FD open at the moment
            # they spawn — including sockets the server has *accepted*.
            # A worker forked mid-request keeps a copy of the client's
            # connection, so the server's close() never FINs and that
            # client blocks until its socket timeout.  Workers spawn
            # lazily (first dispatch, every pool rebuild), so the race
            # is unavoidable with plain fork.  The forkserver context
            # removes it: the master is started *here*, while the
            # runner is being built and no connections exist, and every
            # worker — including post-rebuild ones — forks from that
            # clean master instead of the serving process.
            from multiprocessing import forkserver

            forkserver.set_forkserver_preload(["repro.serve.jobs"])
            forkserver.ensure_running()
            self._pool = WorkerPool(
                self.workers, mp_context=multiprocessing.get_context("forkserver")
            )
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-serve"
            )

    @property
    def rebuilds(self) -> int:
        return self._pool.broken if self.executor_kind == "process" else 0

    def shutdown(self, wait: bool = True) -> None:
        if self.executor_kind == "process":
            self._pool.shutdown(wait=wait)
            if wait:
                _stop_helper_processes()
        else:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)

    # ------------------------------------------------------------------
    async def execute(
        self, kind: str, params: dict, timeout: Optional[float] = None
    ) -> dict:
        """Run one job attempt; raises the classified failure.

        ``PointTimeout`` for deadline overruns (in-worker watchdog or
        the async backstop), ``BrokenProcessPool`` after an automatic
        rebuild for worker deaths, and whatever the job itself raised
        otherwise.
        """
        # thread mode cannot arm SIGALRM off the main thread; pass no
        # in-worker deadline there and rely on the backstop alone
        deadline = timeout if self.executor_kind == "process" else None
        backstop = None if timeout is None else timeout + TIMEOUT_GRACE
        try:
            future = asyncio.wrap_future(
                self._pool.submit(_invoke, kind, params, deadline)
            )
            return await asyncio.wait_for(future, backstop)
        except asyncio.TimeoutError:
            # the worker may still be grinding; the store's late-result
            # guard discards whatever it eventually produces
            raise PointTimeout(
                f"job exceeded its {timeout:g}s deadline (async backstop)"
            )
        except BrokenProcessPool:
            # no backoff here: the dispatcher sleeps its RetryPolicy
            # delay asynchronously before the job's next attempt
            self._pool.rebuild()
            raise

    def stats(self) -> Dict[str, object]:
        return {
            "executor": self.executor_kind,
            "workers": self.workers,
            "rebuilds": self.rebuilds,
        }


def _stop_helper_processes() -> None:
    """Stop and reap the forkserver, then the resource tracker.

    Both outlive their pool: without this, a server that exits leaves
    them behind, reparented to init, running or unreaped.  Call it only
    after the pool is joined.  The resource tracker goes last: the
    forkserver and every worker hold its pipe, and it exits only once
    that pipe is closed everywhere.  Either helper restarts on demand
    if a later pool needs it.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
