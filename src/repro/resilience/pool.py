"""The one crash-tolerant process pool.

One worker dying (OOM kill, segfault in a native extension,
``os._exit``) breaks a whole ``ProcessPoolExecutor``: every pending
future raises ``BrokenProcessPool``.  :class:`WorkerPool` owns the
executor and the recovery discipline every pool in the program shares:

1. **Rebuild**: after a collapse the pool is replaced, backing off by
   :meth:`RetryPolicy.delay` between attempts (a transient crash — OOM
   spike, killed container sibling — usually clears), and every
   collapse is counted.
2. **In-process degradation**: once the policy's ``max_retries``
   rebuilds are spent, the caller's remaining work runs in the calling
   process.  A payload that *deterministically* kills its worker can
   then be caught as an ordinary exception (or at worst reproduces
   under a debugger instead of vanishing in a pool).
3. **Clean shutdown**: a normal shutdown joins the workers, so none
   outlive the call that used them.

Two callers share it: the shard runner's per-shard pools
(:mod:`repro.cache.shards`, the program's one parallel explorer) and
the job server's runner (:mod:`repro.serve.runner`), which rebuilds
without backing off or degrading — its dispatcher retries jobs
asynchronously instead.  The multiprocessing context is the caller's
choice; only the server needs ``forkserver`` (see
:class:`~repro.serve.runner.JobRunner`).
"""

from __future__ import annotations

import random
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Tuple


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff schedule for pool rebuilds and retries.

    The schedule is **seeded-deterministic**: the jitter for retry
    attempt *n* is drawn from a generator seeded with ``(seed, n)``, so
    the same policy produces the same delay sequence in every process
    and every run — reproducible crash drills, no thundering herd when
    many shards share a policy with distinct seeds.

    ``delay(attempt)`` for attempt 0, 1, 2, ... is
    ``min(base_delay * 2**attempt, max_delay)`` plus a jitter term
    uniform in ``[0, jitter * backoff)``.  ``max_retries`` is how many
    times a caller should retry before giving up (or degrading).
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def delay(self, attempt: int) -> float:
        """The deterministic backoff before retry ``attempt`` (0-based)."""
        backoff = min(self.base_delay * (2 ** attempt), self.max_delay)
        if not self.jitter or backoff <= 0.0:
            return backoff
        # string seeding hashes via SHA-512 in CPython: stable across
        # processes and PYTHONHASHSEED values, unlike hash(tuple)
        rng = random.Random(f"retry:{self.seed}:{attempt}")
        return backoff + rng.uniform(0.0, self.jitter * backoff)

    def schedule(self) -> List[float]:
        """Every delay the policy would sleep, in order."""
        return [self.delay(attempt) for attempt in range(self.max_retries)]


class WorkerPool:
    """A process pool that rebuilds itself when a worker dies.

    ``submit`` hands work to the current executor.  When a future
    raises ``BrokenProcessPool`` the caller calls :meth:`recover`:
    attempt *n* sleeps ``policy.delay(n)`` and rebuilds, until
    ``policy.max_retries`` rebuilds are spent — from then on
    :meth:`recover` returns ``False`` and the caller runs its work
    through :meth:`run_local` instead.  The budget is per pool, not
    per payload.  ``broken`` counts every collapse.
    """

    def __init__(
        self,
        max_workers: int,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
        policy: Optional[RetryPolicy] = None,
        mp_context=None,
    ):
        self.policy = policy if policy is not None else RetryPolicy()
        self.mp_context = mp_context
        self.broken = 0
        self._local_init = (initializer, initargs)
        self._build = partial(
            ProcessPoolExecutor, max_workers, mp_context, initializer, initargs
        )
        self._executor: Optional[ProcessPoolExecutor] = self._build()

    @property
    def degraded(self) -> bool:
        """The rebuild budget is spent (or the pool is shut down)."""
        return self._executor is None

    def submit(self, fn: Callable, *args) -> Future:
        return self._executor.submit(fn, *args)

    def rebuild(self) -> None:
        """Replace the executor at once (a broken executor terminates
        and joins its own workers)."""
        self.broken += 1
        self._executor.shutdown(wait=False)
        self._executor = self._build()

    def recover(self) -> bool:
        """After a ``BrokenProcessPool``: back off and rebuild, or —
        once ``policy.max_retries`` rebuilds are spent — drop the pool
        and return ``False`` so the caller degrades to :meth:`run_local`."""
        if self.broken >= self.policy.max_retries:
            self.broken += 1
            self.shutdown()
            return False
        time.sleep(self.policy.delay(self.broken))
        self.rebuild()
        return True

    def run_local(self, fn: Callable, *args):
        """Run ``fn`` in the calling process; the initializer runs here
        once first, as it would in a worker."""
        initializer, initargs = self._local_init
        if initializer is not None:
            self._local_init = (None, ())
            initializer(*initargs)
        return fn(*args)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.  ``wait`` joins the workers; ``wait=False``
        (interrupts, early stops) cancels queued work and returns at
        once."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)

