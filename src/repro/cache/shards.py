"""Work-stealing shard scheduler for parameter-space exploration.

One :class:`~repro.cache.incremental.IncrementalExplorer` sweeps one
context (CDFG × delay model × seed) serially.  At parameter-space
scale (:mod:`repro.cache.space`: many contexts, 10k+ points) that
shape leaves throughput on the table twice: contexts run strictly one
after another, and within a context every point waits for the one
before it.  The shard runner is the program's one parallel explorer,
and it fixes both:

- **partitioning** — each context's GT grid is split into shared-prefix
  subtrees (all subsets starting with the same first pass live in one
  trie subtree), chunked into work units of a few points; units keep
  canonical order, and the trie inside each worker still shares prefix
  work across the unit exactly like the serial engine;
- **shards** — ``--shards N`` independent schedulers, each owning its
  own :class:`~repro.resilience.pool.WorkerPool` (broken pools are
  rebuilt under a :class:`~repro.resilience.pool.RetryPolicy`, then
  degraded to in-thread evaluation).  Units are dealt to shards by
  *scenario* affinity, so every context sharing a CDFG (the delay
  variants and seeds of one scenario) keeps hitting one shard's memos.
  The effective fleet is clamped to the host's available CPUs: shards
  beyond hardware parallelism cannot overlap in time, so each extra
  worker process would only re-pay cold synthesis memos — strictly
  more total work for zero latency win.  Both counts are reported
  (``shards`` requested, ``effective_shards`` used);
- **work stealing** — a shard whose deque drains steals from the
  most-loaded shard, *memo-aware*: units of contexts the thief has
  already dispatched are preferred (its workers' memos are warm for
  them), and when only cold contexts remain the thief adopts half of
  the victim's tail-context run at once, so the one-off cold-memo
  cost amortizes over several units.  Stragglers cannot idle the
  fleet, and steals no longer shred memo locality;
- **cross-context memo sharing** — worker processes keep per-process
  explorer caches plus *worker-global* design/machine/edge memos keyed
  by content fingerprints (`IncrementalExplorer(machine_memo=...,
  design_memo=..., edge_memo=...)`).  Contexts that differ only in
  delay distribution or seed synthesize identical graphs under uniform
  scalings (transform decisions compare *sums* of delays, so scaling
  preserves GT3 choices, oracle verdicts and content fingerprints —
  the paper's speed-independence argument), so transform application,
  edge re-verification, extraction and LT optimization are each paid
  once per *content*, not once per context; only simulation, which is
  genuinely delay-dependent, runs per context.  This is the dominant
  cost of multi-distribution sweeps;
- **streaming** — every completed evaluation is appended to the run
  directory's :class:`~repro.cache.journal.ResultJournal` before the
  point is reported, and offered to a
  :class:`~repro.cache.frontier.StreamingFrontier`; a killed run
  resumes from the journal bit-identically (records are deterministic,
  and final reports are assembled in canonical space order regardless
  of completion order).

Everything the serial engine guarantees still holds per point:
records come from the same ``evaluate_prefix`` path, with the same
oracle composition, so conformance/proof stamps are bit-identical.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cache.frontier import StreamingFrontier
from repro.cache.incremental import IncrementalExplorer, assemble_point
from repro.cache.journal import ResultJournal
from repro.cache.space import ParameterSpace, SpaceContext
from repro.explore import DesignPoint, ExplorationResult
from repro.obs.spans import span
from repro.resilience.pool import RetryPolicy, WorkerPool

#: grid points per work unit (GT subsets × LT subsets); units are the
#: stealing granularity — small enough to balance, large enough that
#: prefix sharing inside the unit still pays
UNIT_POINTS = 16

#: worker-side explorer cache bound (contexts alive per process)
WORKER_CONTEXT_CAP = 8


@dataclass
class WorkUnit:
    """A chunk of one context's grid: (gt, lt) pairs in canonical order."""

    context: SpaceContext
    items: List[Tuple[Tuple[str, ...], Tuple[str, ...]]]
    #: keys aligned with ``items`` (computed once, parent-side)
    keys: List[str]


@dataclass
class SpaceResult:
    """A (possibly partial) parameter-space sweep, canonically ordered."""

    result: ExplorationResult
    #: one JSON document per assembled point: the ``DesignPoint`` dict
    #: plus the context labels (scenario / delay_model / sim_seed)
    documents: List[dict] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)
    #: False when the run was interrupted/stopped with points missing
    complete: bool = True

    @property
    def points(self) -> List[DesignPoint]:
        return self.result.points

    def pareto_points(self) -> List[DesignPoint]:
        return self.result.pareto_points()

    def failed_points(self) -> List[DesignPoint]:
        return self.result.failed_points()

    def best(self, objective: str) -> DesignPoint:
        return self.result.best(objective)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
# Per-process explorer cache (bounded LRU) plus unbounded content-keyed
# memos shared across every context the process ever sees.  The memos
# out-live explorer eviction on purpose: two contexts with disjoint
# lifetimes still share their synthesis work.
_CTX_EXPLORERS: "OrderedDict[tuple, IncrementalExplorer]" = OrderedDict()
_DESIGN_MEMO: Dict[str, object] = {}
_MACHINE_MEMO: Dict[str, tuple] = {}
_EDGE_MEMO: Dict[str, dict] = {}


def _context_explorer(payload) -> IncrementalExplorer:
    from repro.sim.seeding import NOMINAL

    ctx_key, cdfg, delays, seed_spec, golden, injector, timeout, edge_scope = payload
    # the fault hooks are part of the key: a degraded unit runs here in
    # the parent, and later runs' forked workers inherit this cache
    ctx_key = (ctx_key, injector, timeout)
    explorer = _CTX_EXPLORERS.get(ctx_key)
    if explorer is None:
        explorer = IncrementalExplorer(
            cdfg,
            delays=delays,
            seed=NOMINAL if seed_spec == "nominal" else seed_spec,
            golden=golden,
            cache=None,
            fault_injector=injector,
            point_timeout=timeout,
            machine_memo=_MACHINE_MEMO,
            design_memo=_DESIGN_MEMO,
            edge_memo=_EDGE_MEMO,
            edge_scope=edge_scope,
        )
        _CTX_EXPLORERS[ctx_key] = explorer
        while len(_CTX_EXPLORERS) > WORKER_CONTEXT_CAP:
            _CTX_EXPLORERS.popitem(last=False)
    else:
        _CTX_EXPLORERS.move_to_end(ctx_key)
    return explorer


def _evaluate_unit(payload) -> List[dict]:
    """Worker entry: evaluate one unit's points, in order.

    Also used in-thread by the parent as the serial-degradation path,
    so the two paths cannot drift.
    """
    context_payload, items = payload
    explorer = _context_explorer(context_payload)
    return [explorer.evaluate_prefix(gt, lt) for gt, lt in items]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class ShardRunner:
    """Drive a :class:`ParameterSpace` across work-stealing shards.

    ``run_dir`` enables the journal (and thus ``--resume``); ``live``
    is called as ``live(completed, total, frontier, point)`` after each
    streamed point.  ``stop_after`` deterministically stops the run
    after that many newly-completed points — the hook the resume tests
    use to fabricate killed runs without racing a signal.
    """

    def __init__(
        self,
        space: ParameterSpace,
        shards: int = 2,
        run_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        live: Optional[Callable] = None,
        stop_after: Optional[int] = None,
        retries: int = 2,
        fault_injector=None,
        point_timeout: Optional[float] = None,
        parallelism: Optional[int] = None,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.space = space
        self.shards = shards
        # Shards beyond the host's parallelism never help: their pools
        # just timeslice one another while each worker process pays its
        # own cold synthesis memos — strictly more total work for zero
        # latency win.  Clamp the *effective* fleet to the CPUs we can
        # actually run on (``parallelism`` overrides detection — tests
        # use it to exercise multi-shard scheduling on small hosts);
        # the requested count is still reported in the run stats.
        if parallelism is None:
            try:
                parallelism = len(os.sched_getaffinity(0))
            except AttributeError:  # non-Linux
                parallelism = os.cpu_count() or 1
        self.effective_shards = max(1, min(shards, parallelism))
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.live = live
        self.stop_after = stop_after
        self.policy = RetryPolicy(max_retries=retries)
        self.fault_injector = fault_injector
        self.point_timeout = point_timeout

        self.frontier = StreamingFrontier()
        self._records: Dict[str, dict] = {}
        self._resumed = 0
        if self.run_dir is not None and resume:
            self._records = ResultJournal(self.run_dir).load()
            self._resumed = len(self._records)

        self._lock = threading.Lock()  # streaming state (records/frontier)
        self._queue_lock = threading.Lock()  # deques + steal accounting
        self._stop = threading.Event()
        self._completed = 0
        self._stolen = 0
        #: per-shard scenario indices already dispatched — the steal
        #: policy prefers work these memos are warm for.  Warmth is
        #: scenario-level, not context-level: the worker memos are
        #: content-keyed, so having run *any* delay variant or seed of
        #: a scenario warms every other one
        self._seen: List[set] = [set() for _ in range(self.effective_shards)]
        self._broken_pools = 0
        self._degraded = 0
        self._interrupted = False
        self._shard_points = [0] * self.effective_shards
        self._shard_errors: List[str] = []

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def _build_units(self, contexts: Sequence[SpaceContext]) -> List[deque]:
        """Deal shared-prefix chunks to shards by context affinity."""
        queues: List[deque] = [deque() for _ in range(self.effective_shards)]
        for context in contexts:
            subtrees: "OrderedDict[str, list]" = OrderedDict()
            for gt in self.space.gt_subsets:
                subtrees.setdefault(gt[0] if gt else "", []).append(tuple(gt))
            # affinity by *scenario*, not context: the contexts that
            # share synthesis content (same CDFG under different delay
            # variants / seeds) must land in the same shard's worker
            # processes for the worker-global memos to pay
            shard = context.scenario_index % self.effective_shards
            for subsets in subtrees.values():
                items: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
                keys: List[str] = []
                for gt in subsets:
                    for lt in self.space.lt_subsets:
                        key = self.space.point_key(context, gt, tuple(lt))
                        if key in self._records:
                            continue  # resumed: already durable
                        items.append((gt, tuple(lt)))
                        keys.append(key)
                for start in range(0, len(items), UNIT_POINTS):
                    queues[shard].append(
                        WorkUnit(
                            context=context,
                            items=items[start : start + UNIT_POINTS],
                            keys=keys[start : start + UNIT_POINTS],
                        )
                    )
        return queues

    def _next_unit(self, shard: int, queues: List[deque]) -> Optional[WorkUnit]:
        """Own head first, then memo-aware stealing.

        A steal is never free here: the thief's worker processes hold
        cold memos for the stolen context, so its first stolen unit
        re-pays synthesis work the victim already amortized.  The
        policy therefore (1) prefers stealing a unit of a context this
        shard has *already dispatched* — its memos are warm, the steal
        costs nothing extra — scanning victims most-loaded first, from
        the tail (the frontier of the victim's remaining span); and
        (2) when only cold contexts are left, adopts the tail context
        of the most-loaded victim *half-run at a time*: the contiguous
        tail run of units sharing that context is split and the far
        half moves to the thief's own queue, so the one-off cold cost
        amortizes over several units instead of one.
        """
        with self._queue_lock:
            if queues[shard]:
                unit = queues[shard].popleft()
                self._seen[shard].add(unit.context.scenario_index)
                return unit
            # (1) warm steal: any unit of a scenario this shard knows
            for victim in sorted(
                (s for s in range(self.effective_shards) if s != shard),
                key=lambda s: -len(queues[s]),
            ):
                queue = queues[victim]
                for index in range(len(queue) - 1, -1, -1):
                    if queue[index].context.scenario_index in self._seen[shard]:
                        unit = queue[index]
                        del queue[index]
                        self._stolen += 1
                        return unit
            # (2) cold adoption: take half of the tail context's run
            victim = max(range(self.effective_shards), key=lambda s: len(queues[s]))
            queue = queues[victim]
            if queue:
                tail_key = queue[-1].context.key
                run = 0
                for index in range(len(queue) - 1, -1, -1):
                    if queue[index].context.key != tail_key:
                        break
                    run += 1
                taken = [queue.pop() for __ in range((run + 1) // 2)]
                taken.reverse()  # keep canonical unit order
                self._stolen += len(taken)
                self._seen[shard].add(taken[0].context.scenario_index)
                queues[shard].extend(taken[1:])
                return taken[0]
        return None

    # ------------------------------------------------------------------
    # shard loop
    # ------------------------------------------------------------------
    @staticmethod
    def _context_payload(context: SpaceContext, injector, timeout):
        return (
            context.key,
            context.cdfg,
            context.delays,
            context.seed_spec,
            context.golden,
            injector,
            timeout,
            context.edge_scope,
        )

    def _run_shard(self, shard: int, queues: List[deque], journal: ResultJournal) -> None:
        pool: Optional[WorkerPool] = None
        finished = False
        try:
            # one unit is in flight per shard, so one worker per pool
            pool = WorkerPool(1, policy=self.policy)
            while not self._stop.is_set():
                unit = self._next_unit(shard, queues)
                if unit is None:
                    break
                records = self._dispatch(unit, pool)
                if records is None:
                    break  # stopped mid-unit
                self._stream(shard, unit, records, journal)
            finished = not self._stop.is_set()
        except Exception as exc:  # a dead shard must not fail silently
            with self._lock:
                self._shard_errors.append(f"shard {shard}: {type(exc).__name__}: {exc}")
        finally:
            if pool is not None:
                # join the workers on a normal finish; an interrupt or
                # --stop-after cancels queued work and returns at once
                pool.shutdown(wait=finished)
                with self._lock:
                    self._broken_pools += pool.broken

    def _dispatch(self, unit: WorkUnit, pool: WorkerPool) -> Optional[List[dict]]:
        """Run one unit on the shard's pool, with crash recovery.

        A broken pool is rebuilt under the runner's
        :class:`~repro.resilience.pool.RetryPolicy` and the unit
        retried; once the pool's rebuild budget is spent, units run
        in-thread (which cannot lose a worker).  Returns the unit's
        records, or ``None`` if the run was stopped meanwhile.
        """
        payload = (
            self._context_payload(unit.context, self.fault_injector, self.point_timeout),
            unit.items,
        )
        while not pool.degraded:
            try:
                future = pool.submit(_evaluate_unit, payload)
                while True:
                    try:
                        return future.result(timeout=0.2)
                    except FutureTimeout:
                        if self._stop.is_set():
                            future.cancel()
                            return None
            except BrokenProcessPool:
                pool.recover()
        with self._lock:
            self._degraded += 1
        return pool.run_local(_evaluate_unit, payload)

    def _stream(
        self, shard: int, unit: WorkUnit, records: List[dict], journal: ResultJournal
    ) -> None:
        for (gt, lt), key, record in zip(unit.items, unit.keys, records):
            with self._lock:
                if key in self._records:
                    continue  # a steal/retry raced us; first result wins
                self._records[key] = record
                journal.append(key, record)
                point = assemble_point(
                    gt, lt, record, golden_checked=self.space.verify
                )
                self.frontier.add(point)
                self._completed += 1
                self._shard_points[shard] += 1
                completed = self._completed + self._resumed
                if self.live is not None:
                    self.live(completed, len(self.space), self.frontier, point)
                if self.stop_after is not None and self._completed >= self.stop_after:
                    self._stop.set()
            if self._stop.is_set() and (
                self.stop_after is not None and self._completed >= self.stop_after
            ):
                return

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def run(self) -> SpaceResult:
        with span(
            "explore/shards", shards=self.shards, points=len(self.space)
        ) as section:
            started = time.perf_counter()
            contexts = list(self.space.contexts())
            queues = self._build_units(contexts)
            journals = [
                ResultJournal(self.run_dir, shard=s) if self.run_dir is not None
                else _NullJournal()
                for s in range(self.effective_shards)
            ]
            threads = [
                threading.Thread(
                    target=self._run_shard,
                    args=(s, queues, journals[s]),
                    name=f"shard-{s}",
                    daemon=True,
                )
                for s in range(self.effective_shards)
            ]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    while thread.is_alive():
                        thread.join(timeout=0.2)
            except KeyboardInterrupt:
                self._interrupted = True
                self._stop.set()
                for thread in threads:
                    thread.join(timeout=5.0)
            finally:
                for journal in journals:
                    journal.close()
            wall = time.perf_counter() - started
            result = self._assemble(contexts)
            stopped = self._interrupted or (
                self.stop_after is not None and self._completed >= self.stop_after
            )
            result.complete = len(result.points) == len(self.space)
            if result.complete and self.run_dir is not None and not stopped:
                ResultJournal(self.run_dir).compact()
            result.stats.update(
                shards=self.shards,
                effective_shards=self.effective_shards,
                contexts=len(contexts),
                total_points=len(self.space),
                completed_points=self._completed,
                resumed_points=self._resumed,
                stolen_units=self._stolen,
                shard_points=list(self._shard_points),
                broken_pools=self._broken_pools,
                degraded_units=self._degraded,
                frontier_size=len(self.frontier),
                wall_time=wall,
            )
            if self._shard_errors:
                result.stats["shard_errors"] = list(self._shard_errors)
            if self._interrupted:
                result.stats["interrupted"] = True
            if stopped and not self._interrupted:
                result.stats["stopped_early"] = True
            section.attributes.update(
                completed=self._completed, stolen=self._stolen
            )
        return result

    def _assemble(self, contexts: Sequence[SpaceContext]) -> SpaceResult:
        """Canonical-order assembly: completion order never leaks into
        the report, which is what makes resumed runs byte-identical."""
        points: List[DesignPoint] = []
        documents: List[dict] = []
        for context in contexts:
            labels = context.labels()
            for gt in self.space.gt_subsets:
                for lt in self.space.lt_subsets:
                    record = self._records.get(
                        self.space.point_key(context, gt, tuple(lt))
                    )
                    if record is None:
                        continue  # interrupted before this point landed
                    point = assemble_point(
                        gt, tuple(lt), record, golden_checked=self.space.verify
                    )
                    points.append(point)
                    documents.append({**point.to_dict(), **labels})
        return SpaceResult(result=ExplorationResult(points=points), documents=documents)


class _NullJournal:
    """Journal stand-in for run_dir-less (in-memory) runs."""

    skipped_lines = 0

    def append(self, key: str, record: dict) -> None:
        pass

    def close(self) -> None:
        pass


def explore_space(space: ParameterSpace, **options) -> SpaceResult:
    """One-call front door: ``ShardRunner(space, **options).run()``."""
    return ShardRunner(space, **options).run()
