"""Resource-bounded list scheduling of the frontend IR.

In the style of polyphony's ``BlockBoundedListScheduler``: scheduling
never crosses a block boundary.  Each *run* — a maximal sequence of
straight-line ops between nested blocks — is scheduled independently
with a priority worklist:

1. build the run's dependence graph (read-after-write and
   write-after-write edges are *strict*: consumer starts at least one
   step after producer; write-after-read edges are *weak*: the
   overwrite may share the reader's step, since a datapath register
   presents its old value while the new one is latched);
2. derive each op's priority from its **ALAP slack** (longest-path
   ASAP/ALAP levels under unit latency) — zero-slack ops are on the
   run's critical path and are placed first;
3. walk control steps with a worklist: at each step, ready ops are
   placed in slack order onto the lowest-numbered free instance of
   their unit class until the per-class bound (``{"MUL": 2, "ALU": 1}``)
   is exhausted, then the step advances.

The result annotates every :class:`~repro.frontend.ir.KernelOp` with a
``(step, fu)`` pair.  Emission order inside a run is ``(step, program
index)``, which keeps the sequential semantics intact: strict edges
separate steps, and a weak (write-after-read) pair sharing a step keeps
its original reader-before-writer order via the index tie-break.

One exception to free instance choice: everything inside an if-block's
arms is pinned to a *single* instance (see :meth:`ListScheduler._if_host`)
— the distributed-control extraction requires the decision node and
all conditional ops on one controller, the way GCD binds the same
subtractor in both branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import FrontendError
from repro.frontend.ir import (
    DEFAULT_BOUNDS,
    IfBlock,
    Item,
    KernelIR,
    KernelOp,
    OPERATOR_CLASSES,
    WhileBlock,
    walk_ops,
)

#: Unit classes a bounds mapping may mention.
KNOWN_CLASSES: Tuple[str, ...] = tuple(sorted(set(OPERATOR_CLASSES.values())))


def normalize_bounds(bounds: Optional[Mapping[str, int]]) -> Dict[str, int]:
    """Validate and normalize a per-class resource-bound mapping."""
    normalized = dict(DEFAULT_BOUNDS)
    for name, count in (bounds or {}).items():
        cls = name.strip().upper()
        if cls not in KNOWN_CLASSES:
            raise FrontendError(
                f"unknown functional-unit class {name!r} in resource bounds "
                f"(known: {', '.join(KNOWN_CLASSES)})"
            )
        if not isinstance(count, int) or count < 1:
            raise FrontendError(
                f"resource bound for {cls} must be a positive integer, "
                f"got {count!r}"
            )
        normalized[cls] = count
    return normalized


@dataclass
class Schedule:
    """The kernel-wide scheduling result."""

    #: class -> instance names actually used, e.g. {"MUL": ("MUL1", "MUL2")}
    instances: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: per-run tables: list of (op, step, fu) in emission order
    runs: List[List[Tuple[KernelOp, int, str]]] = field(default_factory=list)

    def functional_units(self) -> Tuple[str, ...]:
        """All bound instance names, class-major, index-minor."""
        ordered: List[str] = []
        for cls in sorted(self.instances):
            ordered.extend(self.instances[cls])
        return tuple(ordered)


class ListScheduler:
    """ALAP-slack priority-worklist scheduler under per-class bounds."""

    def __init__(self, bounds: Optional[Mapping[str, int]] = None):
        self.bounds = normalize_bounds(bounds)
        self._used: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def schedule(self, ir: KernelIR) -> Schedule:
        """Annotate every op of ``ir`` with a ``(step, fu)`` assignment."""
        result = Schedule()
        self._used = {}
        self._schedule_items(ir.items, result)
        result.instances = {
            cls: tuple(f"{cls}{i}" for i in range(1, self._used[cls] + 1))
            for cls in sorted(self._used)
        }
        return result

    def _schedule_items(
        self,
        items: Sequence[Item],
        result: Schedule,
        pinned: Optional[str] = None,
    ) -> None:
        run: List[KernelOp] = []
        for item in items:
            if isinstance(item, KernelOp):
                run.append(item)
                continue
            if run:
                result.runs.append(self._schedule_run(run, pinned))
                run = []
            if isinstance(item, IfBlock):
                host = pinned or self._if_host(item)
                self._schedule_items(item.then_items, result, host)
                self._schedule_items(item.else_items, result, host)
            else:
                assert isinstance(item, WhileBlock)
                self._schedule_items(item.body, result, pinned)
        if run:
            result.runs.append(self._schedule_run(run, pinned))

    def _if_host(self, block: IfBlock) -> Optional[str]:
        """The single instance hosting an if-block's arms.

        The distributed-control extraction only supports conditionals
        in which the decision node and every conditional operation live
        on *one* controller (the GCD pattern: "the same subtractor unit
        bound in both branches").  A unit active in only one arm — or
        in an arm it does not host — cannot be written as a burst-mode
        machine: on the untaken path it would have to fire on an empty
        input burst.  So all ops of both arms (and any nested blocks)
        serialize onto instance 1 of the first arm op's class, and the
        emitter binds the IF/ENDIF nodes to the same instance.
        """
        ops = walk_ops(list(block.then_items) + list(block.else_items))
        if not ops:
            return None
        cls = ops[0].fu_class
        self._used[cls] = max(self._used.get(cls, 0), 1)
        return f"{cls}1"

    # ------------------------------------------------------------------
    def _schedule_run(
        self, ops: List[KernelOp], pinned: Optional[str] = None
    ) -> List[Tuple[KernelOp, int, str]]:
        strict, weak = _dependence_edges(ops)
        slack = _alap_slack(ops, strict, weak)

        placed: Dict[int, int] = {}  # local index -> step
        order = sorted(range(len(ops)), key=lambda i: (slack[i], ops[i].index))
        step = 0
        guard = 0
        while len(placed) < len(ops):
            busy: Dict[str, Set[int]] = {}  # class -> occupied instance numbers
            progress = True
            while progress:
                progress = False
                for i in order:
                    if i in placed:
                        continue
                    if not all(j in placed and placed[j] < step for j in strict[i]):
                        continue
                    if not all(j in placed for j in weak[i]):
                        continue
                    if pinned is not None:
                        # single-host conditional region: one op per step
                        occupied = busy.setdefault("__host__", set())
                        if occupied:
                            continue
                        occupied.add(1)
                        placed[i] = step
                        ops[i].step = step
                        ops[i].fu = pinned
                        progress = True
                        continue
                    cls = ops[i].fu_class
                    occupied = busy.setdefault(cls, set())
                    if len(occupied) >= self.bounds.get(cls, 1):
                        continue
                    instance = min(
                        n
                        for n in range(1, self.bounds.get(cls, 1) + 1)
                        if n not in occupied
                    )
                    occupied.add(instance)
                    placed[i] = step
                    ops[i].step = step
                    ops[i].fu = f"{cls}{instance}"
                    self._used[cls] = max(self._used.get(cls, 0), instance)
                    progress = True
            step += 1
            guard += 1
            if guard > 2 * len(ops) + 4:  # pragma: no cover - defensive
                raise FrontendError("list scheduler failed to converge")
        return [
            (op, op.step, op.fu)
            for op in sorted(ops, key=lambda op: (op.step, op.index))
        ]


def _dependence_edges(
    ops: List[KernelOp],
) -> Tuple[List[Set[int]], List[Set[int]]]:
    """Per-op strict (RAW/WAW) and weak (WAR) predecessor sets."""
    strict: List[Set[int]] = [set() for __ in ops]
    weak: List[Set[int]] = [set() for __ in ops]
    last_write: Dict[str, int] = {}
    readers: Dict[str, List[int]] = {}
    for i, op in enumerate(ops):
        statement = op.statement
        for register in sorted(statement.reads):
            if register in last_write:
                strict[i].add(last_write[register])
            readers.setdefault(register, []).append(i)
        dest = statement.dest
        for reader in readers.get(dest, ()):  # write-after-read
            if reader != i:
                weak[i].add(reader)
        if dest in last_write:  # write-after-write
            strict[i].add(last_write[dest])
        last_write[dest] = i
        readers[dest] = []
    return strict, weak


def _alap_slack(
    ops: List[KernelOp],
    strict: List[Set[int]],
    weak: List[Set[int]],
) -> List[int]:
    """ALAP - ASAP slack per op (unit latency, unbounded resources)."""
    count = len(ops)
    asap = [0] * count
    for i in range(count):  # predecessors always precede in program order
        for j in strict[i]:
            asap[i] = max(asap[i], asap[j] + 1)
        for j in weak[i]:
            asap[i] = max(asap[i], asap[j])
    depth = max(asap, default=0)
    alap = [depth] * count
    succs_strict: List[Set[int]] = [set() for __ in ops]
    succs_weak: List[Set[int]] = [set() for __ in ops]
    for i in range(count):
        for j in strict[i]:
            succs_strict[j].add(i)
        for j in weak[i]:
            succs_weak[j].add(i)
    for i in range(count - 1, -1, -1):
        for j in succs_strict[i]:
            alap[i] = min(alap[i], alap[j] - 1)
        for j in succs_weak[i]:
            alap[i] = min(alap[i], alap[j])
    return [alap[i] - asap[i] for i in range(count)]
