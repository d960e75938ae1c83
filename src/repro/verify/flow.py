"""Flow-equivalence proof engine for the GT/LT transform scripts.

The conformance fuzzer (:mod:`repro.verify.conformance`) samples delay
assignments; this module *proves* the property the samples probe:

    **flow equivalence** — for every register, the stream of values
    written to it is the same in the pre- and post-transform design
    under *any* assignment of operation delays (Paykin et al.,
    "Formal Verification of Flow Equivalence in Desynchronized
    Designs").

For the global transforms the proof is discharged symbolically over
the unfolded dependence relation.  A per-variable write stream can
only change if two conflicting accesses (write/write, or read/write
including LOOP/IF condition sampling) can be *reordered* by a delay
change, so each applied pass carries obligations:

``order``
    the pass's contract on the firing partial order
    (:func:`~repro.transforms.base.operation_order_pairs`): GT1/GT3
    may only relax it, GT2 must preserve it exactly, GT4/GT5 must
    preserve it modulo node merging.
``determinacy``
    every conflicting pair of unfolded operation copies is ordered by
    the constraint graph, mutually exclusive (opposite branches of one
    IF in the same iteration), or — for GT3 — ordered by a
    relative-timing witness.  For GT3 the removed timed arcs are
    restored on a scratch copy, so the obligation is exactly
    "determinacy modulo the timing certificates".
``timing-witnesses`` (GT3)
    the timing certificates themselves are *re-derived* here: the
    removal sequence is replayed from the pass's input graph through
    :func:`repro.timing.analysis.relative_arc_dominates` — the proof
    does not trust the pass's own analysis.
``occupancy`` (GT5)
    the channel plan covers every inter-FU arc and the merged wires
    are dynamically safe.
``streams``
    the nominal write streams agree (the determinacy obligations make
    the nominal schedule representative of *all* schedules).

A refuted obligation yields a concrete **counterexample schedule**
when one exists: a delay override / sampling seed under which the
post-transform design's write streams diverge from the specification.

For the local transforms and the :mod:`repro.afsm.minimize` quotient
pass the designs are burst-mode machines, so per-register streams
become per-observable event streams: the *stream language* of each
observable — every GLOBAL_READY wire (rise/fall events) and every
datapath action (the rising local request that triggers it, resolved
through LT5 wire merges) — must be preserved exactly.  Languages are
compared by epsilon-free subset construction: equal canonical subset
tables mean equal languages, and where the tables differ a
breadth-first product walk decides, yielding the shortest
distinguishing event word on a mismatch.

Every check emits a :class:`FlowProof` certificate; a workload-level
:class:`FlowReport` (``repro verify --proofs``) aggregates them and
replays deterministically byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import perf
from repro.afsm.machine import BurstModeMachine
from repro.afsm.signals import Signal, SignalKind
from repro.cache.fingerprint import fingerprint_cdfg
from repro.cdfg.arc import Arc, ArcRole, ArcTag
from repro.cdfg.graph import Cdfg
from repro.cdfg.kinds import NodeKind
from repro.errors import FlowRefutedError
from repro.local_transforms.base import LocalReport
from repro.obs.spans import span
from repro.sim.seeding import NOMINAL, SeedLike
from repro.sim.token_sim import simulate_tokens
from repro.timing.analysis import relative_arc_dominates
from repro.timing.delays import DelayModel
from repro.transforms.base import (
    TransformReport,
    _copy_id,
    check_precedence_preserved,
    operation_order_pairs,
)
from repro.transforms.unfold import Copy, cached_unfolded_reach

SCHEMA_PROOF = "flow-proof/v1"
SCHEMA_REPORT = "flow-report/v1"

#: delay overrides tried (per racing FU) when searching for a concrete
#: counterexample schedule, plus this many sampled seeds
_STRESS_INTERVALS = ((9.0, 9.0), (0.05, 0.05))
_COUNTEREXAMPLE_SEEDS = 8


# ----------------------------------------------------------------------
# content-keyed token simulations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TokenRun:
    """The parts of one token simulation the GT proofs read, frozen so
    a memoized run can be handed to any number of callers."""

    writes: Tuple[Tuple[str, float], ...]
    violations: Tuple[str, ...]

    def write_streams(self) -> Dict[str, List[float]]:
        """Per-variable value streams, in write order (a fresh dict)."""
        streams: Dict[str, List[float]] = {}
        for dest, value in self.writes:
            streams.setdefault(dest, []).append(value)
        return streams


def _content_fingerprint(cdfg: Cdfg) -> str:
    """``fingerprint_cdfg``, computed at most once per graph generation.

    The register values are not part of the generation count, so the
    memo entry also records them and is recomputed when they change.
    """
    values = (tuple(cdfg.inputs.items()), tuple(cdfg.initial_registers.items()))
    cache = cdfg.analysis_cache()
    entry = cache.get(("fingerprint_cdfg",))
    if entry is None or entry[0] != values:
        entry = cache[("fingerprint_cdfg",)] = (values, fingerprint_cdfg(cdfg))
    return entry[1]


class TokenRunMemo:
    """Token simulations of the GT proofs, keyed by content.

    A sweep proves every trie edge, and most of those proofs simulate a
    graph an earlier proof already simulated: each pass's ``before`` is
    its parent edge's ``after``, passes that change nothing reproduce
    their input, and GT5's occupancy NOMINAL run is its streams
    obligation's ``after`` run.  The key is content, never an object
    id: the graph's ``fingerprint_cdfg``, the delay tables
    (``DelayModel.cache_key``, what ``fingerprint_delays`` digests),
    the arc-to-channel map the simulator reads from the channel plan
    (or None) and the seed.  Equal graphs built by different paths
    share a run, and a graph mutated after its run (its generation
    advances) misses.

    Only runs that returned are kept; a run that raised is simulated
    again, so it raises again with the same message.  Unseeded runs
    (fresh entropy) and runs under :func:`repro.perf.caching_disabled`
    bypass the memo.  One memo lives as long as the oracle that owns
    it, i.e. one explorer or one proof driver, never a whole process.
    """

    def __init__(self) -> None:
        self._runs: Dict[tuple, TokenRun] = {}

    def run(
        self,
        cdfg: Cdfg,
        delays: Optional[DelayModel],
        seed: SeedLike,
        plan=None,
    ) -> TokenRun:
        """``simulate_tokens(cdfg, delays, seed, channel_plan=plan,
        strict=False)``, served from the memo when its inputs match."""
        key = None
        if seed is not None and perf.caching_enabled():
            key = (
                _content_fingerprint(cdfg),
                None if delays is None else delays.cache_key(),
                None if plan is None else frozenset(plan.arc_to_channel.items()),
                "nominal" if seed is NOMINAL else seed,
            )
            hit = self._runs.get(key)
            if hit is not None:
                return hit
        result = simulate_tokens(
            cdfg, delay_model=delays, seed=seed, channel_plan=plan, strict=False
        )
        run = TokenRun(tuple(result.writes), tuple(result.violations))
        if key is not None:
            self._runs[key] = run
        return run


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------
@dataclass
class FlowObligation:
    """One named proof obligation of one pass application."""

    name: str
    status: str  # "proved" | "refuted"
    detail: str = ""
    #: human-readable justifications (timing witnesses, restored arcs)
    witnesses: List[str] = field(default_factory=list)

    @property
    def proved(self) -> bool:
        return self.status == "proved"

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "witnesses": list(self.witnesses),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FlowObligation":
        return cls(
            name=str(payload["name"]),
            status=str(payload["status"]),
            detail=str(payload.get("detail", "")),
            witnesses=[str(w) for w in payload.get("witnesses", [])],
        )


@dataclass
class FlowProof:
    """Machine-checkable certificate for one pass application.

    ``stage`` is the pass (``GT1``..``LT5``) or a synthesis checkpoint
    (``extract``, ``design``, ``minimize``); ``subject`` is ``cdfg``
    for global stages and the machine's functional unit for local
    ones; ``index`` is the application order within its report.
    """

    stage: str
    subject: str
    index: int
    verdict: str  # "proved" | "refuted" | "no-op"
    obligations: List[FlowObligation] = field(default_factory=list)
    #: per-variable (or per-observable) stream signatures of the
    #: post-transform design under the NOMINAL schedule
    streams: Dict[str, Dict[str, object]] = field(default_factory=dict)
    counterexample: Optional[Dict[str, object]] = None

    @property
    def proved(self) -> bool:
        return self.verdict != "refuted"

    def refuted_obligations(self) -> List[FlowObligation]:
        return [o for o in self.obligations if not o.proved]

    def failure(self) -> str:
        """First refuted obligation rendered as ``name: detail``."""
        for obligation in self.obligations:
            if not obligation.proved:
                return f"{obligation.name}: {obligation.detail}"
        return ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_PROOF,
            "stage": self.stage,
            "subject": self.subject,
            "index": self.index,
            "verdict": self.verdict,
            "obligations": [o.to_dict() for o in self.obligations],
            "streams": {k: dict(v) for k, v in sorted(self.streams.items())},
            "counterexample": self.counterexample,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FlowProof":
        return cls(
            stage=str(payload["stage"]),
            subject=str(payload["subject"]),
            index=int(payload["index"]),
            verdict=str(payload["verdict"]),
            obligations=[FlowObligation.from_dict(o) for o in payload.get("obligations", [])],
            streams={str(k): dict(v) for k, v in payload.get("streams", {}).items()},
            counterexample=payload.get("counterexample"),
        )


@dataclass
class FlowReport:
    """All certificates of one end-to-end synthesis run."""

    workload: str
    params: Dict[str, object] = field(default_factory=dict)
    gts: Tuple[str, ...] = ()
    lts: Tuple[str, ...] = ()
    delay_overrides: Tuple[Tuple[str, Optional[str], Tuple[float, float]], ...] = ()
    minimize: bool = False
    proofs: List[FlowProof] = field(default_factory=list)
    error: str = ""

    @property
    def proved(self) -> bool:
        return not self.error and all(p.proved for p in self.proofs)

    def counterexamples(self) -> List[FlowProof]:
        return [p for p in self.proofs if p.counterexample is not None]

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_REPORT,
            "workload": self.workload,
            "params": dict(self.params),
            "gts": list(self.gts),
            "lts": list(self.lts),
            "delay_overrides": [
                [fu, operator, list(interval)]
                for fu, operator, interval in self.delay_overrides
            ],
            "minimize": self.minimize,
            "proved": self.proved,
            "error": self.error,
            "proofs": [p.to_dict() for p in self.proofs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FlowReport":
        return cls(
            workload=str(payload["workload"]),
            params=dict(payload.get("params", {})),
            gts=tuple(payload.get("gts", ())),
            lts=tuple(payload.get("lts", ())),
            delay_overrides=tuple(
                (fu, operator, tuple(interval))
                for fu, operator, interval in payload.get("delay_overrides", [])
            ),
            minimize=bool(payload.get("minimize", False)),
            proofs=[FlowProof.from_dict(p) for p in payload.get("proofs", [])],
            error=str(payload.get("error", "")),
        )

    def summary(self) -> str:
        proved = sum(1 for p in self.proofs if p.verdict == "proved")
        noop = sum(1 for p in self.proofs if p.verdict == "no-op")
        refuted = [p for p in self.proofs if not p.proved]
        parts = [
            f"{self.workload}: {proved} proved, {noop} no-op "
            f"of {len(self.proofs)} certificates"
        ]
        if self.error:
            parts.append(f"ERROR {self.error}")
        for proof in refuted:
            parts.append(f"REFUTED {proof.stage}[{proof.subject}]: {proof.failure()}")
        return "; ".join(parts)


def load_flow_report(path: str) -> FlowReport:
    with open(path, "r", encoding="utf-8") as handle:
        return FlowReport.from_dict(json.load(handle))


# ----------------------------------------------------------------------
# stream signatures
# ----------------------------------------------------------------------
def _stream_signature(streams: Dict[str, List[float]]) -> Dict[str, Dict[str, object]]:
    signature: Dict[str, Dict[str, object]] = {}
    for var, values in sorted(streams.items()):
        blob = json.dumps(values).encode("utf-8")
        signature[var] = {
            "digest": hashlib.blake2b(blob, digest_size=8).hexdigest(),
            "length": len(values),
        }
    return signature


def _first_stream_divergence(
    expected: Dict[str, List[float]], got: Dict[str, List[float]]
) -> Optional[Tuple[str, List[float], List[float]]]:
    for var in sorted(set(expected) | set(got)):
        want, have = expected.get(var, []), got.get(var, [])
        if want != have:
            return var, want, have
    return None


# ----------------------------------------------------------------------
# the unfolded conflict relation (global passes)
# ----------------------------------------------------------------------
def _branch_context(cdfg: Cdfg, name: str) -> Tuple[Tuple[str, str], ...]:
    """The (IF root, branch) pairs enclosing ``name``, innermost first."""
    context: List[Tuple[str, str]] = []
    current: Optional[str] = name
    while current is not None:
        parent = cdfg.block_of(current)
        if parent is None:
            break
        branch = cdfg.branch_of(current)
        if branch is not None and cdfg.node(parent).kind is NodeKind.IF:
            context.append((parent, branch))
        current = parent
    return tuple(context)


def _mutually_exclusive(cdfg: Cdfg, a: Copy, b: Copy) -> bool:
    """True when the two copies can never execute in the same run:
    same iteration, opposite branches of one shared IF."""
    if a[1] != b[1]:
        return False
    branches_a = dict(_branch_context(cdfg, a[0]))
    for root, branch in _branch_context(cdfg, b[0]):
        if root in branches_a and branches_a[root] != branch:
            return True
    return False


#: a race: (kind, variable, copy id, copy id) with the ids sorted
Race = Tuple[str, str, str, str]


def conflict_races(cdfg: Cdfg, unfold: int = 2) -> List[Race]:
    """Unordered conflicting access pairs over the unfolded graph.

    A conflict is two distinct node copies touching the same register
    where at least one writes; LOOP/IF nodes *read* their condition
    register.  A pair races when no constraint path orders it (either
    direction) and it is not branch-exclusive.  An empty result is the
    determinacy certificate: the nominal schedule's write streams are
    the streams of *every* schedule.
    """
    reach = cached_unfolded_reach(cdfg, unfold=unfold)
    writers: Dict[str, List[Copy]] = {}
    readers: Dict[str, List[Copy]] = {}
    for node in cdfg.nodes():
        if node.is_operation:
            written, read = node.writes, node.reads
        elif node.kind in (NodeKind.LOOP, NodeKind.IF):
            written, read = frozenset(), node.reads
        else:
            continue
        for copy in reach.copies(node.name):
            for var in written:
                writers.setdefault(var, []).append(copy)
            for var in read:
                readers.setdefault(var, []).append(copy)

    races: Set[Race] = set()

    def check(kind: str, var: str, a: Copy, b: Copy) -> None:
        if a == b:
            return
        if reach.path_exists(a, b) or reach.path_exists(b, a):
            return
        if _mutually_exclusive(cdfg, a, b):
            return
        first, second = sorted((_copy_id(a), _copy_id(b)))
        races.add((kind, var, first, second))

    for var, writes in writers.items():
        for i, a in enumerate(writes):
            for b in writes[i + 1 :]:
                check("write-write", var, a, b)
            for b in readers.get(var, []):
                check("read-write", var, a, b)
    return sorted(races)


def _merge_alias(after: Cdfg) -> Dict[str, str]:
    """Constituent name -> merged node name (GT4 renames)."""
    alias: Dict[str, str] = {}
    for node in after.operation_nodes():
        for part in node.name.split("; "):
            alias[part] = node.name
        alias[node.name] = node.name
    return alias


def _alias_race(alias: Dict[str, str], race: Race) -> Optional[Race]:
    kind, var, a_id, b_id = race
    mapped: List[str] = []
    for copy_id in (a_id, b_id):
        name, __, k = copy_id.partition("@")
        if name not in alias:
            return None  # node disappeared; nothing left to race
        mapped.append(alias[name] + (f"@{k}" if k else ""))
    if mapped[0] == mapped[1]:
        return None  # the pair collapsed into one node
    first, second = sorted(mapped)
    return (kind, var, first, second)


# ----------------------------------------------------------------------
# global-pass obligations
# ----------------------------------------------------------------------
def _obligation_order(
    report: TransformReport, before: Cdfg, after: Cdfg
) -> FlowObligation:
    name = report.name
    if name in ("GT1", "GT3"):
        extra = operation_order_pairs(after) - operation_order_pairs(before)
        if extra:
            return FlowObligation(
                "order",
                "refuted",
                f"{name} may only relax the firing order but introduced "
                f"{sorted(extra)[:3]}",
            )
        return FlowObligation("order", "proved", "after-order is a relaxation")
    if name == "GT2":
        if operation_order_pairs(before) != operation_order_pairs(after):
            return FlowObligation(
                "order", "refuted", "GT2 must preserve the firing order exactly"
            )
        return FlowObligation("order", "proved", "firing order is identical")
    missing = check_precedence_preserved(before, after, allow_missing=True)
    if missing:
        return FlowObligation(
            "order",
            "refuted",
            f"{name} lost ordering for {len(missing)} pairs, e.g. {missing[:3]}",
        )
    return FlowObligation("order", "proved", "all orderings preserved modulo merging")


def _obligation_determinacy(
    report: TransformReport, before: Cdfg, after: Cdfg
) -> Tuple[FlowObligation, Optional[Race]]:
    """Conflicting accesses stay ordered/exclusive; GT3's removed timed
    arcs are restored on a scratch copy first (their justification is
    checked separately by the ``timing-witnesses`` obligation)."""
    witnesses: List[str] = []
    graph = after
    if report.name == "GT3":
        graph = after.copy()
        for record in report.provenance:
            if record.kind != "timed-arc-removed":
                continue
            src, dst = str(record.detail["src"]), str(record.detail["dst"])
            if graph.has_node(src) and graph.has_node(dst) and not graph.has_arc(src, dst):
                graph.add_arc(Arc(src, dst, tags=frozenset({ArcTag(ArcRole.DATA)})))
                witnesses.append(f"restored timed arc {src} -> {dst}")

    alias = _merge_alias(after)
    known = set()
    for race in conflict_races(before):
        mapped = _alias_race(alias, race)
        if mapped is not None:
            known.add(mapped)
    new = [race for race in conflict_races(graph) if race not in known]
    if new:
        kind, var, a_id, b_id = new[0]
        return (
            FlowObligation(
                "determinacy",
                "refuted",
                f"unordered {kind} conflict on {var!r}: {a_id} vs {b_id} "
                f"({len(new)} racing pairs)",
                witnesses,
            ),
            new[0],
        )
    detail = "every conflicting access pair is ordered or branch-exclusive"
    if witnesses:
        detail += " (modulo the GT3 timing certificates)"
    return FlowObligation("determinacy", "proved", detail, witnesses), None


def _obligation_gt3_witnesses(
    report: TransformReport, before: Cdfg, delays: Optional[DelayModel]
) -> FlowObligation:
    """Replay GT3's removal sequence, re-deriving every timing proof."""
    working = before.copy()
    witnesses: List[str] = []
    for record in report.provenance:
        if record.kind != "timed-arc-removed":
            continue
        src, dst = str(record.detail["src"]), str(record.detail["dst"])
        witness_text = str(record.detail.get("witness", ""))
        wsrc, __, wdst = witness_text.partition(" -> ")
        try:
            candidate = working.arc(src, dst)
            witness = working.arc(wsrc, wdst)
        except Exception as exc:  # noqa: BLE001 — malformed provenance is a refutation
            return FlowObligation(
                "timing-witnesses",
                "refuted",
                f"cannot replay removal of {src} -> {dst}: {exc}",
                witnesses,
            )
        try:
            dominated = relative_arc_dominates(working, candidate, witness, delays=delays)
        except Exception as exc:  # noqa: BLE001
            dominated = False
            reason = f"timing analysis failed: {exc}"
        else:
            reason = "witness does not provably arrive last"
        if not dominated:
            return FlowObligation(
                "timing-witnesses",
                "refuted",
                f"removal of {src} -> {dst} unjustified: {reason} "
                f"(claimed witness {witness_text})",
                witnesses,
            )
        witnesses.append(
            f"{src} -> {dst} never last: witness {witness_text} dominates"
        )
        working.remove_arc(src, dst)
    return FlowObligation(
        "timing-witnesses",
        "proved",
        f"re-derived {len(witnesses)} relative-timing certificates",
        witnesses,
    )


def _plan_coverage_failure(report: TransformReport, after: Cdfg) -> Optional[str]:
    """Why GT5's channel plan fails to cover every inter-FU arc of
    ``after``, or None when it covers them all."""
    plan = report.artifacts.get("channel_plan")
    if plan is None:
        return "GT5 emitted no channel plan"
    uncovered = [
        arc.key for arc in after.inter_fu_arcs() if arc.key not in plan.arc_to_channel
    ]
    if uncovered:
        return f"plan leaves arcs unchanneled: {uncovered[:3]}"
    return None


def _obligation_occupancy(
    report: TransformReport,
    after: Cdfg,
    delays: Optional[DelayModel],
    memo: TokenRunMemo,
) -> FlowObligation:
    failure = _plan_coverage_failure(report, after)
    if failure is not None:
        return FlowObligation("occupancy", "refuted", failure)
    plan = report.artifacts["channel_plan"]
    for seed in (NOMINAL, 0, 1):
        try:
            result = memo.run(after, delays, seed, plan)
        except Exception as exc:  # noqa: BLE001
            return FlowObligation(
                "occupancy", "refuted", f"simulation under plan failed (seed {seed!r}): {exc}"
            )
        if result.violations:
            return FlowObligation(
                "occupancy",
                "refuted",
                f"merged-channel safety violated (seed {seed!r}): {result.violations[0]}",
            )
    return FlowObligation(
        "occupancy", "proved", "plan covers all inter-FU arcs; merged wires safe"
    )


def _schedule_counterexample(
    before: Cdfg,
    after: Cdfg,
    delays: Optional[DelayModel],
    plan,
    racing: Optional[Race],
    memo: TokenRunMemo,
) -> Dict[str, object]:
    """Search for a concrete schedule separating the two designs.

    The specification is the pre-transform design's nominal write
    streams (flow equivalence makes them schedule-independent).  The
    search stresses the racing nodes' functional units to both delay
    extremes, then falls back to sampled seeds; every trial is
    deterministic, so the counterexample replays exactly.
    """
    base = delays or DelayModel()
    spec = memo.run(before, delays, NOMINAL).write_streams()

    trials: List[Tuple[str, DelayModel, object]] = []
    if racing is not None:
        units: List[str] = []
        for copy_id in racing[2:]:
            name = copy_id.partition("@")[0]
            if after.has_node(name):
                fu = after.fu_of(name)
                if fu and fu not in units:
                    units.append(fu)
        for fu in units:
            for interval in _STRESS_INTERVALS:
                trials.append(
                    (
                        f"override {fu} delay to {list(interval)}",
                        base.with_override(fu, None, interval),
                        NOMINAL,
                    )
                )
    for seed in range(_COUNTEREXAMPLE_SEEDS):
        trials.append((f"sampled delays, seed {seed}", base, seed))

    for description, model, seed in trials:
        try:
            result = memo.run(after, model, seed, plan)
        except Exception as exc:  # noqa: BLE001 — a crash is itself a witness
            return {
                "kind": "schedule",
                "description": description,
                "seed": None if seed is NOMINAL else seed,
                "effect": f"simulation failed: {exc}",
            }
        divergence = _first_stream_divergence(spec, result.write_streams())
        if divergence is not None:
            var, want, have = divergence
            return {
                "kind": "schedule",
                "description": description,
                "seed": None if seed is NOMINAL else seed,
                "variable": var,
                "expected_stream": want,
                "observed_stream": have,
            }
        if result.violations:
            return {
                "kind": "schedule",
                "description": description,
                "seed": None if seed is NOMINAL else seed,
                "effect": f"channel safety: {result.violations[0]}",
            }
    payload: Dict[str, object] = {
        "kind": "potential-race",
        "note": "no separating schedule found within the search budget",
    }
    if racing is not None:
        payload["pair"] = list(racing)
    return payload


def check_global_flow(
    report: TransformReport,
    before: Cdfg,
    after: Cdfg,
    delays: Optional[DelayModel] = None,
    index: int = 0,
    memo: Optional[TokenRunMemo] = None,
) -> FlowProof:
    """Discharge the flow-equivalence obligations of one GT pass.

    ``memo`` shares token simulations with the other proofs of the
    same sweep (see :class:`TokenRunMemo`); without one, the proof's
    own runs are still shared among its obligations.
    """
    if not report.applied:
        return FlowProof(report.name, "cdfg", index, "no-op")
    if memo is None:
        memo = TokenRunMemo()

    plan = report.artifacts.get("channel_plan")
    obligations = [_obligation_order(report, before, after)]
    determinacy, racing = _obligation_determinacy(report, before, after)
    obligations.append(determinacy)
    if report.name == "GT3":
        obligations.append(_obligation_gt3_witnesses(report, before, delays))
    if report.name == "GT5":
        obligations.append(_obligation_occupancy(report, after, delays, memo))

    spec = memo.run(before, delays, NOMINAL).write_streams()
    nominal_counterexample: Optional[Dict[str, object]] = None
    try:
        result = memo.run(after, delays, NOMINAL, plan)
    except Exception as exc:  # noqa: BLE001 — a stuck design refutes the pass
        got: Dict[str, List[float]] = {}
        divergence = None
        obligations.append(
            FlowObligation(
                "streams", "refuted", f"nominal simulation failed: {exc}"
            )
        )
        nominal_counterexample = {
            "kind": "schedule",
            "description": "nominal delays",
            "seed": None,
            "effect": f"simulation failed: {type(exc).__name__}: {exc}",
        }
    else:
        got = result.write_streams()
        divergence = _first_stream_divergence(spec, got)
    if nominal_counterexample is not None:
        pass
    elif divergence is not None:
        var, want, have = divergence
        obligations.append(
            FlowObligation(
                "streams",
                "refuted",
                f"nominal write stream of {var!r} changed: {want} -> {have}",
            )
        )
        nominal_counterexample = {
            "kind": "schedule",
            "description": "nominal delays",
            "seed": None,
            "variable": var,
            "expected_stream": want,
            "observed_stream": have,
        }
    else:
        obligations.append(
            FlowObligation(
                "streams",
                "proved",
                f"nominal write streams identical over {len(spec)} registers",
            )
        )

    counterexample = None
    if any(not o.proved for o in obligations):
        counterexample = nominal_counterexample or _schedule_counterexample(
            before, after, delays, plan, racing, memo
        )
    verdict = "refuted" if counterexample is not None or any(
        not o.proved for o in obligations
    ) else "proved"
    return FlowProof(
        report.name,
        "cdfg",
        index,
        verdict,
        obligations,
        _stream_signature(got),
        counterexample,
    )


# ----------------------------------------------------------------------
# observable stream languages (local passes + minimization)
# ----------------------------------------------------------------------
#: an observable: ("wire", name) or ("act",) + flattened action tuple
Observable = Tuple


def _observable_key(observable: Observable) -> str:
    if observable[0] == "wire":
        return f"wire:{observable[1]}"
    return "act:" + ":".join(str(part) for part in observable[1])


def _flatten_actions(signal: Signal) -> Tuple:
    if signal.action is None:
        return ()
    if signal.action[0] == "multi":
        return tuple(signal.action[1])
    return (signal.action,)


def machine_observables(machine: BurstModeMachine) -> Set[Observable]:
    """The externally visible alphabet of one controller: its
    GLOBAL_READY wires and the datapath actions its local requests
    trigger (stable across LT5 wire merges)."""
    observables: Set[Observable] = set()
    for signal in machine.signals():
        if signal.kind is SignalKind.GLOBAL_READY:
            observables.add(("wire", signal.name))
        for action in _flatten_actions(signal):
            observables.add(("act", action))
    return observables


class _Projection:
    """One machine projected onto one observable: an NFA whose
    non-event transitions are epsilon moves, determinized lazily.

    The tau-successor and ``(state, symbol)`` move lists are built once
    from the machine's :class:`MachineIndex`, and ``closure``/``step``
    are memoized per state set, so the counterexample walk and the
    signature share one subset construction."""

    def __init__(
        self,
        index: "MachineIndex",
        events: Sequence[Tuple[int, str, str, str]],
    ):
        hidden = {position for position, _, _, _ in events}
        # states without an observed transition share the index's lists
        self._tau: Dict[str, List[str]] = dict(index.targets)
        #: symbol -> state -> targets of its transitions showing symbol
        self._moves: Dict[str, Dict[str, List[str]]] = {}
        for _, src, dst, symbol in events:
            self._tau[src] = [
                target
                for position, target in index.successors[src]
                if position not in hidden
            ]
            self._moves.setdefault(symbol, {}).setdefault(src, []).append(dst)
        self._closures: Dict[FrozenSet[str], FrozenSet[str]] = {}
        self._steps: Dict[Tuple[FrozenSet[str], str], FrozenSet[str]] = {}
        self.initial = self.closure(frozenset((index.initial_state,)))

    def closure(self, states: FrozenSet[str]) -> FrozenSet[str]:
        closed = self._closures.get(states)
        if closed is None:
            tau = self._tau
            seen = set(states)
            stack = list(states)
            while stack:
                for dst in tau.get(stack.pop(), ()):
                    if dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
            closed = self._closures[states] = frozenset(seen)
        return closed

    def step(self, states: FrozenSet[str], symbol: str) -> FrozenSet[str]:
        key = (states, symbol)
        after = self._steps.get(key)
        if after is None:
            moves = self._moves.get(symbol, {})
            targets: Set[str] = set()
            for state in moves.keys() & states:
                targets.update(moves[state])
            after = self._steps[key] = self.closure(frozenset(targets))
        return after


_ALPHABET: Dict[str, Tuple[str, ...]] = {"wire": ("+", "-"), "act": ("!",)}

#: a canonical subset-construction table: row ``i`` holds, per alphabet
#: symbol, the number of the subset reached from subset ``i`` (-1 for
#: the empty subset); subsets are numbered in discovery order
Table = Tuple[Tuple[int, ...], ...]


def _subset_table(projection: _Projection, alphabet: Sequence[str]) -> Table:
    numbering: Dict[FrozenSet[str], int] = {projection.initial: 0}
    queue: List[FrozenSet[str]] = [projection.initial]
    rows: List[Tuple[int, ...]] = []
    for subset in queue:  # grows as new subsets are numbered
        row: List[int] = []
        for symbol in alphabet:
            target = projection.step(subset, symbol)
            if not target:
                row.append(-1)
                continue
            number = numbering.get(target)
            if number is None:
                number = numbering[target] = len(queue)
                queue.append(target)
            row.append(number)
        rows.append(tuple(row))
    return tuple(rows)


class MachineIndex:
    """One machine's transitions indexed once for the stream-language
    checks, with one memoized :class:`_Projection` per observable.

    Wire observables see their rises/falls in either burst (the last
    edge on the wire wins, input burst before output burst); action
    observables see the rising local request that launches them.
    Falling local edges and acknowledgments are unobservable — that is
    exactly the freedom LT1–LT4 exploit.

    The index is a snapshot of one generation of the machine.  Get it
    through :meth:`of`, which memoizes it in the machine's
    :meth:`~repro.afsm.machine.BurstModeMachine.analysis_cache`: any
    edit of the machine advances its generation and drops the index,
    and a copy of the machine carries it, because the copy has the same
    content.  Each observable's canonical subset table is memoized too
    (:meth:`table`).
    """

    @classmethod
    def of(cls, machine: BurstModeMachine) -> "MachineIndex":
        """The index of ``machine``'s current generation, built once."""
        if not perf.caching_enabled():
            return cls(machine)
        cache = machine.analysis_cache()
        index = cache.get(("MachineIndex",))
        if index is None:
            index = cache[("MachineIndex",)] = cls(machine)
        return index

    def __init__(self, machine: BurstModeMachine):
        self.initial_state = machine.initial_state
        self.observables = machine_observables(machine)
        #: state -> ``(position, dst)`` of its outgoing transitions
        self.successors: Dict[str, List[Tuple[int, str]]] = {}
        #: state -> dst of its outgoing transitions
        self.targets: Dict[str, List[str]] = {}
        #: observable -> ``(position, src, dst, symbol)`` of every
        #: transition on which it is seen
        self._events: Dict[Observable, List[Tuple[int, str, str, str]]] = {}
        #: ``(signal, rising)`` GLOBAL_READY edges of the (input, output) bursts
        self.global_edges: Tuple[Set[Tuple[str, bool]], Set[Tuple[str, bool]]] = (
            set(),
            set(),
        )
        self.actions: Set[tuple] = set()
        #: signal name -> (GLOBAL_READY?, actions its rising edge launches)
        declared = {
            signal.name: (signal.kind is SignalKind.GLOBAL_READY, _flatten_actions(signal))
            for signal in machine.signals()
        }
        for position, transition in enumerate(machine.transitions()):
            src, dst = transition.src, transition.dst
            self.successors.setdefault(src, []).append((position, dst))
            self.targets.setdefault(src, []).append(dst)
            wires: Dict[str, str] = {}
            launched: Set[tuple] = set()
            for outputs, burst in (
                (False, transition.input_burst),
                (True, transition.output_burst),
            ):
                for edge in burst.edges:
                    wires[edge.signal] = "+" if edge.rising else "-"
                    kind = declared.get(edge.signal)
                    if kind is None:  # undeclared wire
                        continue
                    if kind[0]:
                        self.global_edges[outputs].add((edge.signal, edge.rising))
                    if outputs and edge.rising:
                        launched.update(kind[1])
            for name, symbol in wires.items():
                self._events.setdefault(("wire", name), []).append(
                    (position, src, dst, symbol)
                )
            for action in launched:
                self._events.setdefault(("act", action), []).append(
                    (position, src, dst, "!")
                )
            self.actions |= launched
        self._projections: Dict[Observable, _Projection] = {}
        self._tables: Dict[Observable, Table] = {}

    def projection(self, observable: Observable) -> _Projection:
        projection = self._projections.get(observable)
        if projection is None:
            projection = self._projections[observable] = _Projection(
                self, self._events.get(observable, ())
            )
        return projection

    def same_graph(self, other: "MachineIndex") -> bool:
        """Whether ``other`` has the same initial state and successor
        lists: then an observable's projection depends only on its
        events."""
        return (
            self.initial_state == other.initial_state
            and self.successors == other.successors
        )

    def table(
        self, observable: Observable, like: Optional["MachineIndex"] = None
    ) -> Table:
        """The canonical subset table of ``observable``'s projection.

        ``like``, when given, must satisfy :meth:`same_graph`; the table
        is then taken over from ``like`` wherever the observable's events
        are equal too, because both projections are the same NFA."""
        table = self._tables.get(observable)
        if table is None:
            if like is not None and self._events.get(observable) == like._events.get(
                observable
            ):
                table = like.table(observable)
            else:
                table = _subset_table(
                    self.projection(observable), _ALPHABET[observable[0]]
                )
            self._tables[observable] = table
        return table

    def signature(self) -> Dict[str, Dict[str, object]]:
        """:func:`observable_signature` of every observable of the machine."""
        return {
            _observable_key(observable): observable_signature(self, observable)
            for observable in sorted(self.observables, key=_observable_key)
        }


def stream_language_counterexample(
    before: MachineIndex, after: MachineIndex, observable: Observable
) -> Optional[List[str]]:
    """Shortest event word separating the two machines' projected
    stream languages, or None when the languages are equal."""
    alphabet = _ALPHABET[observable[0]]
    proj_a = before.projection(observable)
    proj_b = after.projection(observable)
    start = (proj_a.initial, proj_b.initial)
    queue = deque([(start[0], start[1], [])])
    seen = {start}
    while queue:
        set_a, set_b, word = queue.popleft()
        for symbol in alphabet:
            next_a = proj_a.step(set_a, symbol)
            next_b = proj_b.step(set_b, symbol)
            if bool(next_a) != bool(next_b):
                return word + [symbol]
            if not next_a:
                continue
            pair = (next_a, next_b)
            if pair not in seen:
                seen.add(pair)
                queue.append((next_a, next_b, word + [symbol]))
    return None


def observable_signature(
    index: MachineIndex, observable: Observable
) -> Dict[str, object]:
    """Canonical DFA fingerprint of one observable's stream language:
    a digest of its :meth:`MachineIndex.table`."""
    table = index.table(observable)
    blob = json.dumps(table).encode("utf-8")
    return {
        "digest": hashlib.blake2b(blob, digest_size=8).hexdigest(),
        "length": len(table),
    }


def machine_flow_obligations(
    before: BurstModeMachine, after: BurstModeMachine
) -> Tuple[
    List[FlowObligation], Optional[Dict[str, object]], Dict[str, Dict[str, object]]
]:
    """The machine-level flow obligations shared by the LT checks and
    the minimization gate; returns (obligations, counterexample,
    signature of ``after``).  Each machine's index is memoized in the
    machine (:meth:`MachineIndex.of`), so along an LT chain pass k's
    ``after`` index serves as pass k+1's ``before``."""
    obligations: List[FlowObligation] = []
    counterexample: Optional[Dict[str, object]] = None
    old_index = MachineIndex.of(before)
    new_index = MachineIndex.of(after)

    mismatched: List[str] = []
    for outputs in (True, False):
        direction = "output" if outputs else "input"
        old = old_index.global_edges[outputs]
        new = new_index.global_edges[outputs]
        if old != new:
            mismatched.append(
                f"{direction} edges {sorted(old - new)} lost, {sorted(new - old)} gained"
            )
    if mismatched:
        obligations.append(
            FlowObligation("handshake", "refuted", "; ".join(mismatched))
        )
    else:
        obligations.append(
            FlowObligation("handshake", "proved", "global handshake edges preserved")
        )

    observables = sorted(
        old_index.observables | new_index.observables, key=_observable_key
    )
    separated: Optional[Tuple[Observable, List[str]]] = None
    like = old_index if new_index.same_graph(old_index) else None
    for observable in observables:
        # equal tables of these prefix-closed subset DFAs mean equal
        # stream languages; only differing tables need the product walk
        if new_index.table(observable, like) == old_index.table(observable):
            continue
        word = stream_language_counterexample(old_index, new_index, observable)
        if word is not None:
            separated = (observable, word)
            break
    if separated is not None:
        observable, word = separated
        obligations.append(
            FlowObligation(
                "streams",
                "refuted",
                f"observable {_observable_key(observable)} separated by "
                f"event word {''.join(word)!r}",
            )
        )
        counterexample = {
            "kind": "distinguishing-word",
            "observable": _observable_key(observable),
            "word": word,
        }
    else:
        obligations.append(
            FlowObligation(
                "streams",
                "proved",
                f"stream languages equal over {len(observables)} observables",
            )
        )

    old_actions = old_index.actions
    new_actions = new_index.actions
    if old_actions != new_actions:
        obligations.append(
            FlowObligation(
                "actions",
                "refuted",
                f"datapath actions changed: -{sorted(old_actions - new_actions)} "
                f"+{sorted(new_actions - old_actions)}",
            )
        )
    else:
        obligations.append(
            FlowObligation(
                "actions", "proved", f"{len(old_actions)} datapath actions preserved"
            )
        )
    return obligations, counterexample, new_index.signature()


def check_local_flow(
    report: LocalReport,
    before: BurstModeMachine,
    after: BurstModeMachine,
    index: int = 0,
) -> FlowProof:
    """Discharge the flow-equivalence obligations of one LT pass on one
    machine: the observable stream languages must be preserved."""
    if not report.applied:
        return FlowProof(report.name, report.machine, index, "no-op")
    obligations, counterexample, signature = machine_flow_obligations(before, after)
    verdict = "refuted" if any(not o.proved for o in obligations) else "proved"
    return FlowProof(
        report.name,
        report.machine,
        index,
        verdict,
        obligations,
        signature,
        counterexample,
    )


# ----------------------------------------------------------------------
# oracle adapters (optimize_global / optimize_local hooks)
# ----------------------------------------------------------------------
def make_flow_global_oracle(
    delays: Optional[DelayModel] = None,
    collect: Optional[List[FlowProof]] = None,
    strict: bool = True,
):
    """Per-GT flow-proof oracle for :func:`optimize_global`.

    Appends every certificate to ``collect``; with ``strict`` a
    refuted proof raises :class:`FlowRefutedError` (message prefix
    ``flow[GTn]:``) aborting the script, otherwise refutations are
    only collected.  Each check runs in a ``proof/global/<GTn>`` span.
    The oracle owns one :class:`TokenRunMemo`, so its proofs share
    token simulations for as long as the oracle lives.
    """
    proofs = collect if collect is not None else []
    memo = TokenRunMemo()

    def oracle(report: TransformReport, before: Cdfg, after: Cdfg) -> None:
        with span(f"proof/global/{report.name}"):
            proof = check_global_flow(
                report, before, after, delays=delays, index=len(proofs), memo=memo
            )
        proofs.append(proof)
        if strict and not proof.proved:
            raise FlowRefutedError(f"flow[{report.name}]: {proof.failure()}")

    return oracle


def make_flow_local_oracle(
    collect: Optional[List[FlowProof]] = None, strict: bool = True
):
    """Per-LT flow-proof oracle for :func:`optimize_local` (message
    prefix ``flow[LTn]:`` on refutation); each check runs in a
    ``proof/local/<LTn>`` span tagged with the machine."""
    proofs = collect if collect is not None else []

    def oracle(
        report: LocalReport, before: BurstModeMachine, after: BurstModeMachine
    ) -> None:
        with span(f"proof/local/{report.name}", machine=report.machine):
            proof = check_local_flow(report, before, after, index=len(proofs))
        proofs.append(proof)
        if strict and not proof.proved:
            raise FlowRefutedError(
                f"flow[{report.name}]: machine {report.machine}: {proof.failure()}"
            )

    return oracle


def compose_local_oracles(*oracles):
    """One LT oracle running each given oracle in turn (None skipped)."""
    active = [oracle for oracle in oracles if oracle is not None]

    def oracle(
        report: LocalReport, before: BurstModeMachine, after: BurstModeMachine
    ) -> None:
        for check in active:
            check(report, before, after)

    return oracle


# ----------------------------------------------------------------------
# workload-level driver
# ----------------------------------------------------------------------
#: sampled delay seeds for the checkpoint ``schedules`` obligation —
#: delay-dependent divergences the NOMINAL schedule cannot expose
#: (e.g. a lost inter-FU synchronization after an unsound merge)
_CHECKPOINT_SEEDS = (0, 1, 2, 3)


def _checkpoint_proof(
    stage: str,
    index: int,
    golden: Dict[str, float],
    token_streams: Dict[str, List[float]],
    system_result,
    design=None,
    delays: Optional[DelayModel] = None,
) -> FlowProof:
    """Certify one synthesized design against the token-level streams
    and the golden reference (``extract`` and ``design`` stages)."""
    obligations: List[FlowObligation] = []
    counterexample: Optional[Dict[str, object]] = None

    system_streams = system_result.write_streams()
    divergence = _first_stream_divergence(token_streams, system_streams)
    if divergence is not None:
        var, want, have = divergence
        obligations.append(
            FlowObligation(
                "streams",
                "refuted",
                f"system write stream of {var!r} diverges from the token "
                f"semantics: {want} -> {have}",
            )
        )
        counterexample = {
            "kind": "schedule",
            "description": "nominal delays",
            "seed": None,
            "variable": var,
            "expected_stream": want,
            "observed_stream": have,
        }
    else:
        obligations.append(
            FlowObligation(
                "streams",
                "proved",
                f"system write streams match the token semantics over "
                f"{len(token_streams)} registers",
            )
        )

    wrong = [
        name
        for name, value in sorted(golden.items())
        if system_result.registers.get(name) != value
    ]
    if wrong:
        name = wrong[0]
        obligations.append(
            FlowObligation(
                "registers",
                "refuted",
                f"final register {name!r}: got "
                f"{system_result.registers.get(name)!r}, golden says {golden[name]!r}",
            )
        )
    else:
        obligations.append(
            FlowObligation(
                "registers", "proved", f"{len(golden)} final registers match the golden model"
            )
        )

    problems = list(system_result.violations) + list(
        getattr(system_result, "hazards", [])
    )
    if problems:
        obligations.append(
            FlowObligation("safety", "refuted", f"runtime problem: {problems[0]}")
        )
    else:
        obligations.append(
            FlowObligation("safety", "proved", "no channel violations or datapath hazards")
        )

    if design is not None:
        from repro.sim.system import simulate_system

        failure = None
        for seed in _CHECKPOINT_SEEDS:
            try:
                sampled = simulate_system(design, delays=delays, seed=seed, strict=False)
            except Exception as exc:  # noqa: BLE001 — a stuck schedule refutes
                failure = (seed, None, f"simulation failed: {type(exc).__name__}: {exc}")
                break
            wrong_seeded = [
                name
                for name, value in sorted(golden.items())
                if sampled.registers.get(name) != value
            ]
            if wrong_seeded:
                name = wrong_seeded[0]
                failure = (
                    seed,
                    name,
                    f"register {name!r}: got {sampled.registers.get(name)!r}, "
                    f"golden says {golden[name]!r}",
                )
                break
            if sampled.violations:
                failure = (seed, None, f"violation: {sampled.violations[0]}")
                break
        if failure is not None:
            seed, variable, detail = failure
            obligations.append(
                FlowObligation(
                    "schedules", "refuted", f"under delay seed {seed}: {detail}"
                )
            )
            if counterexample is None:
                counterexample = {
                    "kind": "schedule",
                    "description": "sampled delays",
                    "seed": seed,
                    "variable": variable,
                    "effect": detail,
                }
        else:
            obligations.append(
                FlowObligation(
                    "schedules",
                    "proved",
                    f"register file matches the golden model under "
                    f"{len(_CHECKPOINT_SEEDS)} sampled delay schedules",
                )
            )

    verdict = "refuted" if any(not o.proved for o in obligations) else "proved"
    return FlowProof(
        stage,
        "system",
        index,
        verdict,
        obligations,
        _stream_signature(system_streams),
        counterexample,
    )


def prove_workload(
    workload: str,
    gts: Sequence[str] = None,
    lts: Sequence[str] = None,
    delays: Optional[DelayModel] = None,
    delay_overrides: Sequence = (),
    params: Optional[Dict[str, object]] = None,
    minimize: bool = False,
) -> FlowReport:
    """Synthesize ``workload`` end to end, certifying every pass.

    Returns a :class:`FlowReport` with one :class:`FlowProof` per GT/LT
    application plus ``extract``/``design`` checkpoints (and
    ``minimize`` certificates when requested).  Never raises: synthesis
    failures land in ``report.error`` and refutations in the proofs.
    """
    from repro.afsm.extract import extract_controllers
    from repro.channels import derive_channels
    from repro.local_transforms import optimize_local
    from repro.local_transforms.scripts import STANDARD_LOCAL_SEQUENCE
    from repro.sim.system import simulate_system
    from repro.transforms import optimize_global
    from repro.transforms.scripts import STANDARD_SEQUENCE
    from repro.workloads import build_workload, golden_reference

    gts = tuple(STANDARD_SEQUENCE) if gts is None else tuple(
        name for name in STANDARD_SEQUENCE if name in set(gts)
    )
    lts = tuple(STANDARD_LOCAL_SEQUENCE) if lts is None else tuple(
        name for name in STANDARD_LOCAL_SEQUENCE if name in set(lts)
    )
    params = dict(params or {})
    overrides = tuple(
        (fu, operator, tuple(interval)) for fu, operator, interval in delay_overrides
    )
    if delays is None and overrides:
        delays = DelayModel()
        for fu, operator, interval in overrides:
            delays = delays.with_override(fu, operator, interval)

    report = FlowReport(
        workload=workload,
        params=params,
        gts=gts,
        lts=lts,
        delay_overrides=overrides,
        minimize=minimize,
    )
    try:
        golden = golden_reference(workload, **params)
        cdfg = build_workload(workload, **params)

        plan = None
        final_cdfg = cdfg
        if gts:
            optimized = optimize_global(
                cdfg,
                enabled=gts,
                delays=delays,
                oracle=make_flow_global_oracle(
                    delays=delays, collect=report.proofs, strict=False
                ),
            )
            final_cdfg, plan = optimized.cdfg, optimized.plan
        if plan is None:
            plan = derive_channels(final_cdfg)

        token_streams = simulate_tokens(
            final_cdfg, delay_model=delays, seed=NOMINAL, strict=False, channel_plan=plan
        ).write_streams()

        design = extract_controllers(final_cdfg, plan)
        extracted = simulate_system(design, delays=delays, seed=NOMINAL, strict=False)
        report.proofs.append(
            _checkpoint_proof(
                "extract",
                len(report.proofs),
                golden,
                token_streams,
                extracted,
                design=design,
                delays=delays,
            )
        )

        if lts:
            design = optimize_local(
                design,
                enabled=lts,
                oracle=make_flow_local_oracle(collect=report.proofs, strict=False),
            ).design

        if minimize:
            from repro.afsm.minimize import minimize_design

            design, __, minimize_proofs = minimize_design(design)
            for proof in minimize_proofs:
                proof.index = len(report.proofs)
                report.proofs.append(proof)

        final = simulate_system(design, delays=delays, seed=NOMINAL, strict=False)
        report.proofs.append(
            _checkpoint_proof(
                "design",
                len(report.proofs),
                golden,
                token_streams,
                final,
                design=design,
                delays=delays,
            )
        )
    except Exception as exc:  # noqa: BLE001 — a proof driver must not crash
        report.error = f"{type(exc).__name__}: {exc}"
    return report


def replay_flow_report(payload) -> Tuple[bool, str]:
    """Re-derive a report's certificates and byte-compare.

    ``payload`` is a :class:`FlowReport`, a parsed dict, or a path.
    Returns ``(identical, message)``.
    """
    if isinstance(payload, str):
        payload = load_flow_report(payload)
    elif isinstance(payload, dict):
        payload = FlowReport.from_dict(payload)
    fresh = prove_workload(
        payload.workload,
        gts=payload.gts,
        lts=payload.lts,
        delay_overrides=payload.delay_overrides,
        params=payload.params,
        minimize=payload.minimize,
    )
    if fresh.to_json() == payload.to_json():
        return True, (
            f"{payload.workload}: {len(payload.proofs)} certificates replayed "
            "byte-identically"
        )
    for index, (old, new) in enumerate(zip(payload.proofs, fresh.proofs)):
        if old.to_dict() != new.to_dict():
            return False, (
                f"{payload.workload}: certificate {index} ({old.stage}"
                f"[{old.subject}]) does not replay"
            )
    return False, (
        f"{payload.workload}: certificate count changed "
        f"({len(payload.proofs)} -> {len(fresh.proofs)})"
    )
