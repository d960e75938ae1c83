"""Shared-prefix incremental exploration over the GT/LT grid.

An independent per-point evaluation (the test suite's oracle) re-runs
the whole synthesize→extract→optimize→simulate pipeline for every grid
point, so a 64-point sweep applies GT passes 80 times and extracts 64
designs.  This engine exploits two redundancies instead:

1. **Prefix sharing.**  GT subsets are evaluated in canonical order, so
   the grid forms a trie: ``(GT1, GT2, GT3)`` extends ``(GT1, GT2)`` by
   one pass.  Each transform application happens once per trie *edge*
   (31 edges for the default 32-subset grid instead of 80 point-wise
   applications), via the same :class:`~repro.transforms.base.PassManager`
   code path, so the graph produced along a path is representation-
   identical to a single :func:`~repro.transforms.optimize_global` call.
2. **Content addressing.**  Every trie node is fingerprinted
   (:mod:`repro.cache.fingerprint`); evaluations (extract + local
   optimize + simulate) are memoized by ``(content, LT subset, delay
   model, seed, golden)``.  Distinct GT subsets that happen to produce
   identical graphs (GT2 no-ops, for instance) share one evaluation,
   one ``extract_controllers`` result serves both members of the
   ``()``/all-LT pair, and locally-optimized controllers are memoized
   per machine fingerprint.  With an :class:`~repro.cache.store.ArtifactCache`
   the memo persists across runs, making repeated sweeps near-instant.
Bit-identical equivalence with the per-point oracle is a hard contract
(tested in ``tests/cache/`` and by the golden reports): conformance
stamps, provenance counts, bottleneck labels and makespans all match,
whether results were computed cold, deduplicated in-process, or served
from a warm disk cache.  The engine itself is serial: parallel sweeps
fan :meth:`IncrementalExplorer.evaluate_prefix` out over the shard
runner's worker pools (:mod:`repro.cache.shards`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.afsm.extract import DistributedDesign, extract_controllers
from repro.cache.fingerprint import (
    fingerprint_cdfg,
    fingerprint_content,
    fingerprint_delays,
    fingerprint_machine,
    fingerprint_registers,
)
from repro.cache.store import ArtifactCache, make_key
from repro.cdfg.graph import Cdfg
from repro.channels.model import ChannelPlan, derive_channels
from repro.errors import VerificationError
from repro.local_transforms.scripts import (
    STANDARD_LOCAL_SEQUENCE,
    build_local_sequence,
    optimize_machine,
)
from repro.obs.causal import EventTrace, bottleneck_label, critical_path
from repro.obs.spans import span
from repro.sim.seeding import NOMINAL
from repro.sim.system import simulate_system
from repro.sim.token_sim import simulate_tokens
from repro.timing.delays import DelayModel
from repro.transforms.scripts import STANDARD_SEQUENCE, apply_transform

#: generation tag of golden records; bump when the NOMINAL token
#: simulation or the record layout changes what a golden holds
GOLDEN_GENERATION = "g1"


def golden_registers(
    cdfg: Cdfg,
    cache: Optional[ArtifactCache] = None,
    fingerprint: Optional[str] = None,
) -> Dict[str, float]:
    """The golden register file: ``cdfg``'s NOMINAL token simulation.

    The golden uses the default delays at the NOMINAL seed, so it is a
    function of the graph's content alone (inputs and initial registers
    included).  With a ``cache`` it is served from a record under
    ``golden:<generation>:<fingerprint_cdfg(cdfg)>`` and simulated (then
    put) only on a miss; pass ``fingerprint`` when the caller already
    holds the graph's :func:`~repro.cache.fingerprint.fingerprint_cdfg`.
    The record is an ordered list of ``[register, value]`` pairs: the
    conformance stamp names the *first* mismatching register in golden
    order, so a served golden iterates in simulation order.
    """
    if cache is None:
        return simulate_tokens(cdfg, seed=NOMINAL).registers
    key = make_key("golden", GOLDEN_GENERATION, fingerprint or fingerprint_cdfg(cdfg))
    record = cache.get(key)
    if record is None:
        registers = simulate_tokens(cdfg, seed=NOMINAL).registers
        cache.put(key, {"registers": [[name, value] for name, value in registers.items()]})
        return registers
    return dict(record["registers"])


@dataclass
class _TrieNode:
    """One evaluated GT prefix: fingerprint + lazily materialized graph."""

    prefix: Tuple[str, ...]
    parent: Optional["_TrieNode"]
    #: content fingerprint of (transformed CDFG, effective channel plan)
    fp: str
    #: GT provenance records accumulated along the path
    provenance: int
    #: first oracle failure message along the path (None = clean)
    failure: Optional[str]
    cdfg: Optional[Cdfg] = None
    plan: Optional[ChannelPlan] = None
    #: extracted (pre-LT) design, shared across the ()/LT pair
    design: Optional[DistributedDesign] = None


class IncrementalExplorer:
    """Evaluate a transform-subset grid with shared-prefix reuse.

    Mirrors the per-point oracle exactly (including the oracle-failure
    re-run semantics and conformance stamping) while sharing every
    artifact the grid allows.
    """

    def __init__(
        self,
        cdfg: Cdfg,
        delays: Optional[DelayModel] = None,
        seed=9,
        reference: Optional[Dict[str, float]] = None,
        golden: Optional[Dict[str, float]] = None,
        cache: Optional[ArtifactCache] = None,
        fault_injector=None,
        point_timeout: Optional[float] = None,
        machine_memo: Optional[Dict[str, tuple]] = None,
        design_memo: Optional[Dict[str, DistributedDesign]] = None,
        edge_memo: Optional[Dict[str, dict]] = None,
        edge_scope: Optional[str] = None,
    ):
        self.cdfg = cdfg
        self.delays = delays
        self.seed = seed
        self.reference = reference
        self.golden = golden
        self.cache = cache
        self.fault_injector = fault_injector
        self.point_timeout = point_timeout
        #: a KeyboardInterrupt stopped the sweep (points are partial)
        self.interrupted = False
        self._delay_fp = fingerprint_delays(delays)
        self._golden_fp = fingerprint_registers(golden)
        self._seed_key = "nominal" if seed is NOMINAL else repr(seed)
        self._nodes: Dict[Tuple[str, ...], _TrieNode] = {}
        #: (fu, machine fp, lt, oracle marker) -> (Controller, provenance,
        #: failure).  May be shared across explorer instances (the shard
        #: runner passes one worker-global dict so contexts that differ
        #: only in delay model or seed reuse each locally-optimized
        #: controller — the keys are content-addressed, so sharing is
        #: sound across any set of contexts)
        self._machine_memo: Dict[str, tuple] = (
            machine_memo if machine_memo is not None else {}
        )
        #: content fp -> extracted (pre-LT) design, optionally shared
        #: across explorer instances the same way
        self._design_memo: Optional[Dict[str, DistributedDesign]] = design_memo
        #: (parent fp, pass, scope, oracle tag) -> trie-edge record,
        #: optionally shared across explorer instances.  ``edge_scope``
        #: names the equivalence class of delay models the records may
        #: be shared across: transform decisions (GT3 included) compare
        #: *sums* of delays, so any uniform scaling of one delay table
        #: preserves every decision, every oracle verdict and every
        #: content fingerprint — the speed-independence argument of the
        #: source paper, pinned by tests/cache/test_shards.py.  The
        #: default scope is this context's exact delay fingerprint,
        #: which is sound unconditionally (it still shares across seeds)
        self._edge_memo: Optional[Dict[str, dict]] = edge_memo
        self._edge_scope = edge_scope if edge_scope is not None else self._delay_fp
        #: eval key -> eval record (run-local; mirrored to the cache)
        self._evals: Dict[str, dict] = {}
        self.evaluations_computed = 0
        self.edges_applied = 0
        self._oracle = None
        self._local_oracle = None
        if golden is not None:
            from repro.verify.flow import (
                compose_local_oracles,
                make_flow_global_oracle,
                make_flow_local_oracle,
            )
            from repro.verify.oracles import make_local_oracle

            # same oracles, in the same order, as the per-point path, so
            # the first failure message (and thus the conformance/proof
            # stamps) is bit-identical across both paths.  The flow
            # proof alone decides GT passes; the LT composition keeps
            # the metamorphic checks of ack and reset edges, which the
            # stream languages do not observe
            self._oracle = make_flow_global_oracle(delays=delays)
            self._local_oracle = compose_local_oracles(
                make_local_oracle(), make_flow_local_oracle()
            )

    # ------------------------------------------------------------------
    # grid normalization
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_gt(enabled: Sequence[str]) -> Tuple[str, ...]:
        unknown = [name for name in enabled if name not in STANDARD_SEQUENCE]
        if unknown:
            raise KeyError(f"unknown transforms: {unknown}")
        return tuple(name for name in STANDARD_SEQUENCE if name in enabled)

    @staticmethod
    def _normalize_lt(enabled: Sequence[str]) -> Tuple[str, ...]:
        unknown = [name for name in enabled if name not in STANDARD_LOCAL_SEQUENCE]
        if unknown:
            raise KeyError(f"unknown local transforms: {unknown}")
        return tuple(name for name in STANDARD_LOCAL_SEQUENCE if name in enabled)

    # ------------------------------------------------------------------
    # the prefix trie
    # ------------------------------------------------------------------
    def _node(self, prefix: Tuple[str, ...]) -> _TrieNode:
        node = self._nodes.get(prefix)
        if node is None:
            node = self._root() if not prefix else self._extend(self._node(prefix[:-1]), prefix[-1])
            self._nodes[prefix] = node
        return node

    def _root(self) -> _TrieNode:
        cdfg = self.cdfg.copy()
        plan = derive_channels(cdfg)
        return _TrieNode(
            prefix=(),
            parent=None,
            fp=fingerprint_content(cdfg, plan),
            provenance=0,
            failure=None,
            cdfg=cdfg,
            plan=plan,
        )

    def _extend(self, parent: _TrieNode, name: str) -> _TrieNode:
        # once an ancestor pass failed its oracle, the per-point path
        # re-runs the remaining script unchecked — mirror that here
        use_oracle = self._oracle is not None and parent.failure is None
        # "f2" names the GT oracle generation whose failure text an
        # edge record carries (the flow proof alone, so a broken order
        # contract reads ``flow[GTn]``); records of other generations
        # carry other failure text and must not be replayed
        oracle_tag = "oracle" if use_oracle else "plain"
        key = make_key("gt-edge", "f2", parent.fp, name, self._delay_fp, oracle_tag)
        memo_key = make_key("gt-edge", "f2", parent.fp, name, self._edge_scope, oracle_tag)
        record = self._edge_memo.get(memo_key) if self._edge_memo is not None else None
        if record is None and self.cache is not None:
            record = self.cache.get(key)
        child_cdfg = child_plan = None
        if record is None:
            self._materialize(parent)
            failure = None
            try:
                result = apply_transform(
                    parent.cdfg,
                    name,
                    delays=self.delays,
                    oracle=self._oracle if use_oracle else None,
                )
            except VerificationError as exc:
                # re-apply unchecked so the metrics of every point
                # through this edge are still measured (the oracle
                # never mutates, so the graph is the same)
                failure = str(exc)
                result = apply_transform(parent.cdfg, name, delays=self.delays)
            child_cdfg = result.cdfg
            child_plan = result.plan
            self.edges_applied += 1
            record = {
                "fp": fingerprint_content(child_cdfg, child_plan),
                "provenance": len(result.provenance),
                "failure": failure,
            }
            if self.cache is not None:
                self.cache.put(key, record)
        if self._edge_memo is not None:
            self._edge_memo[memo_key] = record
        return _TrieNode(
            prefix=parent.prefix + (name,),
            parent=parent,
            fp=record["fp"],
            provenance=parent.provenance + record["provenance"],
            failure=parent.failure or record["failure"],
            cdfg=child_cdfg,
            plan=child_plan,
        )

    def _materialize(self, node: _TrieNode) -> None:
        """Ensure ``node.cdfg``/``node.plan`` exist (warm nodes carry
        only fingerprints until an evaluation actually needs the graph)."""
        if node.cdfg is not None:
            return
        self._materialize(node.parent)
        result = apply_transform(node.parent.cdfg, node.prefix[-1], delays=self.delays)
        node.cdfg = result.cdfg
        node.plan = result.plan

    def _design(self, node: _TrieNode) -> DistributedDesign:
        if node.design is None:
            design = (
                self._design_memo.get(node.fp)
                if self._design_memo is not None
                else None
            )
            if design is None:
                self._materialize(node)
                design = extract_controllers(node.cdfg, node.plan)
                if self._design_memo is not None:
                    self._design_memo[node.fp] = design
            node.design = design
        return node.design

    # ------------------------------------------------------------------
    # evaluations
    # ------------------------------------------------------------------
    def _eval_key(self, node: _TrieNode, lt: Tuple[str, ...]) -> str:
        return make_key(
            "eval",
            "f1",  # flow-proof oracle generation; evaluations carry LT failures only
            node.fp,
            "+".join(lt) or "-",
            self._delay_fp,
            self._seed_key,
            self._golden_fp,
            "loracle" if self.golden is not None else "plain",
        )

    def _optimize_controllers(
        self, design: DistributedDesign, lt: Tuple[str, ...]
    ) -> Tuple[DistributedDesign, int, Optional[str]]:
        """Locally optimize ``design``, memoized per machine fingerprint.

        Returns ``(optimized design, provenance count, first failure)``.
        Matches :func:`repro.local_transforms.optimize_local` machine by
        machine — including the oracle-failure semantics: metrics come
        from the unchecked pipeline (the oracle never mutates), and the
        failure of the first failing machine in iteration order is the
        one the per-point path would have raised.
        """
        transforms = build_local_sequence(lt)
        controllers = {}
        provenance = 0
        first_failure: Optional[str] = None
        # the oracle marker keeps memo entries computed with and without
        # the local flow oracle apart — their failure fields differ, and
        # the memo may be shared across explorers with different oracles
        oracle_tag = "loracle" if self._local_oracle is not None else "plain"
        for fu, controller in design.controllers.items():
            mkey = make_key(
                "machine", fu, fingerprint_machine(controller.machine),
                "+".join(lt), oracle_tag,
            )
            cached = self._machine_memo.get(mkey)
            if cached is None:
                failure = None
                try:
                    rebuilt, reports = optimize_machine(
                        fu, controller.machine, transforms, oracle=self._local_oracle
                    )
                except VerificationError as exc:
                    failure = str(exc)
                    rebuilt, reports = optimize_machine(fu, controller.machine, transforms)
                cached = (
                    rebuilt,
                    sum(len(report.provenance) for report in reports),
                    failure,
                )
                self._machine_memo[mkey] = cached
            rebuilt, machine_provenance, failure = cached
            controllers[fu] = rebuilt
            provenance += machine_provenance
            if first_failure is None and failure is not None:
                first_failure = failure
        optimized = DistributedDesign(
            cdfg=design.cdfg,
            plan=design.plan,
            phases=design.phases,
            controllers=controllers,
        )
        return optimized, provenance, first_failure

    def _compute_eval(self, node: _TrieNode, lt: Tuple[str, ...]) -> dict:
        design = self._design(node)
        lt_provenance = 0
        local_failure: Optional[str] = None
        if lt:
            design, lt_provenance, local_failure = self._optimize_controllers(design, lt)
        result = simulate_system(
            design,
            delays=self.delays,
            seed=self.seed,
            strict=(self.golden is None),
            trace=EventTrace(),
        )
        segments = critical_path(result.trace)
        bottleneck = bottleneck_label(segments) if segments else ""
        sim_conformance = "unchecked"
        if self.golden is not None:
            sim_conformance = "conformant"
            if result.violations:
                sim_conformance = f"failed: {result.violations[0]}"
            elif result.hazards:
                sim_conformance = f"failed: hazard {result.hazards[0]}"
            else:
                for register, value in self.golden.items():
                    got = result.registers.get(register)
                    if got != value:
                        sim_conformance = (
                            f"failed: register {register} = {got!r}, golden says {value!r}"
                        )
                        break
        return {
            "status": "ok",
            "channels": design.plan.count(include_env=False),
            "states": sum(c.state_count for c in design.controllers.values()),
            "transitions": sum(c.transition_count for c in design.controllers.values()),
            "makespan": result.end_time,
            "bottleneck": bottleneck,
            "lt_provenance": lt_provenance,
            "local_failure": local_failure,
            "sim_conformance": sim_conformance,
            "registers": dict(result.registers),
            # controller count, so the parent can reconstruct the
            # per-point path's flow-certificate tally (one certificate
            # per GT pass plus one per LT pass per machine)
            "machines": len(design.controllers),
        }

    def _guarded_eval(self, node: _TrieNode, lt: Tuple[str, ...]) -> dict:
        """Per-point guard: any exception becomes a ``failed`` record."""
        from repro.resilience.injection import point_deadline

        try:
            if self.fault_injector is not None:
                self.fault_injector(node.prefix, lt)
            with point_deadline(self.point_timeout):
                return self._compute_eval(node, lt)
        except (KeyboardInterrupt, AssertionError):
            raise
        except Exception as exc:
            return {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------
    # the evaluation entry point and the serial sweep over it
    # ------------------------------------------------------------------
    def evaluate_prefix(self, gt: Sequence[str], lt: Sequence[str]) -> dict:
        """Evaluate one ``(gt, lt)`` point and return a self-contained record.

        The record carries the trie-path facts (``gt_len``,
        ``gt_provenance``, ``gt_failure``, ``lt_len``) inline, so any
        process can build the final :class:`~repro.explore.DesignPoint`
        with :func:`assemble_point` without touching a trie — the shard
        runner fans this method out over its worker pools.  Evaluations
        are deduplicated by content key within this explorer and, with
        an :class:`~repro.cache.store.ArtifactCache`, across runs.
        """
        prefix = self._normalize_gt(gt)
        lt_norm = self._normalize_lt(lt)
        # raise-mode injectors target grid points by prefix; decide the
        # match before the content-keyed memo can blur it (a no-op pass
        # gives two prefixes one evaluation)
        if (
            self.fault_injector is not None
            and getattr(self.fault_injector, "mode", None) == "raise"
            and getattr(self.fault_injector, "matches", lambda gt: False)(prefix)
        ):
            try:
                self.fault_injector(prefix, lt_norm)
                error = "injected fault"
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            return {"status": "failed", "error": error}
        try:
            node = self._node(prefix)
        except (KeyboardInterrupt, AssertionError):
            raise
        except Exception as exc:
            # a transform crash along this trie path fails every point
            # that needs the path, nothing else
            return {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}
        key = self._eval_key(node, lt_norm)
        record = self._evals.get(key)
        if record is None and self.cache is not None:
            record = self.cache.get(key)
            if record is not None:
                with span("explore/cache-hit", fingerprint=node.fp[:12], lt="+".join(lt_norm) or "-"):
                    pass
                self._evals[key] = record
        if record is None:
            record = self._guarded_eval(node, lt_norm)
            self.evaluations_computed += 1
            if record.get("status", "ok") == "ok":
                # failed records are neither memoized nor cached: the
                # next point with this key, or a warm sweep, re-attempts
                # the crash instead of replaying it
                self._evals[key] = record
                if self.cache is not None:
                    self.cache.put(key, record)
        return {
            **record,
            "gt_len": len(node.prefix),
            "gt_provenance": node.provenance,
            "gt_failure": node.failure,
            "lt_len": len(lt_norm),
        }

    # run() calls evaluate_prefix under this second name, so a profiler
    # that wraps both public entry points by name (bench/trace.py) never
    # nests them and counts no evaluation twice
    _evaluate = evaluate_prefix

    def run(
        self,
        global_subsets: Sequence[Sequence[str]],
        local_subsets: Sequence[Sequence[str]],
    ) -> List:
        """Sweep the grid serially, GT-major, one point at a time.

        A ``KeyboardInterrupt`` sets :attr:`interrupted` and returns the
        points completed before it.
        """
        points = []
        computed = self.evaluations_computed
        with span("explore/incremental", workload=self.cdfg.name) as section:
            try:
                for gt in global_subsets:
                    for lt in local_subsets:
                        points.append(
                            assemble_point(
                                gt,
                                lt,
                                self._evaluate(gt, lt),
                                golden_checked=self.golden is not None,
                                reference=self.reference,
                            )
                        )
            except KeyboardInterrupt:
                self.interrupted = True
            computed = self.evaluations_computed - computed
            section.attributes.update(
                points=len(points),
                evaluations=computed,
                shared=len(points) - computed,
                edges=self.edges_applied,
            )
        return points

def assemble_point(
    gt,
    lt,
    record: dict,
    *,
    golden_checked: bool,
    reference: Optional[Dict[str, float]] = None,
):
    """Build a :class:`~repro.explore.DesignPoint` from an
    :meth:`IncrementalExplorer.evaluate_prefix` record.

    Shared by the serial sweep (:meth:`IncrementalExplorer.run`) and the
    shard runner, whose records come back from other processes or from
    a journal — the stamping logic must be one function or the two
    paths could drift apart on conformance/proof semantics.
    """
    from repro.explore import DesignPoint, failed_point, proof_stamp

    if record.get("status", "ok") != "ok":
        return failed_point(gt, lt, str(record.get("error", "unknown failure")))
    gt_failure = record.get("gt_failure")
    if not golden_checked:
        conformance = "unchecked"
    elif gt_failure is not None:
        conformance = f"failed: {gt_failure}"
    elif record["local_failure"]:
        conformance = f"failed: {record['local_failure']}"
    else:
        conformance = record["sim_conformance"]
    certificates = record.get("gt_len", 0) + record.get("lt_len", 0) * int(
        record.get("machines", 0)
    )
    proved, proof = proof_stamp(conformance, certificates)
    if reference is not None:
        registers = record["registers"]
        for register, value in reference.items():
            if registers.get(register) != value:
                raise AssertionError(
                    f"configuration {gt}/{lt} "
                    f"computed {register}={registers.get(register)!r}, "
                    f"expected {value!r}"
                )
    return DesignPoint(
        global_transforms=tuple(gt),
        local_transforms=tuple(lt),
        channels=record["channels"],
        total_states=record["states"],
        total_transitions=record["transitions"],
        makespan=record["makespan"],
        conformant=conformance in ("conformant", "unchecked"),
        conformance=conformance,
        proved=proved,
        proof=proof,
        provenance_records=record.get("gt_provenance", 0) + record["lt_provenance"],
        bottleneck=record["bottleneck"],
    )

