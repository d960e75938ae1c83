"""Parameter spaces for distributed design-space exploration.

The historical sweep (:func:`repro.explore.explore_design_space`) is a
fixed grid: one CDFG, the GT-subset lattice crossed with two LT
subsets, one delay model, one seed.  A :class:`ParameterSpace`
generalizes every axis:

- **scenarios** — where the CDFG comes from: a registered workload
  (optionally with builder parameters), a Python-subset kernel file
  compiled by :mod:`repro.frontend` under chosen resource bounds, or a
  seeded random program (:func:`random_program` — the same generator
  family the Hypothesis suite draws from in ``tests/strategies.py``);
- **delay variants** — named :class:`~repro.timing.delays.DelayModel`
  distributions: uniform scalings of the default tables and/or
  per-``(fu, operator)`` interval overrides;
- **seeds** — delay-sampling seeds (integers or ``"nominal"``);
- **gt/lt subsets** — explicit lists, or the default prefix-closed
  grids.

A *context* is one ``(scenario, delay variant, seed)`` triple: every
point of a context shares a transform trie, so contexts are the unit
of shard affinity in :mod:`repro.cache.shards`.  Every context and
point is keyed by the existing content-addressed fingerprints
(:mod:`repro.cache.fingerprint`), so journaled results can never be
replayed against the wrong artifact: change the kernel source, the
delay tables or the seed and the key changes.

Spaces round-trip through a small JSON spec (``repro explore --space
FILE``)::

    {
      "schema": "repro-space/v1",
      "scenarios": [
        {"workload": "diffeq"},
        {"kernel": "examples/kernels/accumulate.py", "bounds": {"ALU": 2}},
        {"random": 7}
      ],
      "random_scenarios": {"count": 8, "base_seed": 100},
      "delays": [
        {"name": "nominal"},
        {"name": "slow-1.5x", "scale": 1.5},
        {"name": "hot-mul", "overrides": [["MUL1", "*", [9.0, 13.0]]]}
      ],
      "seeds": [9],
      "gt": "grid",
      "lt": "default"
    }
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cache.fingerprint import (
    fingerprint_cdfg,
    fingerprint_delays,
    fingerprint_registers,
)
from repro.cache.store import ArtifactCache, make_key
from repro.cdfg.builder import CdfgBuilder
from repro.cdfg.graph import Cdfg
from repro.errors import SpaceError
from repro.local_transforms.scripts import STANDARD_LOCAL_SEQUENCE
from repro.timing.delays import DelayModel
from repro.transforms.scripts import STANDARD_SEQUENCE

SPACE_SCHEMA = "repro-space/v1"

#: generation tag folded into every context/point key; bump when the
#: record layout of the shard runner changes incompatibly
KEY_GENERATION = "s1"

# ----------------------------------------------------------------------
# seeded random programs (shared with tests/strategies.py)
# ----------------------------------------------------------------------

#: binding pools for random programs — ``tests/strategies.py`` imports
#: these so the Hypothesis fuzzers and the exploration scenarios draw
#: from one space
RANDOM_UNITS = ("FU_A", "FU_B", "FU_C")
RANDOM_REGISTERS = ("R0", "R1", "R2", "R3")
RANDOM_OPERATORS = ("+", "-", "*")

#: one random op: (dest, left, operator, right, fu)
RandomOp = Tuple[str, str, str, str, str]
#: (pre-ops, body-ops, iterations)
RandomProgram = Tuple[Tuple[RandomOp, ...], Tuple[RandomOp, ...], int]


def random_program(seed: int) -> RandomProgram:
    """Draw one ``(pre, body, iterations)`` program deterministically.

    Mirrors the shape of the Hypothesis ``programs()`` strategy (0-3
    straight-line ops, a 1-5 op loop body, 0-4 iterations) through a
    plain seeded :class:`random.Random`, so exploration scenarios are
    reproducible from their seed alone — no Hypothesis at run time.
    """
    rng = random.Random(seed)

    def op() -> RandomOp:
        return (
            rng.choice(RANDOM_REGISTERS),
            rng.choice(RANDOM_REGISTERS),
            rng.choice(RANDOM_OPERATORS),
            rng.choice(RANDOM_REGISTERS),
            rng.choice(RANDOM_UNITS),
        )

    pre = tuple(op() for _ in range(rng.randint(0, 3)))
    body = tuple(op() for _ in range(rng.randint(1, 5)))
    iterations = rng.randint(0, 4)
    return pre, body, iterations


def build_random_program(program: RandomProgram, name: str = "random") -> Cdfg:
    """Materialize a :func:`random_program` draw as a well-formed CDFG.

    This is the single builder behind both the Hypothesis strategy
    (``tests/strategies.py``) and random exploration scenarios, so a
    failing scenario replays directly as a fuzz case.
    """
    pre, body, iterations = program
    builder = CdfgBuilder(name)
    builder.input("one", 1.0)
    builder.input("limit", float(iterations))
    for index, (dest, left, operator, right, fu) in enumerate(pre):
        builder.op(f"{dest} := {left} {operator} {right}", fu=fu, name=f"pre{index}")
    with builder.loop("C", fu="CNT"):
        for index, (dest, left, operator, right, fu) in enumerate(body):
            builder.op(f"{dest} := {left} {operator} {right}", fu=fu, name=f"body{index}")
        builder.op("I := I + one", fu="CNT")
        builder.op("C := I < limit", fu="CNT")
    initial = {reg: float(i + 1) for i, reg in enumerate(RANDOM_REGISTERS)}
    initial["I"] = 0.0
    initial["C"] = 1.0 if iterations > 0 else 0.0
    return builder.build(initial=initial)


def random_cdfg(seed: int) -> Cdfg:
    """The random scenario builder: seed → CDFG, deterministically."""
    return build_random_program(random_program(seed), name=f"random-{seed}")


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One CDFG source: a workload, a kernel file, or a random seed."""

    kind: str  # "workload" | "kernel" | "random"
    name: str
    workload: Optional[str] = None
    params: Tuple[Tuple[str, float], ...] = ()
    path: Optional[str] = None
    kernel: Optional[str] = None
    bounds: Tuple[Tuple[str, int], ...] = ()
    seed: Optional[int] = None

    def build(self) -> Cdfg:
        """Materialize the scenario's CDFG (a fresh graph every call)."""
        if self.kind == "workload":
            from repro.workloads import WORKLOADS

            try:
                builder = WORKLOADS[self.workload]
            except KeyError:
                raise SpaceError(f"unknown workload scenario {self.workload!r}") from None
            return builder(**dict(self.params))
        if self.kind == "kernel":
            from repro.errors import FrontendError
            from repro.frontend import load_kernel_file

            try:
                compiled = load_kernel_file(
                    self.path, kernel=self.kernel, bounds=dict(self.bounds) or None
                )
            except FrontendError as exc:
                raise SpaceError(f"kernel scenario {self.path!r}: {exc}") from None
            return compiled.build()
        if self.kind == "random":
            return random_cdfg(self.seed)
        raise SpaceError(f"unknown scenario kind {self.kind!r}")

    def to_dict(self) -> Dict[str, object]:
        if self.kind == "workload":
            doc: Dict[str, object] = {"workload": self.workload}
            if self.params:
                doc["params"] = dict(self.params)
            return doc
        if self.kind == "kernel":
            doc = {"kernel": self.path}
            if self.kernel:
                doc["function"] = self.kernel
            if self.bounds:
                doc["bounds"] = dict(self.bounds)
            return doc
        return {"random": self.seed}

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "Scenario":
        if not isinstance(doc, dict):
            raise SpaceError(f"scenario entries must be objects, got {doc!r}")
        if "workload" in doc:
            name = str(doc["workload"])
            params = doc.get("params") or {}
            if not isinstance(params, dict):
                raise SpaceError(f"scenario {name!r}: 'params' must be an object")
            return cls(
                kind="workload",
                name=name,
                workload=name,
                params=tuple(sorted((str(k), float(v)) for k, v in params.items())),
            )
        if "kernel" in doc:
            path = str(doc["kernel"])
            bounds = doc.get("bounds") or {}
            if not isinstance(bounds, dict):
                raise SpaceError(f"scenario {path!r}: 'bounds' must be an object")
            function = doc.get("function")
            label = Path(path).stem + (f":{function}" if function else "")
            return cls(
                kind="kernel",
                name=label,
                path=path,
                kernel=str(function) if function else None,
                bounds=tuple(sorted((str(k), int(v)) for k, v in bounds.items())),
            )
        if "random" in doc:
            seed = int(doc["random"])
            return cls(kind="random", name=f"random-{seed}", seed=seed)
        raise SpaceError(
            f"scenario needs one of 'workload' | 'kernel' | 'random', got {sorted(doc)}"
        )


# ----------------------------------------------------------------------
# delay variants
# ----------------------------------------------------------------------


def _scaled(interval: Tuple[float, float], scale: float) -> Tuple[float, float]:
    return (interval[0] * scale, interval[1] * scale)


@dataclass(frozen=True)
class DelayVariant:
    """A named delay-model distribution.

    ``scale`` multiplies every default interval uniformly;
    ``overrides`` pins specific ``(fu, operator)`` pairs (operator
    ``None`` = the whole unit).  The nominal variant (scale 1, no
    overrides) builds ``None`` so it fingerprints as — and shares
    cached artifacts with — the default model everywhere else.
    """

    name: str = "nominal"
    scale: float = 1.0
    overrides: Tuple[Tuple[str, Optional[str], Tuple[float, float]], ...] = ()

    @property
    def edge_scope(self) -> Optional[str]:
        """Delay-equivalence class for sharing trie-edge records.

        Transform decisions and flow-oracle verdicts compare sums of
        delays, so every *uniform scaling* of the default tables yields
        bit-identical edge records (the paper's speed-independence
        argument; pinned by ``tests/cache/test_shards.py``).  Pure-scale
        variants therefore share one scope; override variants return
        ``None``, falling back to exact delay-fingerprint scoping.
        """
        return None if self.overrides else "uniform-scale"

    def build(self) -> Optional[DelayModel]:
        if self.scale == 1.0 and not self.overrides:
            return None
        base = DelayModel()
        return DelayModel(
            operator_delays={
                op: _scaled(interval, self.scale)
                for op, interval in base.operator_delays.items()
            },
            copy_delay=_scaled(base.copy_delay, self.scale),
            structural_delay=_scaled(base.structural_delay, self.scale),
            overrides={
                (fu, operator): tuple(interval)
                for fu, operator, interval in self.overrides
            },
        )

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {"name": self.name}
        if self.scale != 1.0:
            doc["scale"] = self.scale
        if self.overrides:
            doc["overrides"] = [
                [fu, operator, list(interval)] for fu, operator, interval in self.overrides
            ]
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "DelayVariant":
        if not isinstance(doc, dict):
            raise SpaceError(f"delay entries must be objects, got {doc!r}")
        scale = float(doc.get("scale", 1.0))
        if scale <= 0.0:
            raise SpaceError(f"delay scale must be positive, got {scale}")
        raw = doc.get("overrides") or []
        overrides = []
        for entry in raw:
            try:
                fu, operator, interval = entry
                lo, hi = interval
            except (TypeError, ValueError):
                raise SpaceError(
                    f"delay override must be [fu, operator, [lo, hi]], got {entry!r}"
                ) from None
            overrides.append(
                (str(fu), None if operator is None else str(operator), (float(lo), float(hi)))
            )
        name = doc.get("name")
        if name is None:
            pieces = []
            if scale != 1.0:
                pieces.append(f"x{scale:g}")
            pieces.extend(f"{fu}.{op or '*'}" for fu, op, __ in overrides)
            name = "+".join(pieces) or "nominal"
        return cls(name=str(name), scale=scale, overrides=tuple(overrides))


NOMINAL_VARIANT = DelayVariant()


# ----------------------------------------------------------------------
# contexts and the space itself
# ----------------------------------------------------------------------

SeedSpec = Union[int, str]  # int or "nominal"


@dataclass
class SpaceContext:
    """One realized ``(scenario, delay variant, seed)`` triple.

    ``key`` is content-addressed over the built CDFG, the delay
    fingerprint, the seed and the golden register file — the namespace
    under which every point record of this context is journaled.
    """

    index: int
    scenario_index: int
    scenario: Scenario
    variant: DelayVariant
    seed_spec: SeedSpec
    cdfg: Cdfg = field(repr=False)
    delays: Optional[DelayModel] = field(repr=False, default=None)
    golden: Optional[Dict[str, float]] = field(repr=False, default=None)
    key: str = ""

    @property
    def seed(self):
        from repro.sim.seeding import NOMINAL

        return NOMINAL if self.seed_spec == "nominal" else int(self.seed_spec)

    @property
    def seed_key(self) -> str:
        return "nominal" if self.seed_spec == "nominal" else repr(int(self.seed_spec))

    @property
    def edge_scope(self) -> Optional[str]:
        return self.variant.edge_scope

    def labels(self) -> Dict[str, object]:
        """The per-point report columns identifying this context."""
        return {
            "scenario": self.scenario.name,
            "delay_model": self.variant.name,
            "sim_seed": self.seed_key,
        }


def default_gt_grid() -> List[Tuple[str, ...]]:
    """Every subset of the GT sequence, smallest first (the historical
    64-point explore grid's GT axis)."""
    return [
        subset
        for size in range(len(STANDARD_SEQUENCE) + 1)
        for subset in combinations(STANDARD_SEQUENCE, size)
    ]


def default_lt_grid() -> List[Tuple[str, ...]]:
    return [(), tuple(STANDARD_LOCAL_SEQUENCE)]


def _parse_subsets(value, sequence, axis: str) -> List[Tuple[str, ...]]:
    if value in (None, "grid", "default"):
        if axis == "gt":
            return default_gt_grid()
        return default_lt_grid()
    if not isinstance(value, list):
        raise SpaceError(f"'{axis}' must be \"grid\" or a list of subsets")
    known = set(sequence)
    subsets = []
    for subset in value:
        if not isinstance(subset, (list, tuple)):
            raise SpaceError(f"'{axis}' subsets must be lists, got {subset!r}")
        names = tuple(str(name).upper() for name in subset)
        unknown = [name for name in names if name not in known]
        if unknown:
            raise SpaceError(f"'{axis}' subset {list(subset)!r}: unknown passes {unknown}")
        subsets.append(names)
    if not subsets:
        raise SpaceError(f"'{axis}' axis is empty")
    return subsets


@dataclass
class ParameterSpace:
    """The cross product of every exploration axis.

    Point order is canonical — scenario-major, then delay variant,
    then seed, then the GT and LT axes — and every result report lists
    points in exactly this order, which is what makes a resumed run
    byte-identical to an uninterrupted one.
    """

    scenarios: List[Scenario]
    delay_variants: List[DelayVariant] = field(default_factory=lambda: [NOMINAL_VARIANT])
    seeds: List[SeedSpec] = field(default_factory=lambda: [9])
    gt_subsets: List[Tuple[str, ...]] = field(default_factory=default_gt_grid)
    lt_subsets: List[Tuple[str, ...]] = field(default_factory=default_lt_grid)
    verify: bool = True

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise SpaceError("a parameter space needs at least one scenario")
        if not self.delay_variants:
            raise SpaceError("a parameter space needs at least one delay variant")
        if not self.seeds:
            raise SpaceError("a parameter space needs at least one seed")

    # ------------------------------------------------------------------
    @property
    def context_count(self) -> int:
        return len(self.scenarios) * len(self.delay_variants) * len(self.seeds)

    @property
    def points_per_context(self) -> int:
        return len(self.gt_subsets) * len(self.lt_subsets)

    def __len__(self) -> int:
        return self.context_count * self.points_per_context

    def contexts(self) -> Iterator[SpaceContext]:
        """Realize every context: build the CDFG, the delay model, the
        golden register file and the content-addressed context key.

        The golden is a NOMINAL simulation under the default delays, so
        it depends on the scenario's CDFG alone: it is simulated once
        per distinct graph, not once per delay variant and seed.
        """
        from repro.cache.incremental import golden_registers

        goldens = ArtifactCache()
        index = 0
        for scenario_index, scenario in enumerate(self.scenarios):
            for variant in self.delay_variants:
                delays = variant.build()
                for seed_spec in self.seeds:
                    cdfg = scenario.build()
                    cdfg_fp = fingerprint_cdfg(cdfg)
                    golden = (
                        golden_registers(cdfg, goldens, cdfg_fp)
                        if self.verify
                        else None
                    )
                    context = SpaceContext(
                        index=index,
                        scenario_index=scenario_index,
                        scenario=scenario,
                        variant=variant,
                        seed_spec=seed_spec,
                        cdfg=cdfg,
                        delays=delays,
                        golden=golden,
                    )
                    context.key = make_key(
                        "ctx",
                        KEY_GENERATION,
                        cdfg_fp,
                        fingerprint_delays(delays),
                        context.seed_key,
                        fingerprint_registers(golden),
                    )
                    yield context
                    index += 1

    @staticmethod
    def point_key(context: SpaceContext, gt: Sequence[str], lt: Sequence[str]) -> str:
        """The journal/cache key of one point of one context."""
        return make_key(
            "space-point",
            context.key,
            "+".join(gt) or "-",
            "+".join(lt) or "-",
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SPACE_SCHEMA,
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
            "delays": [variant.to_dict() for variant in self.delay_variants],
            "seeds": list(self.seeds),
            "gt": [list(subset) for subset in self.gt_subsets],
            "lt": [list(subset) for subset in self.lt_subsets],
            "verify": self.verify,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "ParameterSpace":
        if not isinstance(doc, dict):
            raise SpaceError("a space spec must be a JSON object")
        schema = doc.get("schema", SPACE_SCHEMA)
        if schema != SPACE_SCHEMA:
            raise SpaceError(f"unknown space schema {schema!r} (expected {SPACE_SCHEMA!r})")
        scenarios = [Scenario.from_dict(entry) for entry in doc.get("scenarios") or []]
        sugar = doc.get("random_scenarios")
        if sugar:
            if not isinstance(sugar, dict) or "count" not in sugar:
                raise SpaceError("'random_scenarios' needs {'count': N[, 'base_seed': S]}")
            base = int(sugar.get("base_seed", 0))
            scenarios.extend(
                Scenario.from_dict({"random": base + offset})
                for offset in range(int(sugar["count"]))
            )
        seeds: List[SeedSpec] = []
        for entry in doc.get("seeds") or [9]:
            if entry == "nominal":
                seeds.append("nominal")
            else:
                seeds.append(int(entry))
        delays = [DelayVariant.from_dict(entry) for entry in doc.get("delays") or [{}]]
        names = [variant.name for variant in delays]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate delay variant names: {names}")
        return cls(
            scenarios=scenarios,
            delay_variants=delays,
            seeds=seeds,
            gt_subsets=_parse_subsets(doc.get("gt"), STANDARD_SEQUENCE, "gt"),
            lt_subsets=_parse_subsets(doc.get("lt"), STANDARD_LOCAL_SEQUENCE, "lt"),
            verify=bool(doc.get("verify", True)),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ParameterSpace":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise SpaceError(f"cannot read space file {path}: {exc}") from None
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise SpaceError(f"space file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    # ------------------------------------------------------------------
    @classmethod
    def for_workload(cls, workload: str, **kwargs) -> "ParameterSpace":
        """The historical 64-point explore grid as a one-scenario space."""
        return cls(
            scenarios=[Scenario.from_dict({"workload": workload})], **kwargs
        )


def bench_space(
    workloads: Sequence[str] = ("diffeq",),
    random_scenarios: int = 3,
    delay_scales: Sequence[float] = (1.0, 1.25, 1.5, 2.0),
    seeds: Sequence[SeedSpec] = (9,),
    base_seed: int = 0,
) -> ParameterSpace:
    """The synthetic scaling-bench space: named workloads plus seeded
    random scenarios, crossed with uniform delay scalings and the
    default GT/LT grids.  Defaults yield ``(len(workloads) +
    random_scenarios) * len(delay_scales) * len(seeds) * 64`` points —
    1024 with one workload."""
    scenarios = [Scenario.from_dict({"workload": name}) for name in workloads]
    scenarios.extend(
        Scenario.from_dict({"random": base_seed + offset})
        for offset in range(random_scenarios)
    )
    variants = [
        DelayVariant(name="nominal" if scale == 1.0 else f"x{scale:g}", scale=scale)
        for scale in delay_scales
    ]
    return ParameterSpace(
        scenarios=scenarios, delay_variants=variants, seeds=list(seeds)
    )
