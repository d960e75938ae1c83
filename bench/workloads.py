"""The four benchmark workloads and the measurement loop around them.

Every workload is a closed loop driven from this one process.  Its
inputs come from ``--seed`` alone: the seed picks the random scenarios
and the order of operations, so the same seed gives the same inputs.
A run measures operations for a fixed number of seconds (the last
operation started is finished), after set-up has run several times.

- ``sweep_cold``: an operation is one round of cold
  ``explore_design_space`` sweeps (verify on, 64-point default grid)
  over six scenarios: diffeq, fir, gcd, ewf and two random programs.
  Each sweep builds its CDFG and gets a fresh, empty ``ArtifactCache``
  directory, as every new design does through the CLI.
- ``sweep_warm``: set-up fills one cache directory per scenario (the
  same six); an operation is one round of warm sweeps, each opening a
  fresh ``ArtifactCache`` on its filled directory.
- ``space_sharded``: an operation is one 1024-point
  ``explore_space`` run (diffeq plus three random programs, four
  uniform delay scales, two shards) with a run directory, followed by
  resuming the completed run.
- ``serve_mixed``: ``repro serve`` runs as a subprocess with two
  process workers; two client threads send a seeded mix of
  synthesize/faults/explore/verify jobs and wait for each one.

Random programs come from :data:`RANDOM_POOL`: one fixed shape, so runs
at different seeds do the same amount of work, and only programs whose
every point is proved, so no run fails on its inputs.  Timings are
scaled to a reference host speed (:mod:`bench.hostspeed`).
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache.shards import explore_space
from repro.cache.space import (
    ParameterSpace,
    Scenario,
    bench_space,
    default_gt_grid,
    random_cdfg,
)
from repro.cache.store import ArtifactCache
from repro.explore import explore_design_space
from repro.obs.spans import reset_spans
from repro.perf import reset_timings
from repro.serve.client import ServeClient
from repro.verify.schema import canonical_json, report_envelope
from repro.workloads import WORKLOADS, golden_reference

from bench.hostspeed import HostSpeed
from bench.trace import OP_SPAN, Profile, Tracer

#: checkout root (``bench/`` lives directly under it)
ROOT = Path(__file__).resolve().parent.parent

#: set-ups per run; ``setup_s`` reports their median
SETUPS = 3

#: (straight-line ops, loop-body ops, iterations) of every random program
RANDOM_SHAPE = (3, 5, 3)

#: seeds of ``repro.cache.space.random_program`` with RANDOM_SHAPE, the
#: first 64 drawn from ``random.Random("bench-random-pool")``; every
#: point of their sweeps is proved, at each delay scale of
#: ``space_sharded`` (bench/tests/test_workloads.py checks both).  Not
#: every program of this shape proves: seed 584838435 gets GT5 refuted
#: under GT1+GT5, which would count as failed points in every run
#: that drew it.
RANDOM_POOL = (
    1150683598, 1625252426, 1647012384, 905111965, 938671105, 1161301589,
    1830907333, 2015233580, 381164689, 1684073622, 2047372791, 1617805633,
    1924600004, 1111016895, 1001006926, 856350017, 43750475, 1561102702,
    1497573779, 436942480, 1168192278, 997135468, 1784635311, 120997862,
    862804335, 1793292965, 890242087, 1826025952, 882271013, 1217467856,
    785913150, 1678041194, 686281989, 1622505526, 732633689, 1491239696,
    1676875717, 1971855518, 1021816004, 1151163918, 1581879341, 1176154791,
    2053273331, 1414302314, 1416219901, 1261574838, 1845557247, 257947857,
    284357588, 1913844805, 1023337342, 1755231487, 556304517, 137691136,
    2061037528, 938091108, 1687809311, 428807396, 2044218989, 1944463519,
    202664418, 645932211, 26148621, 1150212543,
)

#: named scenarios of the sweep workloads; diffeq and fir also have
#: checked-in golden sweep reports
NAMED_SCENARIOS = ("diffeq", "fir", "gcd", "ewf")
GOLDEN_SWEEPS = ("diffeq", "fir")
RANDOM_PER_ROUND = 2

#: space_sharded: random scenarios per space and shard count
SPACE_RANDOM = 3
SPACE_SHARDS = 2

#: serve_mixed: client threads (one per CPU of the reference host) and
#: server pool width
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_LEVELS = ("unoptimized", "gt", "gt+lt", "gt+lt+min")

GOLDEN_DIR = ROOT / "tests" / "golden" / "reports"


def point_failures(points) -> int:
    """Points that are not ``status=ok`` and ``proved``."""
    return sum(1 for point in points if point.status != "ok" or not point.proved)


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (a single sample is its own)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


Window = Tuple[float, float]


@dataclass
class Op:
    """One timed operation: a sweep round, a space run, or a request."""

    #: (start, end) ``perf_counter`` times of its timed blocks
    windows: List[Window]
    #: design points (sweeps, spaces) or jobs (serve) it completed
    items: int
    failed: int = 0
    traced: bool = False
    #: per-layer facts the program reports itself (cache and shard stats)
    stats: Dict[str, object] = field(default_factory=dict)

    def seconds(self, host: HostSpeed) -> float:
        """Timed seconds at reference host speed."""
        return sum(host.scaled(start, end) for start, end in self.windows)


class _Clock:
    window: Window = (0.0, 0.0)


class Workload:
    """One set-up plus repeatable operations; see the module doc."""

    name = ""

    def __init__(self, directory: Path, seed: int):
        self.directory = directory
        self.seed = seed
        self.tracer: Optional[Tracer] = None
        #: human-readable descriptions of failed checks
        self.problems: List[str] = []
        self._dirs = 0
        directory.mkdir(parents=True, exist_ok=True)

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.directory / f"d{self._dirs}"
        path.mkdir()
        return path

    def rng(self, *parts: object) -> random.Random:
        return random.Random(":".join(str(part) for part in (self.seed, self.name) + parts))

    @contextmanager
    def timed(self) -> Iterator[_Clock]:
        """Time a block; when tracing, the block is one ``bench.op`` span."""
        clock = _Clock()
        tracing = self.tracer is not None and self.tracer.recording
        scope = self.tracer.span(OP_SPAN) if tracing else nullcontext()
        with scope:
            start = time.perf_counter()
            try:
                yield clock
            finally:
                clock.window = (start, time.perf_counter())

    def problem(self, message: str) -> None:
        self.problems.append(message)

    # the workload interface --------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def steps(self, index: int) -> List[Callable[[], Op]]:
        """The timed steps of operation ``index``: repeatable callables,
        each timing its own work with :meth:`timed`."""
        raise NotImplementedError

    def teardown(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    def run(self, seconds: float, tracer: Optional[Tracer]) -> List[Op]:
        """Operations until ``seconds`` have passed.

        A traced run executes every step twice, recorded and not,
        alternating which goes first, and returns one traced and one
        untraced :class:`Op` per operation, so ``trace.overhead``
        compares identical work run back to back.  The wrappers stay
        installed for the whole run; an unrecorded step only pays a
        flag test per wrapped call.
        """
        ops: List[Op] = []
        start = time.perf_counter()
        index = calls = 0
        if tracer is not None:
            tracer.install()
            self.tracer = tracer
        try:
            while index == 0 or time.perf_counter() - start < seconds:
                parts: Dict[bool, List[Op]] = {False: [], True: []}
                for step in self.steps(index):
                    order = (False,) if tracer is None else ((True, False) if calls % 2 == 0 else (False, True))
                    calls += 1
                    for traced in order:
                        if tracer is not None:
                            tracer.op = index
                            tracer.active = traced
                        parts[traced].append(step())
                        # steady state: the program's span and timing
                        # registries grow without bound, so empty them
                        reset_spans()
                        reset_timings()
                for traced, done in parts.items():
                    if done:
                        ops.append(_merge(done, traced))
                index += 1
        finally:
            if tracer is not None:
                self.tracer = None
                tracer.uninstall()
        return ops

    def throughput(self, ops: List[Op], host: HostSpeed, window: Window) -> float:
        """Design points per second of operation time."""
        return sum(op.items for op in ops) / sum(op.seconds(host) for op in ops)

    def layer_stats(self) -> Dict[str, float]:
        """Per-layer values the workload measures outside the trace."""
        return {}


def _merge(parts: List[Op], traced: bool) -> Op:
    """One operation from its steps: a single step is kept as it is, the
    stats of several (sweep cache counters) are summed."""
    if len(parts) == 1:
        parts[0].traced = traced
        return parts[0]
    stats: Dict[str, object] = defaultdict(int)
    for part in parts:
        for key, value in part.stats.items():
            stats[key] += value
    return Op(
        windows=[window for part in parts for window in part.windows],
        items=sum(part.items for part in parts),
        failed=sum(part.failed for part in parts),
        traced=traced,
        stats=dict(stats),
    )


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
def _named(workload: str) -> Tuple[str, Callable]:
    return workload, lambda: WORKLOADS[workload]()


def _random(seed: int) -> Tuple[str, Callable]:
    return f"random-{seed}", lambda: random_cdfg(seed)


def _cache_stats(result) -> Dict[str, int]:
    return {"hits": result.stats["cache"]["hits"], "misses": result.stats["cache"]["misses"]}


class SweepCold(Workload):
    name = "sweep_cold"

    def setup(self) -> None:
        self.goldens = {
            workload: (GOLDEN_DIR / f"explore_{workload}.json").read_text(encoding="utf-8")
            for workload in GOLDEN_SWEEPS
        }
        # untimed warm-up: one cold sweep (loads the lazily imported
        # proof and simulation modules)
        self.sweep("gcd", WORKLOADS["gcd"])

    def steps(self, index: int) -> List[Callable[[], Op]]:
        rng = self.rng(index)
        scenarios = [_named(workload) for workload in NAMED_SCENARIOS]
        scenarios += [_random(seed) for seed in rng.sample(RANDOM_POOL, RANDOM_PER_ROUND)]
        rng.shuffle(scenarios)
        return [functools.partial(self.sweep, label, build) for label, build in scenarios]

    def sweep(self, label: str, build: Callable) -> Op:
        directory = self.fresh_dir()
        with self.timed() as clock:
            result = explore_design_space(build(), cache=ArtifactCache(directory))
        shutil.rmtree(directory)
        failed = point_failures(result.points)
        if failed:
            self.problem(f"{label}: {failed} points not ok+proved")
        golden = self.goldens.get(label)
        if golden is not None:
            text = canonical_json(
                report_envelope("explore", [point.to_dict() for point in result.points])
            )
            if text != golden:
                self.problem(f"{label}: sweep differs from tests/golden/reports/explore_{label}.json")
                failed = max(failed, 1)
        return Op([clock.window], len(result.points), failed, stats=_cache_stats(result))


class SweepWarm(Workload):
    name = "sweep_warm"

    def setup(self) -> None:
        rng = self.rng("scenarios")
        scenarios = [_named(workload) for workload in NAMED_SCENARIOS]
        scenarios += [_random(seed) for seed in rng.sample(RANDOM_POOL, RANDOM_PER_ROUND)]
        #: (label, cdfg, cache directory, points of the filling sweep)
        self.filled = []
        for label, build in scenarios:
            cdfg = build()
            directory = self.fresh_dir()
            result = explore_design_space(cdfg, cache=ArtifactCache(directory))
            if point_failures(result.points):
                self.problem(f"{label}: cache fill has points not ok+proved")
            self.filled.append((label, cdfg, directory, result.points))
        for step in self.steps(-1):  # untimed warm-up
            step()

    def steps(self, index: int) -> List[Callable[[], Op]]:
        order = list(self.filled)
        self.rng(index).shuffle(order)
        return [functools.partial(self.sweep, *filled) for filled in order]

    def sweep(self, label: str, cdfg, directory: Path, cold_points) -> Op:
        with self.timed() as clock:
            result = explore_design_space(cdfg, cache=ArtifactCache(directory))
        failed = point_failures(result.points)
        if result.points != cold_points:
            self.problem(f"{label}: warm sweep differs from the cold sweep that filled it")
            failed = max(failed, 1)
        return Op([clock.window], len(result.points), failed, stats=_cache_stats(result))


# ----------------------------------------------------------------------
# sharded space
# ----------------------------------------------------------------------
class SpaceSharded(Workload):
    name = "space_sharded"

    def setup(self) -> None:
        self.base = bench_space(random_scenarios=0)
        # untimed warm-up: one small sharded run (forks the pools once)
        warmup = ParameterSpace.for_workload("gcd")
        result = explore_space(warmup, shards=SPACE_SHARDS, run_dir=self.fresh_dir())
        if point_failures(result.points):
            self.problem("warm-up space has points not ok+proved")

    def steps(self, index: int) -> List[Callable[[], Op]]:
        seeds = self.rng(index).sample(RANDOM_POOL, SPACE_RANDOM)
        space = ParameterSpace(
            scenarios=self.base.scenarios + [Scenario.from_dict({"random": seed}) for seed in seeds],
            delay_variants=self.base.delay_variants,
        )
        return [functools.partial(self.explore, index, space)]

    def explore(self, index: int, space: ParameterSpace) -> Op:
        run_dir = self.fresh_dir()
        with self.timed() as clock:
            full = explore_space(space, shards=SPACE_SHARDS, run_dir=run_dir)
        with self.timed() as resume_clock:
            resumed = explore_space(space, shards=SPACE_SHARDS, run_dir=run_dir, resume=True)
        shutil.rmtree(run_dir)
        failed = point_failures(full.points)
        if failed:
            self.problem(f"space {index}: {failed} points not ok+proved")
        if len(full.points) != len(space) or not full.complete:
            self.problem(f"space {index}: {len(full.points)} of {len(space)} points")
            failed += len(space) - len(full.points)
        if canonical_json({"d": resumed.documents}) != canonical_json({"d": full.documents}):
            self.problem(f"space {index}: resumed documents differ from the full run")
            failed = max(failed, 1)
        stats = dict(full.stats)
        stats["resume"] = resume_clock.window
        return Op([clock.window], len(full.points), failed, stats=stats)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class ServeMixed(Workload):
    name = "serve_mixed"

    _LISTENING = re.compile(r"listening on http://[0-9.]+:(\d+)")

    def __init__(self, directory: Path, seed: int):
        super().__init__(directory, seed)
        self.process: Optional[subprocess.Popen] = None
        #: ``GET /stats`` just before the server is stopped
        self.server_stats: Dict[str, object] = {}

    def setup(self) -> None:
        self.goldens = {workload: golden_reference(workload) for workload in WORKLOADS}
        self.gt_grid = [list(subset) for subset in default_gt_grid()]
        self._start_server()
        # untimed warm-up: one executed job per pool worker, with seeds
        # the mix never draws
        warmup = [
            self.client.submit("faults", {"workload": "gcd", "seed": 2**31 + k, "trials": 4})
            for k in range(SERVE_WORKERS)
        ]
        for job in warmup:
            if self.client.wait(job["job_id"], timeout=120.0)["state"] != "DONE":
                self.problem("warm-up job did not finish DONE")

    def _start_server(self) -> None:
        log_path = self.directory / "server.log"
        tmp = self.directory / "tmp"
        tmp.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["TMPDIR"] = str(tmp)
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--workers", str(SERVE_WORKERS),
            "--executor", "process",
            "--store", str(self.directory / "serve.sqlite3"),
        ]
        with open(log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(self.directory)
            )
        deadline = time.monotonic() + 60.0
        port = None
        while port is None:
            match = self._LISTENING.search(log_path.read_text(encoding="utf-8"))
            if match:
                port = int(match.group(1))
            elif self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "repro serve did not start:\n" + log_path.read_text(encoding="utf-8")
                )
            else:
                time.sleep(0.02)
        self.client = ServeClient(port=port, timeout=60.0)
        if self.client.healthz().get("status") != "ok":
            raise RuntimeError("repro serve is not healthy")

    def teardown(self) -> None:
        process = self.process
        if process is not None and process.poll() is None:
            try:
                self.server_stats = self.client.stats()
            except Exception as exc:  # the server died: report, still stop it
                self.problem(f"GET /stats failed: {exc}")
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        super().teardown()

    def draw(self, rng: random.Random) -> Tuple[str, dict]:
        """One request of the mix: 40% synthesize over 16 keys (nearly
        all dedup hits), 30% faults and 10% verify with fresh seeds
        (always executed), 20% explore over 64 keys."""
        roll = rng.random()
        if roll < 0.4:
            return "synthesize", {
                "workload": rng.choice(sorted(WORKLOADS)),
                "level": rng.choice(SERVE_LEVELS),
            }
        if roll < 0.7:
            return "faults", {
                "workload": rng.choice(("gcd", "ewf")),
                "seed": rng.randrange(2**31),
                "trials": 4,
            }
        if roll < 0.9:
            return "explore", {
                "workload": rng.choice(("gcd", "ewf")),
                "gts": [rng.choice(self.gt_grid)],
            }
        return "verify", {"workload": "gcd", "runs": 2, "seed": rng.randrange(2**31)}

    def check(self, kind: str, params: dict, job: dict) -> Optional[str]:
        if job["state"] != "DONE":
            return f"{kind} job ended {job['state']}: {job.get('error', '')}"
        result = job.get("result") or {}
        if kind == "synthesize":
            registers = result.get("registers", {})
            golden = self.goldens[params["workload"]]
            if any(registers.get(name) != value for name, value in golden.items()):
                return f"synthesize {params}: registers differ from the golden reference"
        elif kind == "explore":
            points = result.get("points", [])
            if not points or any(p["status"] != "ok" or not p["proved"] for p in points):
                return f"explore {params}: points not ok+proved"
        elif kind == "faults":
            if not result.get("report", {}).get("baseline_conformant"):
                return f"faults {params}: baseline not conformant"
        elif not result.get("report", {}).get("conformant"):
            return f"verify {params}: not conformant"
        return None

    def request(self, rng: random.Random, client_name: str) -> Op:
        kind, params = self.draw(rng)
        failed = 0
        dedup = False
        with self.timed() as clock:
            try:
                job = self.client.submit(kind, params, client=client_name)
                dedup = bool(job.get("dedup"))
                if job["state"] != "DONE" or job.get("result") is None:
                    job = self.client.wait(job["job_id"], timeout=120.0, poll=0.01)
            except Exception as exc:  # out of retries or refused: a failed op
                job = {"state": f"unreachable ({exc})"}
        message = self.check(kind, params, job)
        if message is not None:
            self.problem(message)
            failed = 1
        stratum = (kind, params["workload"], params.get("level"), dedup)
        return Op([clock.window], 1, failed, stats={"stratum": stratum, "dedup": dedup})

    def run(self, seconds: float, tracer: Optional[Tracer]) -> List[Op]:
        """Client threads for ``seconds``.

        A traced run installs the tracer for the whole run and records
        every other request of each client, so recorded and unrecorded
        requests meet the same server load.
        """
        rngs = [self.rng("client", client) for client in range(SERVE_CLIENTS)]
        op_ids = itertools.count()
        ops: List[Op] = []
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds

        def client_loop(client: int) -> None:
            count = 0
            try:
                while count == 0 or time.perf_counter() < deadline:
                    traced = tracer is not None and count % 2 == client % 2
                    if tracer is not None:
                        tracer.record(traced, op=next(op_ids))
                    op = self.request(rngs[client], f"bench-{client}")
                    op.traced = traced
                    with lock:
                        ops.append(op)
                    count += 1
            except Exception:  # a dead client must fail the run, not shrink it
                self.problem(f"client {client} crashed:\n{traceback.format_exc()}")

        if tracer is not None:
            tracer.install()
            self.tracer = tracer
        try:
            threads = [
                threading.Thread(target=client_loop, args=(client,), name=f"client-{client}")
                for client in range(SERVE_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            if tracer is not None:
                self.tracer = None
                tracer.uninstall()
        return ops

    def throughput(self, ops: List[Op], host: HostSpeed, window: Window) -> float:
        """Finished jobs per second of the run."""
        return len(ops) / host.scaled(*window)

    def layer_stats(self) -> Dict[str, float]:
        store = self.server_stats.get("store", {})
        return {
            "serve.dedup_hit_rate": float(store.get("dedup_hit_rate", 0.0)),
            "serve.executions": float(store.get("executions", 0)),
            "serve.shed": float(self.server_stats.get("server", {}).get("shed", 0)),
            "serve.rebuilds": float(self.server_stats.get("runner", {}).get("rebuilds", 0)),
        }


WORKLOAD_CLASSES = {cls.name: cls for cls in (SweepCold, SweepWarm, SpaceSharded, ServeMixed)}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    metrics: Dict[str, float]
    #: samples behind each metric (printed next to it)
    samples: Dict[str, int]
    attempted: int
    failed: int
    problems: List[str]
    #: how much slower than the reference the host ran (see hostspeed.py)
    host_factor: float


def peak_rss_mb() -> float:
    """Largest RSS of this process or any waited-for child (shard
    workers, the server)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: Path, import_s: float) -> Measurement:
    """Set the workload up SETUPS times, run it, and derive its metrics.

    Every timing is scaled to the reference host speed
    (:mod:`bench.hostspeed`), interval by interval.
    """
    cls = WORKLOAD_CLASSES[name]
    setups: List[Window] = []
    problems: List[str] = []
    workload = None
    try:
        with HostSpeed() as host:
            for attempt in range(SETUPS):
                if workload is not None:
                    workload.teardown()
                    problems += workload.problems
                workload = cls(work_dir / f"setup{attempt}", seed)
                start = time.perf_counter()
                workload.setup()
                setups.append((start, time.perf_counter()))
            reset_spans()
            reset_timings()
            tracer = Tracer(work_dir / "spans") if trace else None
            start = time.perf_counter()
            ops = workload.run(seconds, tracer)
            window = (start, time.perf_counter())
    finally:
        if workload is not None:
            workload.teardown()
            problems += workload.problems
    attempted = sum(op.items for op in ops)
    failed = sum(op.failed for op in ops)
    if problems and not failed:
        failed = 1  # a failed set-up check still fails the run
    if trace:
        metrics, samples = layer_metrics(workload, tracer.profile(), ops, host, window)
    else:
        latencies = [op.seconds(host) * 1000.0 for op in ops]
        metrics = {
            "setup_s": import_s / host.factor(*setups[0])
            + statistics.median(host.scaled(*setup) for setup in setups),
            "throughput_per_s": workload.throughput(ops, host, window),
            "latency_p90_ms": percentile(latencies, 0.90),
            "peak_rss_mb": peak_rss_mb(),
        }
        samples = {
            "setup_s": len(setups),
            "throughput_per_s": len(ops),
            "latency_p90_ms": len(latencies),
            "peak_rss_mb": 1,
        }
    return Measurement(metrics, samples, attempted, failed, problems, host.factor(*window))


def layer_metrics(
    workload: Workload, profile: Profile, ops: List[Op], host: HostSpeed, window: Window
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Every per-layer metric, as a mean per traced operation.

    Times are scaled to the reference host speed with the run's mean
    factor.  Layers a workload does not exercise read 0.
    """
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    n = len(traced)
    factor = host.factor(*window)
    metrics: Dict[str, float] = {}

    def per_op(value: float) -> float:
        return value / n

    def seconds(name: str) -> float:
        """Self seconds of one span name, per operation."""
        return profile.self_s.get(name, 0.0) / factor / n

    for layer, passes in (("transforms", "GT"), ("local_transforms", "LT")):
        for k in range(1, 6):
            metrics[f"{layer}.{passes}{k}.self_s"] = seconds(f"{layer}.{passes}{k}")
    metrics["transforms.apply_transform.calls"] = per_op(profile.calls.get("transforms.apply_transform", 0))
    metrics["afsm.extract_controllers.self_s"] = seconds("afsm.extract_controllers")
    metrics["afsm.extract_controllers.calls"] = per_op(profile.calls.get("afsm.extract_controllers", 0))
    metrics["local_transforms.optimize_machine.calls"] = per_op(
        profile.calls.get("local_transforms.optimize_machine", 0)
    )
    for passes in ("GT", "LT"):
        for k in range(1, 6):
            metrics[f"verify.flow.{passes}{k}.self_s"] = seconds(f"verify.flow.{passes}{k}")
    metrics["verify.flow.calls"] = per_op(
        sum(calls for name, calls in profile.calls.items() if name.startswith("verify.flow."))
    )
    metrics["verify.meta.self_s"] = seconds("verify.meta")
    metrics["verify.total_s"] = profile.group_s.get("verify", 0.0) / factor / n
    for layer in ("sim.simulate_system", "sim.simulate_tokens"):
        metrics[f"{layer}.self_s"] = seconds(layer)
        metrics[f"{layer}.calls"] = per_op(profile.calls.get(layer, 0))
    metrics["obs.critical_path.self_s"] = seconds("obs.critical_path")
    metrics["cdfg.build.self_s"] = seconds("cdfg.build")

    points = 0 if isinstance(workload, ServeMixed) else sum(op.items for op in traced)
    evaluations = profile.counters.get("evaluations", 0)
    metrics["cache.incremental.self_s"] = seconds("cache.incremental")
    metrics["cache.incremental.evaluations"] = per_op(evaluations)
    metrics["cache.incremental.edges"] = per_op(profile.counters.get("edges", 0))
    metrics["cache.incremental.reuse_ratio"] = 1.0 - evaluations / points if points else 0.0
    metrics["cache.fingerprint.self_s"] = seconds("cache.fingerprint")
    metrics["cache.fingerprint.calls"] = per_op(profile.calls.get("cache.fingerprint", 0))
    metrics["cache.store.load_s"] = seconds("cache.store.load")
    metrics["cache.store.save_s"] = seconds("cache.store.save")
    hits = sum(op.stats.get("hits", 0) for op in traced)
    lookups = hits + sum(op.stats.get("misses", 0) for op in traced)
    metrics["cache.store.hit_ratio"] = hits / lookups if lookups else 0.0
    for action in ("append", "load", "compact"):
        metrics[f"cache.journal.{action}_s"] = seconds(f"cache.journal.{action}")

    shard_ops = [op for op in traced if "shard_points" in op.stats]
    shard_wall = sum(op.stats["wall_time"] * op.stats["effective_shards"] for op in shard_ops)
    metrics["cache.shards.stolen_units"] = per_op(sum(op.stats["stolen_units"] for op in shard_ops))
    metrics["cache.shards.imbalance"] = (
        statistics.mean(max(op.stats["shard_points"]) / max(1, min(op.stats["shard_points"])) for op in shard_ops)
        if shard_ops else 0.0
    )
    metrics["cache.shards.effective_shards"] = per_op(sum(op.stats["effective_shards"] for op in shard_ops))
    metrics["cache.shards.broken_pools"] = per_op(sum(op.stats["broken_pools"] for op in shard_ops))
    metrics["cache.shards.idle_share"] = 1.0 - profile.worker_busy_s / shard_wall if shard_wall else 0.0
    resumes = [host.scaled(*op.stats["resume"]) * 1000.0 for op in untraced if "resume" in op.stats]
    metrics["cache.shards.resume_ms"] = statistics.median(resumes) if resumes else 0.0

    def ms_percentile(values: List[float], fraction: float) -> float:
        return percentile(values, fraction) * 1000.0 / factor if values else 0.0

    submits = profile.durations.get("serve.submit", [])
    waits = profile.durations.get("serve.wait", [])
    metrics["serve.submit_ms_p50"] = ms_percentile(submits, 0.50)
    metrics["serve.submit_ms_p99"] = ms_percentile(submits, 0.99)
    metrics["serve.wait_ms_p50"] = ms_percentile(waits, 0.50)
    metrics["serve.wait_ms_p99"] = ms_percentile(waits, 0.99)
    requests = [op for op in traced if "dedup" in op.stats]
    for label, dedup in (("executed", False), ("dedup", True)):
        latencies = [op.seconds(host) * 1000.0 for op in requests if op.stats["dedup"] is dedup]
        metrics[f"serve.{label}_latency_p50_ms"] = percentile(latencies, 0.50) if latencies else 0.0
    metrics.update(
        {"serve.dedup_hit_rate": 0.0, "serve.executions": 0.0, "serve.shed": 0.0, "serve.rebuilds": 0.0}
    )
    metrics.update(workload.layer_stats())

    op_time = sum(duration for duration, __ in profile.ops)
    unattributed = sum(self_time for __, self_time in profile.ops)
    metrics["trace.unattributed_s"] = unattributed / factor / n
    metrics["trace.unattributed_share"] = unattributed / op_time if op_time else 0.0
    if isinstance(workload, ServeMixed):
        metrics["trace.overhead"] = _stratified_overhead(traced, untraced, host)
    else:
        metrics["trace.overhead"] = (
            sum(op.seconds(host) for op in traced) / sum(op.seconds(host) for op in untraced) - 1.0
        )
    samples = {name: n for name in metrics}
    samples["cache.shards.resume_ms"] = len(resumes)
    samples["serve.submit_ms_p50"] = samples["serve.submit_ms_p99"] = len(submits)
    samples["serve.wait_ms_p50"] = samples["serve.wait_ms_p99"] = len(waits)
    return metrics, samples


def _stratified_overhead(traced: List[Op], untraced: List[Op], host: HostSpeed) -> float:
    """Traced over untraced median request latency within each stratum
    (kind, workload, level, dedup), weighted by stratum size, minus one.

    Recorded and unrecorded requests draw different job mixes, so
    comparing plain means would measure the mix, not the tracer.
    """
    strata: Dict[tuple, Dict[bool, List[float]]] = defaultdict(lambda: {True: [], False: []})
    for op in traced + untraced:
        strata[op.stats["stratum"]][op.traced].append(op.seconds(host))
    total = weight = 0.0
    for latencies in strata.values():
        if latencies[True] and latencies[False]:
            size = len(latencies[True]) + len(latencies[False])
            total += size * statistics.median(latencies[True]) / statistics.median(latencies[False])
            weight += size
    return total / weight - 1.0 if weight else 0.0
