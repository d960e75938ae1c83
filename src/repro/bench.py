"""Benchmark recording and the exploration benchmark.

Two halves:

**Recording.**  :func:`record` appends one measurement to
``BENCH_scaling.json`` at the repository root (the format the
``benchmarks/`` harness has always used — ``benchmarks/_record.py`` now
delegates here), and :func:`compare_last` looks up the previous entry
for the same bench name so a run can report its own regression ratio.

**The exploration bench.**  :func:`run_explore_bench` measures the
design-space sweep on one workload twice — against an empty cache
(*cold*), and against the cache the cold run just persisted (*warm*) —
asserts both produce bit-identical :class:`~repro.explore.DesignPoint`
lists, and reports the wall times and the warm speedup.  ``repro
bench`` wraps it on the command line and CI runs it with ``--check``
so a cold/warm divergence fails the build.
"""

from __future__ import annotations

import datetime
import json
import platform
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Union

RESULTS_PATH = Path(__file__).resolve().parents[2] / "BENCH_scaling.json"

Metric = Union[int, float, str, bool, None]


def _load(path: Path) -> Dict:
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(data, dict) and isinstance(data.get("runs"), list):
                return data
        except (ValueError, OSError):
            pass  # corrupt/unreadable history: start a fresh one
    return {"runs": []}


def record(
    bench: str,
    wall_time: float,
    path: Optional[Path] = None,
    **metrics: Metric,
) -> Dict:
    """Append one measurement; returns the entry written.

    ``bench`` is a stable identifier (e.g. ``fir_synthesis/taps=48``),
    ``wall_time`` is seconds, and ``metrics`` are any JSON-scalar
    key/value pairs worth tracking across PRs.
    """
    from repro.cache.store import file_lock

    path = Path(path) if path is not None else RESULTS_PATH
    entry = {
        "bench": bench,
        "wall_time": round(float(wall_time), 6),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "metrics": dict(metrics),
    }
    # read-append-rename under an advisory lock: concurrent appenders
    # (shard benches, parallel CI jobs) serialize instead of interleaving
    # read-modify-write cycles, and the rename is atomic so a reader can
    # never observe a torn file even if the lock degrades to a no-op
    path.parent.mkdir(parents=True, exist_ok=True)
    with file_lock(path.with_name(path.name + ".lock")):
        data = _load(path)
        data["runs"].append(entry)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=str(path.parent), prefix=path.name, suffix=".tmp",
            delete=False, encoding="utf-8",
        )
        try:
            with handle:
                handle.write(json.dumps(data, indent=2) + "\n")
            Path(handle.name).replace(path)
        except BaseException:
            try:
                Path(handle.name).unlink()
            except OSError:
                pass
            raise
    return entry


def compare_last(bench: str, wall_time: float, path: Optional[Path] = None) -> Optional[Dict]:
    """Compare ``wall_time`` against the last recorded entry for ``bench``.

    Returns ``None`` when there is no history, else a dict with the
    previous wall time, the current one, and ``ratio`` (current /
    previous; > 1 means slower).  Call *before* :func:`record`, or the
    run compares against itself.
    """
    path = Path(path) if path is not None else RESULTS_PATH
    history = [entry for entry in _load(path)["runs"] if entry.get("bench") == bench]
    if not history:
        return None
    previous = history[-1]
    prior_wall = float(previous.get("wall_time") or 0.0)
    return {
        "previous": prior_wall,
        "previous_timestamp": previous.get("timestamp"),
        "current": float(wall_time),
        "ratio": (float(wall_time) / prior_wall) if prior_wall else None,
    }


def run_explore_bench(
    workload: str = "diffeq",
    cache_dir: Optional[str] = None,
) -> Dict:
    """Measure ``explore_design_space`` cold vs warm.

    The cold run always starts from an empty cache directory (a
    temporary one unless ``cache_dir`` is given, in which case it is
    wiped first — pass a dedicated path).  The warm run constructs a
    *fresh* :class:`~repro.cache.ArtifactCache` over the persisted file
    so it measures the real disk round-trip.  Both result lists are
    checked for bit-identical equality; ``identical`` in the returned
    dict records the verdict (the CLI's ``--check`` turns a ``False``
    into a failing exit code).
    """
    from repro.cache.store import ArtifactCache
    from repro.explore import explore_design_space
    from repro.workloads import WORKLOADS

    cdfg = WORKLOADS[workload]()
    out: Dict[str, object] = {"workload": workload}
    directory = Path(cache_dir) if cache_dir is not None else None
    tmp = None
    if directory is None:
        tmp = tempfile.mkdtemp(prefix="repro-bench-cache-")
        directory = Path(tmp)
    elif directory.exists():
        shutil.rmtree(directory)
    try:
        start = time.perf_counter()
        cold = explore_design_space(cdfg, cache=ArtifactCache(directory))
        out["cold"] = time.perf_counter() - start

        start = time.perf_counter()
        warm = explore_design_space(cdfg, cache=ArtifactCache(directory))
        out["warm"] = time.perf_counter() - start
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    out["points"] = len(cold.points)
    out["evaluations"] = cold.stats.get("evaluations")
    out["edges"] = cold.stats.get("edges")
    out["identical"] = cold.points == warm.points
    out["speedup_warm"] = round(out["cold"] / out["warm"], 2)
    return out


def run_scaling_bench(
    shards: int = 4,
    workloads=("diffeq",),
    random_scenarios: int = 3,
    delay_scales=(1.0, 1.25, 1.5, 2.0),
    check_resume: bool = True,
) -> Dict:
    """Measure sharded parameter-space exploration, gain by gain.

    The space is :func:`repro.cache.space.bench_space`'s default shape —
    named workloads plus seeded random scenarios, crossed with uniform
    delay scalings and the 64-point GT/LT grid (1024 points at the
    defaults).  Three sweeps cover it:

    - *single-pool*: one serial ``explore_design_space`` per context,
      contexts strictly in sequence, nothing shared between them;
    - *one shard*: the shard runner with one worker process, so the
      worker-global content-addressed memos are shared across contexts;
    - *sharded*: ``shards`` work-stealing shards of one worker each.

    ``memo_gain`` (single-pool wall / one-shard wall) is what the memos
    buy at one process; ``parallel_gain`` (one-shard wall / sharded
    wall) is what the extra shards buy with the same memos, and
    ``shard_efficiency`` is ``parallel_gain / effective_shards`` — the
    fleet after clamping to the host's available CPUs (requested
    ``shards`` is reported alongside).

    Verdicts: ``identical`` — both shard runs are bit-identical to the
    single-pool points, in canonical order; ``identical_resume`` — a
    run stopped halfway and resumed from its journal reproduces the
    uninterrupted report byte-for-byte.
    """
    import json as _json

    from repro.cache.shards import explore_space
    from repro.cache.space import bench_space
    from repro.explore import explore_design_space

    space = bench_space(
        workloads=workloads,
        random_scenarios=random_scenarios,
        delay_scales=delay_scales,
    )
    out: Dict[str, object] = {
        "points": len(space),
        "contexts": space.context_count,
        "shards": shards,
    }

    start = time.perf_counter()
    baseline = []
    for context in space.contexts():
        result = explore_design_space(
            context.cdfg,
            global_subsets=space.gt_subsets,
            local_subsets=space.lt_subsets,
            delays=context.delays,
            seed=context.seed,
            verify=space.verify,
        )
        baseline.extend(result.points)
    out["single_pool_wall"] = time.perf_counter() - start
    expected = [p.to_dict() for p in baseline]

    start = time.perf_counter()
    one_shard = explore_space(space, shards=1)
    out["one_shard_wall"] = time.perf_counter() - start

    tmp = tempfile.mkdtemp(prefix="repro-bench-space-")
    try:
        start = time.perf_counter()
        sharded = explore_space(space, shards=shards, run_dir=tmp)
        out["sharded_wall"] = time.perf_counter() - start

        out["stolen_units"] = sharded.stats.get("stolen_units")
        out["effective_shards"] = sharded.stats.get("effective_shards", shards)
        out["identical"] = (
            [p.to_dict() for p in one_shard.points] == expected
            and [p.to_dict() for p in sharded.points] == expected
        )
        out["pps_single"] = round(len(space) / out["single_pool_wall"], 2)
        out["pps_sharded"] = round(len(space) / out["sharded_wall"], 2)
        out["memo_gain"] = round(out["single_pool_wall"] / out["one_shard_wall"], 2)
        out["parallel_gain"] = round(out["one_shard_wall"] / out["sharded_wall"], 2)
        out["shard_efficiency"] = round(
            out["parallel_gain"] / out["effective_shards"], 3
        )

        # warm resume of the completed run: everything served from the
        # compacted mirror, nothing recomputed
        start = time.perf_counter()
        warm = explore_space(space, shards=shards, run_dir=tmp, resume=True)
        out["resume_wall"] = time.perf_counter() - start
        out["resume_speedup"] = round(out["sharded_wall"] / out["resume_wall"], 2)
        out["identical"] = out["identical"] and (
            _json.dumps(warm.documents, sort_keys=True)
            == _json.dumps(sharded.documents, sort_keys=True)
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if check_resume:
        # killed-run drill: stop halfway, resume, compare byte-for-byte
        tmp = tempfile.mkdtemp(prefix="repro-bench-resume-")
        try:
            explore_space(
                space, shards=shards, run_dir=tmp, stop_after=len(space) // 2
            )
            resumed = explore_space(space, shards=shards, run_dir=tmp, resume=True)
            out["identical_resume"] = _json.dumps(
                resumed.documents, sort_keys=True
            ) == _json.dumps(sharded.documents, sort_keys=True)
            out["identical"] = out["identical"] and out["identical_resume"]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return out


def run_batched_sim_bench(
    workload: str = "diffeq",
    trials: int = 256,
    seed: int = 0,
) -> Dict:
    """Measure a full fault campaign scalar vs batched.

    Runs ``repro faults``'s :func:`~repro.resilience.run_campaign`
    twice — once on the scalar event loop, once through the batched
    max-plus engine (runtime spot-checks at their default fraction) —
    and compares the two reports *byte for byte*: equality means every
    per-trial makespan, status, and detail string agreed bit-exactly.
    ``identical`` carries the verdict; the CLI's ``--check`` turns a
    ``False`` into a failing exit, and CI runs it that way.

    Both paths get one small untimed warm-up campaign first, so the
    measurement compares steady-state campaign throughput rather than
    charging one side the process's one-time import and cache-fill
    costs (numpy alone is tens of milliseconds to import).
    """
    from repro.resilience import run_campaign

    out: Dict[str, object] = {"workload": workload, "trials": trials, "seed": seed}

    for batched in (False, True):
        run_campaign(workload, seed=seed, trials=2, batched=batched)

    start = time.perf_counter()
    scalar = run_campaign(workload, seed=seed, trials=trials, batched=False)
    out["scalar_wall"] = time.perf_counter() - start

    start = time.perf_counter()
    batched = run_campaign(workload, seed=seed, trials=trials, batched=True)
    out["batched_wall"] = time.perf_counter() - start

    out["identical"] = scalar.to_json() == batched.to_json()
    out["speedup"] = round(out["scalar_wall"] / out["batched_wall"], 2)
    out["trials_ok"] = scalar.trials_ok
    return out


def run_serve_bench(
    clients: int = 64,
    workload: str = "gcd",
    executor: str = "thread",
    workers: int = 4,
    store_dir: Optional[str] = None,
) -> Dict:
    """Duplicate-load test against a live job server.

    ``clients`` threads simultaneously submit the *same* job over real
    HTTP and wait for its result.  Content-addressed dedup should fold
    the burst onto one execution: the bench reports submit-latency
    percentiles (p50/p99), the dedup hit-rate (the acceptance floor is
    0.9 — for 64 clients the expected rate is 63/64), how many
    executions actually ran, and whether every client got a
    byte-identical result document.
    """
    import concurrent.futures

    from repro.serve.harness import ServerHarness
    from repro.serve.jobs import canonical_json
    from repro.serve.server import ServerConfig

    clients = max(2, int(clients))
    params = {"workload": workload, "level": "gt+lt"}
    cleanup: Optional[tempfile.TemporaryDirectory] = None
    if store_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
        store_dir = cleanup.name
    store_path = Path(store_dir) / "bench.sqlite3"

    config = ServerConfig(
        workers=workers,
        executor=executor,
        queue_depth=max(64, clients),
        client_cap=max(64, clients),
    )
    latencies: list = [None] * clients
    results: list = [None] * clients

    def one_client(index: int) -> None:
        client = harness.client(timeout=120.0)
        start = time.perf_counter()
        job = client.submit(kind="synthesize", params=params, client=f"c{index:02d}")
        latencies[index] = time.perf_counter() - start
        if job["state"] != "DONE" or job.get("result") is None:
            job = client.wait(job["job_id"], timeout=180.0)
        results[index] = canonical_json(job.get("result"))

    try:
        with ServerHarness(store_path, config) as harness:
            wall_start = time.perf_counter()
            with concurrent.futures.ThreadPoolExecutor(max_workers=clients) as pool:
                list(pool.map(one_client, range(clients)))
            wall = time.perf_counter() - wall_start
            stats = harness.client().stats()
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    ordered = sorted(latencies)

    def percentile(fraction: float) -> float:
        index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[index]

    store_stats = stats["store"]
    return {
        "clients": clients,
        "workload": workload,
        "executor": executor,
        "workers": workers,
        "wall": round(wall, 4),
        "p50_ms": round(percentile(0.50) * 1000, 2),
        "p99_ms": round(percentile(0.99) * 1000, 2),
        "max_ms": round(ordered[-1] * 1000, 2),
        "dedup_hit_rate": store_stats["dedup_hit_rate"],
        "dedup_hits": store_stats["dedup_hits"],
        "executions": store_stats["executions"],
        "submissions": store_stats["submissions"],
        "identical": len(set(results)) == 1 and results[0] != "null",
    }
