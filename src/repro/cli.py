"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``      regenerate every paper table/figure (Figures 5/12/13,
                trajectory, performance)
``compile``     compile a Python-subset kernel file to a scheduled CDFG
                and report its schedule, makespan and golden match
``synthesize``  run the full flow on a workload and print the design
``simulate``    execute a synthesized design and report the register
                file, makespan and event counts
``profile``     synthesize + simulate with full observability: span
                tree, transform provenance, simulation critical path
``trace``       stream the same observability data as JSONL
``explore``     sweep transform subsets and print the Pareto frontier
                (incremental + cached by default; see ``--no-cache``)
``bench``       time the exploration sweep cold/warm and append the
                result to ``BENCH_scaling.json``
``verify``      conformance-fuzz the flow against the golden reference;
                with ``--proofs``, discharge the flow-equivalence proof
                obligations instead and emit replayable certificates
``faults``      delay-fault campaign: GT3 slack margins, GT5 channel
                skew tolerance, seeded randomized fault trials
``dot``         export the (optionally optimized) CDFG as Graphviz
``vcd``         dump a VCD waveform of a system simulation
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.afsm.extract import extract_controllers
from repro.cdfg.dot import to_dot
from repro.channels.model import derive_channels
from repro.eval.experiments import (
    run_fig5,
    run_fig12,
    run_fig13,
    run_performance,
    run_trajectory,
)
from repro.eval.tables import render_table
from repro.local_transforms import optimize_local
from repro.obs.provenance import ProvenanceRecord
from repro.obs.spans import format_timings, reset_spans
from repro.sim.seeding import NOMINAL, SeedLike
from repro.sim.system import ControllerSystem, simulate_system
from repro.transforms import optimize_global
from repro.workloads import WORKLOADS

LEVELS = ("unoptimized", "gt", "gt+lt", "gt+lt+min")


def _cli_error(message: str) -> None:
    """Print a CLI usage error and exit with the argparse status (2)."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _resolve_workload(args: argparse.Namespace, extra: Tuple[str, ...] = ()) -> str:
    """The workload name a command should run on.

    ``--workload-from FILE[:KERNEL]`` compiles the file with the
    frontend (honouring ``--bounds``) and registers it as a workload;
    otherwise the positional name must already be registered (or one of
    ``extra``, e.g. ``verify all``).  Workload positionals are
    validated here instead of via argparse ``choices`` so kernels
    registered at run time resolve like built-ins.
    """
    spec = getattr(args, "workload_from", None)
    if spec:
        from repro.errors import FrontendError
        from repro.frontend import load_kernel_file, parse_bounds, register_kernel

        path, __, kernel = spec.partition(":")
        try:
            compiled = load_kernel_file(
                path,
                kernel=kernel or None,
                bounds=parse_bounds(getattr(args, "bounds", None)),
            )
            name = register_kernel(compiled, replace=True)
        except FrontendError as exc:
            _cli_error(str(exc))
        if args.workload not in (None, name):
            _cli_error(
                f"--workload-from registered workload {name!r}; "
                f"drop the conflicting positional {args.workload!r}"
            )
        return name
    if args.workload is None:
        _cli_error("a workload name (or --workload-from FILE[:KERNEL]) is required")
    name = args.workload.strip().lower()
    if name in WORKLOADS:
        return name
    if args.workload in extra:
        return args.workload
    known = ", ".join(sorted(WORKLOADS) + list(extra))
    _cli_error(f"unknown workload {args.workload!r} (known: {known})")
    raise AssertionError("unreachable")


def _parse_seed(text: str) -> SeedLike:
    """``nominal`` | ``random`` | ``<int>`` (see :mod:`repro.sim.seeding`)."""
    lowered = text.strip().lower()
    if lowered == "nominal":
        return NOMINAL
    if lowered == "random":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be 'nominal', 'random' or an integer, got {text!r}"
        )


def _format_seed(effective: Optional[int]) -> str:
    return "nominal" if effective is None else str(effective)


def _build_design(workload: str, level: str) -> Tuple[object, List[ProvenanceRecord]]:
    """Synthesize ``workload`` at ``level``; returns (design, provenance)."""
    cdfg = WORKLOADS[workload]()
    if level == "unoptimized":
        return extract_controllers(cdfg, derive_channels(cdfg)), []
    optimized = optimize_global(cdfg)
    provenance = list(optimized.provenance)
    design = extract_controllers(optimized.cdfg, optimized.plan)
    if level in ("gt+lt", "gt+lt+min"):
        local = optimize_local(design)
        design = local.design
        provenance.extend(local.provenance)
    if level == "gt+lt+min":
        from repro.afsm.minimize import minimize_design

        design, reports, __ = minimize_design(design)
        for report in reports:
            if report.applied:
                provenance.append(
                    ProvenanceRecord(
                        "MIN",
                        "states-merged",
                        report.machine,
                        f"{report.before_states} -> {report.after_states} states",
                    )
                )
    return design, provenance


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.cdfg.validate import check_well_formed
    from repro.errors import FrontendError, ValidationError
    from repro.frontend import load_kernel_file, parse_bounds
    from repro.sim.token_sim import simulate_tokens

    try:
        compiled = load_kernel_file(
            args.file, kernel=args.kernel, bounds=parse_bounds(args.bounds)
        )
        cdfg = compiled.build()
        check_well_formed(cdfg)
    except (FrontendError, ValidationError) as exc:
        print(f"repro compile: {exc}", file=sys.stderr)
        return 2
    info = compiled.describe()
    print(
        f"kernel {info['kernel']}: {info['operations']} operations on "
        f"{', '.join(info['functional_units'])}"
    )
    print("params: " + ", ".join(f"{k}={v:g}" for k, v in info["params"].items()))
    if info["inputs"]:
        print("inputs: " + ", ".join(info["inputs"]))
    if info["outputs"]:
        print("outputs: " + ", ".join(info["outputs"]))
    rows = [
        (str(run_index), str(step), fu, str(op))
        for run_index, run in enumerate(compiled.schedule.runs)
        for op, step, fu in run
    ]
    print(render_table(("run", "step", "fu", "operation"), rows))
    result = simulate_tokens(cdfg, seed=NOMINAL)
    golden = compiled.golden()
    mismatched = sorted(
        name for name, value in golden.items() if result.registers.get(name) != value
    )
    print(
        f"nominal makespan {result.end_time:.2f}; register file "
        + (f"MISMATCH: {', '.join(mismatched)}" if mismatched else "matches the golden model")
    )
    print(f"fingerprint {info['fingerprint']}")
    return 1 if mismatched else 0


def _cmd_tables(args: argparse.Namespace) -> int:
    for result in (run_fig5(), run_fig12(), run_fig13(), run_trajectory(), run_performance()):
        print(result.table())
        print()
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    args.workload = _resolve_workload(args)
    if args.timings:
        reset_spans()
    design, __ = _build_design(args.workload, args.level)
    print(design.summary())
    if args.verbose:
        for controller in design.controllers.values():
            print()
            print(controller.machine.describe())
    if args.timings:
        print()
        print("per-pass wall time:")
        print(format_timings())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    args.workload = _resolve_workload(args)
    design, __ = _build_design(args.workload, args.level)
    result = simulate_system(design, seed=args.seed)
    rows = sorted(result.registers.items())
    print(render_table(("register", "value"), rows))
    print(
        f"makespan: {result.end_time:.2f}   events: {result.events_processed}"
        f"   seed: {_format_seed(result.seed)}"
    )
    if result.hazards:
        print("HAZARDS:")
        for hazard in result.hazards:
            print("  ", hazard)
        return 1
    return 0


def _profiled_run(args: argparse.Namespace):
    """Synthesize + simulate with every observability channel armed.

    Returns ``(design, provenance, result, segments)`` where
    ``segments`` is the simulation's causal critical path.
    """
    from repro.obs.causal import EventTrace, critical_path

    reset_spans()
    args.workload = _resolve_workload(args)
    design, provenance = _build_design(args.workload, args.level)
    trace = EventTrace()
    result = simulate_system(design, seed=args.seed, trace=trace)
    segments = critical_path(trace)
    return design, provenance, result, segments


def _provenance_summary(provenance: List[ProvenanceRecord]) -> List[Tuple[str, str, int]]:
    """(transform, kind, count) rows in first-seen order."""
    counts: Dict[Tuple[str, str], int] = {}
    for record in provenance:
        key = (record.transform, record.kind)
        counts[key] = counts.get(key, 0) + 1
    return [(transform, kind, count) for (transform, kind), count in counts.items()]


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.causal import bottleneck_label, path_delay_sum, slack_by_label
    from repro.obs.spans import format_spans

    design, provenance, result, segments = _profiled_run(args)

    print(f"== synthesis spans ({args.workload}, {args.level}) ==")
    print(format_spans())

    print()
    print("== transform provenance ==")
    rows = [(t, k, str(c)) for t, k, c in _provenance_summary(provenance)]
    if rows:
        print(render_table(("transform", "kind", "records"), rows))
    print(f"{len(provenance)} records (export with: repro trace {args.workload} --jsonl ...)")

    print()
    print("== simulation critical path ==")
    visible = [s for s in segments if s.delay > 0.0]
    hidden = len(segments) - len(visible)
    path_rows = [
        (f"{s.start:.2f}", f"{s.end:.2f}", f"{s.delay:.2f}", s.label or "?")
        for s in visible
    ]
    print(render_table(("start", "end", "delay", "event"), path_rows))
    if hidden:
        print(f"({hidden} zero-delay scheduling events hidden)")
    total = path_delay_sum(segments)
    exact = total == result.end_time
    print(
        f"critical path: {len(segments)} events, delays sum to {total:.2f}; "
        f"makespan {result.end_time:.2f} "
        f"({'exact' if exact else 'MISMATCH'}, seed {_format_seed(result.seed)})"
    )
    if segments:
        print(f"bottleneck: {bottleneck_label(segments)}")

    print()
    print("== per-operation slack (10 tightest) ==")
    slack = slack_by_label(result.trace, end_time=result.end_time)
    tight = sorted(slack.items(), key=lambda item: (item[1], item[0]))[:10]
    print(render_table(("event", "slack"), [(label, f"{value:.2f}") for label, value in tight]))
    return 0 if exact else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.causal import path_delay_sum
    from repro.obs.spans import spans_to_dicts

    design, provenance, result, segments = _profiled_run(args)

    lines: List[str] = []
    for entry in spans_to_dicts():
        lines.append(json.dumps({"type": "span", **entry}, sort_keys=True, default=str))
    for record in provenance:
        lines.append(json.dumps({"type": "provenance", **record.to_dict()}, sort_keys=True, default=str))
    for event in result.trace.to_dicts():
        lines.append(json.dumps({"type": "event", **event}, sort_keys=True, default=str))
    summary = {
        "type": "summary",
        "workload": args.workload,
        "level": args.level,
        "seed": result.seed,
        "makespan": result.end_time,
        "events_processed": result.events_processed,
        "critical_path_events": len(segments),
        "critical_path_delay_sum": path_delay_sum(segments),
        "provenance_records": len(provenance),
    }
    lines.append(json.dumps(summary, sort_keys=True, default=str))

    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {args.jsonl} ({len(lines)} records)")
    else:
        for line in lines:
            print(line)
    return 0


def _report_sweep_tail(result, interrupted: bool) -> int:
    """The report tail both explore modes share: list failed and
    non-conformant points, then map the sweep onto its exit code."""
    from repro.errors import sweep_exit_code

    failed = result.failed_points()
    if failed:
        print(f"{len(failed)} FAILED points (excluded from the frontier):")
        for point in failed:
            print(f"  {point.label}: {point.error}")
    bad = [point for point in result.points if point.status == "ok" and not point.conformant]
    if bad:
        print(f"{len(bad)} NON-CONFORMANT points:")
        for point in bad:
            print(f"  {point.label}: {point.conformance}")
    if result.points and len(failed) == len(result.points):
        print("every point failed to evaluate")
    return sweep_exit_code(
        interrupted=interrupted,
        total=len(result.points),
        failed=len(failed),
        issues=len(bad),
    )


def _cmd_explore_space(args: argparse.Namespace) -> int:
    """Sharded mode (``--space`` / ``--shards`` / ``--workers N``)."""
    from repro.cache.shards import explore_space
    from repro.cache.space import ParameterSpace
    from repro.errors import SpaceError

    try:
        if args.space:
            space = ParameterSpace.from_file(args.space)
        else:
            args.workload = _resolve_workload(args)
            space = ParameterSpace.for_workload(args.workload)
    except SpaceError as exc:
        print(f"repro explore: {exc}")
        return 2
    injector = None
    if args.inject_fail is not None:
        from repro.resilience import parse_inject_spec

        injector = parse_inject_spec(args.inject_fail)
    run_dir = args.resume or args.run_dir
    if args.shards:
        shards = args.shards
    elif args.workers is not None:
        # a shard dispatches one unit at a time, so N processes are N
        # one-process shards (0 = one per CPU)
        shards = args.workers or os.cpu_count() or 1
    else:
        shards = 2

    live = None
    if args.live_frontier:
        last = {"size": 0, "best": None}

        def live(completed, total, frontier, point):
            best = frontier.best()
            snapshot = (len(frontier), None if best is None else best.objectives())
            if snapshot == (last["size"], last["best"]):
                return
            last["size"], last["best"] = snapshot
            if best is not None:
                print(
                    f"[{completed}/{total}] frontier={len(frontier)} "
                    f"best=(channels={best.channels}, states={best.total_states}, "
                    f"makespan={best.makespan:.1f})",
                    flush=True,
                )

    try:
        result = explore_space(
            space,
            shards=shards,
            run_dir=run_dir,
            resume=args.resume is not None,
            live=live,
            stop_after=args.stop_after,
            fault_injector=injector,
            point_timeout=args.timeout,
        )
    except KeyboardInterrupt:
        from repro.errors import EXIT_INTERRUPTED

        print("interrupted before any results completed")
        return EXIT_INTERRUPTED
    interrupted = bool(result.stats.get("interrupted"))

    frontier = result.pareto_points()
    frontier_ids = set(map(id, frontier))
    headers = (
        "scenario", "delays", "seed", "configuration",
        "channels", "states", "makespan", "conformant", "proved",
    )
    rows = []
    for point, document in zip(result.points, result.documents):
        if id(point) not in frontier_ids:
            continue
        rows.append(
            (
                document["scenario"],
                document["delay_model"],
                document["sim_seed"],
                point.label,
                point.channels,
                point.total_states,
                f"{point.makespan:.1f}",
                "yes" if point.conformant else "NO",
                "yes" if point.proved else "NO",
            )
        )
    rows.sort(key=lambda row: (row[0], row[1], row[2], row[3]))
    print(render_table(headers, tuple(rows)))
    if args.json:
        from repro.verify.schema import write_envelope

        write_envelope(args.json, "explore", result.documents)
        print(f"wrote {args.json}")
    effective = result.stats.get("effective_shards", shards)
    shard_label = f"{shards} shards"
    if effective != shards:  # clamped to the host's available CPUs
        shard_label += f" ({effective} effective)"
    summary = (
        f"{len(frontier)} Pareto-optimal of {len(result.points)} explored points "
        f"({result.stats['contexts']} contexts x {space.points_per_context} grid points, "
        f"{shard_label})"
    )
    if result.stats.get("resumed_points"):
        summary += f"; resumed {result.stats['resumed_points']} from {run_dir}"
    if result.stats.get("stolen_units"):
        summary += f"; {result.stats['stolen_units']} units stolen"
    if interrupted or not result.complete:
        summary += " (partial sweep)"
    print(summary)
    for error in result.stats.get("shard_errors", ()):
        print(f"SHARD ERROR: {error}")
    return _report_sweep_tail(result, interrupted)


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.cache.store import DEFAULT_CACHE_DIR, ArtifactCache
    from repro.explore import explore_design_space

    if args.space or args.shards or args.resume or args.run_dir or args.workers not in (None, 1):
        return _cmd_explore_space(args)
    args.workload = _resolve_workload(args)
    cdfg = WORKLOADS[args.workload]()
    cache = None
    if args.cache:
        cache = ArtifactCache(args.cache_dir or DEFAULT_CACHE_DIR)
    injector = None
    if args.inject_fail is not None:
        from repro.resilience import parse_inject_spec

        injector = parse_inject_spec(args.inject_fail)
    try:
        result = explore_design_space(
            cdfg,
            cache=cache,
            fault_injector=injector,
            point_timeout=args.timeout,
        )
    except KeyboardInterrupt:
        # interrupted outside the evaluation loop: nothing to report,
        # but whatever the cache already holds is worth keeping
        if cache is not None and cache.directory is not None:
            cache.save()
        from repro.errors import EXIT_INTERRUPTED

        print("interrupted before any results completed")
        return EXIT_INTERRUPTED
    interrupted = bool(result.stats.get("interrupted"))
    frontier = result.pareto_points()
    headers = [
        "configuration",
        "channels",
        "states",
        "makespan",
        "provenance",
        "bottleneck",
        "conformant",
        "proved",
    ]
    probes = {}
    if args.faults:
        from repro.resilience import quick_probe
        from repro.sim.seeding import NOMINAL
        from repro.sim.token_sim import simulate_tokens

        headers.append("faults")
        golden = simulate_tokens(cdfg, seed=NOMINAL).registers
        for point in frontier:
            probes[point.global_transforms] = quick_probe(
                cdfg, point.global_transforms, seed=args.seed, golden=golden
            )
    rows = []
    for point in sorted(frontier, key=lambda p: p.objectives()):
        row = [
            point.label,
            point.channels,
            point.total_states,
            f"{point.makespan:.1f}",
            point.provenance_records,
            point.bottleneck or "-",
            "yes" if point.conformant else "NO",
            "yes" if point.proved else "NO",
        ]
        if args.faults:
            row.append(probes[point.global_transforms])
        rows.append(tuple(row))
    print(render_table(tuple(headers), rows))
    if args.json:
        from repro.verify.schema import write_envelope

        write_envelope(
            args.json, "explore", [point.to_dict() for point in result.points]
        )
        print(f"wrote {args.json}")
    summary = f"{len(frontier)} Pareto-optimal of {len(result.points)} explored points"
    if interrupted:
        summary += " (interrupted — partial sweep)"
    print(summary)
    if "watchdog_active" in result.stats:
        state = (
            "armed"
            if result.stats["watchdog_active"]
            else "NOT ENFORCED (SIGALRM unavailable or off the main thread)"
        )
        print(f"point watchdog: {state} ({args.timeout:g}s per point)")
    if cache is not None:
        stats = cache.stats()
        print(
            f"cache: {stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['entries']} entries in {cache.path}"
        )
    return _report_sweep_tail(result, interrupted)


def _compare_and_record(
    args: argparse.Namespace, bench_name: str, wall: float, result: Dict, keys
) -> None:
    """``--compare`` against the last recorded run of ``bench_name``,
    then (unless ``--no-record``) append this run with ``keys`` of
    ``result`` as its metrics."""
    from repro.bench import compare_last, record

    comparison = compare_last(bench_name, wall, path=args.output)
    if args.compare:
        if comparison is None:
            print("no prior run to compare against")
        else:
            direction = "slower" if comparison["ratio"] > 1 else "faster"
            print(
                f"vs last run ({comparison['previous_timestamp']}): "
                f"{comparison['previous']:.3f}s -> {comparison['current']:.3f}s "
                f"({comparison['ratio']:.2f}x, {direction})"
            )
    if not args.no_record:
        metrics = {key: result[key] for key in keys if key in result}
        entry = record(bench_name, wall, path=args.output, **metrics)
        print(f"recorded {entry['bench']} ({entry['timestamp']})")


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_explore_bench

    if args.sim:
        return _cmd_bench_sim(args)
    if args.explore:
        return _cmd_bench_scaling(args)
    if args.serve:
        return _cmd_bench_serve(args)
    bench_name = f"explore_incremental/{args.workload}"
    result = run_explore_bench(args.workload, cache_dir=args.cache_dir)
    for key in ("cold", "warm"):
        print(f"{key:>18}: {result[key]:.3f}s")
    print(f"{'speedup_warm':>18}: {result['speedup_warm']}x (cold / warm)")
    print(
        f"{'grid':>18}: {result['points']} points -> {result['evaluations']} "
        f"evaluations over {result['edges']} trie edges"
    )
    print(f"{'identical':>18}: {result['identical']}")

    _compare_and_record(
        args, bench_name, result["cold"], result,
        ("points", "evaluations", "edges", "warm", "speedup_warm", "identical"),
    )
    if args.check and not result["identical"]:
        print("FAIL: cold and warm exploration results diverge")
        return 1
    return 0


def _cmd_bench_scaling(args: argparse.Namespace) -> int:
    """Sharded-exploration scaling benchmark (``bench --explore``)."""
    from repro.bench import run_scaling_bench

    bench_name = f"explore_sharded/{args.workload}/shards={args.shards}"
    result = run_scaling_bench(
        shards=args.shards,
        workloads=(args.workload,),
        check_resume=not args.no_resume_check,
    )
    print(f"{'space':>18}: {result['points']} points over {result['contexts']} contexts")
    print(f"{'single-pool':>18}: {result['single_pool_wall']:.3f}s "
          f"({result['pps_single']} points/s, serial per context)")
    print(f"{'one shard':>18}: {result['one_shard_wall']:.3f}s")
    effective = result.get("effective_shards", args.shards)
    shard_label = f"{args.shards} shards"
    if effective != args.shards:  # clamped to the host's available CPUs
        shard_label += f" ({effective} effective)"
    print(f"{'sharded':>18}: {result['sharded_wall']:.3f}s "
          f"({result['pps_sharded']} points/s, {shard_label})")
    print(f"{'memo gain':>18}: {result['memo_gain']}x (single-pool / one shard)")
    print(f"{'parallel gain':>18}: {result['parallel_gain']}x "
          f"(one shard / sharded; shard efficiency {result['shard_efficiency']})")
    print(f"{'resume':>18}: {result['resume_wall']:.3f}s "
          f"({result['resume_speedup']}x vs cold)")
    if "identical_resume" in result:
        print(f"{'killed-run resume':>18}: "
              f"{'byte-identical' if result['identical_resume'] else 'DIVERGED'}")
    print(f"{'identical':>18}: {result['identical']}")

    _compare_and_record(
        args, bench_name, result["sharded_wall"], result,
        (
            "points", "contexts", "shards", "effective_shards",
            "single_pool_wall", "one_shard_wall", "pps_single", "pps_sharded",
            "memo_gain", "parallel_gain", "shard_efficiency", "stolen_units",
            "resume_wall", "resume_speedup", "identical", "identical_resume",
        ),
    )
    if args.check and not result["identical"]:
        print("FAIL: sharded and single-pool exploration results diverge")
        return 1
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    """Duplicate-load test against a live job server (``bench --serve``)."""
    from repro.bench import run_serve_bench

    clients = args.clients
    bench_name = f"serve_duplicate_load/{args.workload}/clients={clients}"
    result = run_serve_bench(
        clients=clients,
        workload=args.workload,
        workers=args.workers or 4,
    )
    print(f"{'clients':>18}: {result['clients']} duplicate submissions over HTTP")
    print(f"{'submit latency':>18}: p50 {result['p50_ms']}ms, "
          f"p99 {result['p99_ms']}ms, max {result['max_ms']}ms")
    print(f"{'dedup':>18}: {result['dedup_hits']} hits / "
          f"{result['submissions']} submissions "
          f"(rate {result['dedup_hit_rate']}, {result['executions']} execution(s))")
    print(f"{'wall':>18}: {result['wall']:.3f}s until every client had the result")
    print(f"{'identical':>18}: {result['identical']}")

    _compare_and_record(
        args, bench_name, result["wall"], result,
        (
            "clients", "workers", "executor", "p50_ms", "p99_ms", "max_ms",
            "dedup_hit_rate", "dedup_hits", "executions", "submissions",
            "identical",
        ),
    )
    if args.check:
        if result["dedup_hit_rate"] < 0.9:
            print(f"FAIL: dedup hit-rate {result['dedup_hit_rate']} below the 0.9 floor")
            return 1
        if not result["identical"]:
            print("FAIL: clients observed diverging result documents")
            return 1
    return 0


def _cmd_bench_sim(args: argparse.Namespace) -> int:
    from repro.bench import run_batched_sim_bench

    bench_name = f"batched_sim/{args.workload}/trials={args.trials}"
    result = run_batched_sim_bench(args.workload, trials=args.trials)
    print(f"{'scalar':>18}: {result['scalar_wall']:.3f}s")
    print(f"{'batched':>18}: {result['batched_wall']:.3f}s")
    print(f"{'speedup':>18}: {result['speedup']}x")
    print(f"{'identical':>18}: {result['identical']}")

    _compare_and_record(
        args, bench_name, result["batched_wall"], result,
        ("scalar_wall", "batched_wall", "speedup", "identical", "trials"),
    )
    if args.check and not result["identical"]:
        print("FAIL: scalar and batched campaign reports diverge")
        return 1
    return 0


def _cmd_verify_replay(args: argparse.Namespace) -> int:
    """Re-derive a proof certificate file and byte-compare (``--replay``)."""
    import json

    from repro.verify import replay_flow_report
    from repro.verify.schema import load_envelope

    with open(args.replay, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict) and "reports" in payload:
        documents = load_envelope(payload)["reports"]
    else:
        documents = [payload]
    ok = True
    for document in documents:
        identical, message = replay_flow_report(document)
        ok = ok and identical
        print(("REPLAYED " if identical else "DIVERGED ") + message)
    return 0 if ok else 1


def _cmd_verify_proofs(args: argparse.Namespace, names: List[str]) -> int:
    """Flow-equivalence proof mode (``--proofs`` / ``--proofs-json``)."""
    from repro.verify import prove_workload
    from repro.verify.schema import write_envelope

    reports = []
    for name in names:
        report = prove_workload(name, minimize=args.minimize)
        reports.append(report)
        print(report.summary())
        for proof in report.counterexamples():
            print(f"  counterexample {proof.stage}[{proof.subject}]: "
                  f"{proof.counterexample}")
    if args.proofs_json:
        write_envelope(
            args.proofs_json, "flow-proofs", [report.to_dict() for report in reports]
        )
        print(f"wrote {args.proofs_json}")
    return 0 if all(report.proved for report in reports) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import fuzz_workload
    from repro.workloads import workload_names

    if args.replay:
        return _cmd_verify_replay(args)
    if args.workload is None and not getattr(args, "workload_from", None):
        print("repro verify: a workload (or 'all') is required unless --replay is given")
        return 2
    args.workload = _resolve_workload(args, extra=("all",))
    names = list(workload_names()) if args.workload == "all" else [args.workload]
    if args.proofs or args.proofs_json:
        return _cmd_verify_proofs(args, names)
    reports = []
    for name in names:
        report = fuzz_workload(
            name,
            runs=args.runs,
            seed=args.seed,
            budget=args.budget,
            shrink=not args.no_shrink,
        )
        reports.append(report)
        print(report.summary())
    if args.json:
        from repro.verify.schema import write_envelope

        write_envelope(args.json, "verify", [report.to_dict() for report in reports])
        print(f"wrote {args.json}")
    conformant = all(report.conformant for report in reports)
    if args.timing_samples:
        from repro.verify import sampled_timing_campaign

        timing_reports = []
        for name in names:
            timing = sampled_timing_campaign(
                name, samples=args.timing_samples, seed=args.seed
            )
            timing_reports.append(timing)
            print(timing.summary())
        if args.timing_json:
            import json

            payload = [timing.to_dict() for timing in timing_reports]
            with open(args.timing_json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(f"wrote {args.timing_json}")
        conformant = conformant and all(t.conformant for t in timing_reports)
    return 0 if conformant else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.resilience import run_campaign

    args.workload = _resolve_workload(args)

    if args.batched or args.mc_samples:
        from repro.errors import EXIT_FATAL
        from repro.sim.batched import HAVE_NUMPY, NUMPY_HINT

        if not HAVE_NUMPY:
            print(NUMPY_HINT)
            return EXIT_FATAL
    report = run_campaign(
        args.workload,
        seed=args.seed,
        trials=args.trials,
        scale_max=args.scale_max,
        magnitude_max=args.magnitude,
        batched=args.batched,
        mc_samples=args.mc_samples,
        spot_check=args.spot_check,
    )
    print(report.summary())
    failed_trials = [trial for trial in report.trials if not trial.ok]
    for trial in failed_trials:
        print(f"  trial {trial.index}: {trial.status} — {trial.detail}")
    if args.json:
        from repro.verify.schema import write_envelope

        write_envelope(args.json, "faults", [report.to_dict()])
        print(f"wrote {args.json}")
    from repro.errors import sweep_exit_code

    return sweep_exit_code(issues=0 if report.healthy else 1)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import EXIT_INTERRUPTED, EXIT_ISSUES, EXIT_OK
    from repro.resilience.pool import RetryPolicy
    from repro.serve.server import ServerConfig, serve_forever

    policy = RetryPolicy(
        max_retries=args.max_retries,
        base_delay=args.base_delay,
        max_delay=args.max_delay,
        seed=args.seed,
    )
    if args.drill:
        import tempfile

        from repro.serve.chaos import chaos_drill, format_drill_report

        with tempfile.TemporaryDirectory(prefix="repro-serve-drill-") as workdir:
            report = chaos_drill(
                workdir, seed=args.seed, executor=args.executor
            )
        print(format_drill_report(report))
        return EXIT_OK if report["ok"] else EXIT_ISSUES

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        executor=args.executor,
        queue_depth=args.queue_depth,
        client_cap=args.client_cap,
        job_timeout=args.timeout,
        policy=policy,
        drain_grace=args.drain_grace,
    )
    import asyncio

    try:
        asyncio.run(serve_forever(args.store, config))
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    return EXIT_OK


def _cmd_dot(args: argparse.Namespace) -> int:
    args.workload = _resolve_workload(args)
    cdfg = WORKLOADS[args.workload]()
    if args.optimized:
        cdfg = optimize_global(cdfg).cdfg
    text = to_dot(cdfg, title=f"{args.workload} ({'optimized' if args.optimized else 'input'})")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_vcd(args: argparse.Namespace) -> int:
    from repro.sim.trace import VcdTracer

    args.workload = _resolve_workload(args)
    design, __ = _build_design(args.workload, args.level)
    system = ControllerSystem(design, seed=args.seed)
    tracer = VcdTracer(system)
    result = tracer.run()
    with open(args.output, "w", encoding="utf-8") as handle:
        tracer.write(handle)
    print(f"wrote {args.output} ({len(tracer.changes)} value changes, "
          f"makespan {result.end_time:.1f}, seed {_format_seed(result.seed)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Asynchronous distributed control synthesis (Theobald/Nowick DAC'01 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="regenerate every paper table/figure")

    compile_cmd = sub.add_parser(
        "compile", help="compile a Python-subset kernel file to a scheduled CDFG"
    )
    compile_cmd.add_argument("file", help="path to a .py file defining the kernel")
    compile_cmd.add_argument(
        "--kernel", default=None, help="function name when the file defines several"
    )
    compile_cmd.add_argument(
        "--bounds",
        default=None,
        metavar="SPEC",
        help="per-class functional-unit bounds, e.g. MUL=2,ALU=1",
    )

    def _add_workload_arguments(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "workload",
            nargs="?",
            default=None,
            help="registered workload name (or use --workload-from)",
        )
        command.add_argument(
            "--workload-from",
            default=None,
            metavar="FILE[:KERNEL]",
            help="compile FILE with the Python-subset frontend and run "
            "on the resulting kernel instead of a registered workload",
        )
        command.add_argument(
            "--bounds",
            default=None,
            metavar="SPEC",
            help="functional-unit bounds for --workload-from, e.g. MUL=2,ALU=1",
        )

    for name, help_text in (
        ("synthesize", "run the synthesis flow and print the controllers"),
        ("simulate", "execute a synthesized design"),
        ("vcd", "dump a VCD waveform of a run"),
        ("profile", "spans, provenance and simulation critical path"),
        ("trace", "stream spans/provenance/events as JSONL"),
    ):
        command = sub.add_parser(name, help=help_text)
        _add_workload_arguments(command)
        command.add_argument("--level", choices=LEVELS, default="gt+lt")
        command.add_argument(
            "--seed",
            type=_parse_seed,
            default=0,
            help="delay sampling: 'nominal', 'random' or an integer (default 0)",
        )
        if name == "synthesize":
            command.add_argument("--verbose", action="store_true")
            command.add_argument(
                "--timings",
                action="store_true",
                help="print per-pass wall time after synthesis",
            )
        if name == "vcd":
            command.add_argument("--output", "-o", default="trace.vcd")
        if name == "trace":
            command.add_argument(
                "--jsonl", default=None, help="write JSONL here instead of stdout"
            )

    explore = sub.add_parser("explore", help="design-space exploration")
    _add_workload_arguments(explore)
    shard_count = explore.add_mutually_exclusive_group()
    shard_count.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run N one-process work-stealing shards (0 = one per CPU; "
        "sharded mode); default (or 1): the serial sweep",
    )
    explore.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=True,
        help="persist the artifact cache across runs (the default; "
        "serial path only)",
    )
    explore.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="skip the on-disk cache (in-process sharing still applies; "
        "serial path only)",
    )
    explore.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache location (default .repro-cache/; serial "
        "path only)",
    )
    explore.add_argument(
        "--faults",
        action="store_true",
        help="add a fault-campaign verdict column to the frontier table "
        "(serial path only)",
    )
    explore.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the --faults probes (default 0)",
    )
    explore.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point wall-clock deadline in seconds (timed-out points fail)",
    )
    explore.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write every explored point (not just the frontier) to "
        "PATH as a repro-report/v1 envelope",
    )
    explore.add_argument(
        "--inject-fail",
        default=None,
        metavar="SPEC",
        help="deterministically fail the GT subsets in SPEC, e.g. "
        "'GT1+GT2,GT3' ('-' for the no-GT point) — for testing the "
        "fault-tolerant sweep",
    )
    explore.add_argument(
        "--space",
        default=None,
        metavar="FILE",
        help="explore a repro-space/v1 parameter space (scenarios x "
        "delay models x seeds x GT/LT grids) instead of one workload's "
        "fixed grid; implies the sharded engine",
    )
    shard_count.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run the sweep on N work-stealing shards, one worker "
        "process each; default 2",
    )
    explore.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="journal every completed point to DIR so a killed run can "
        "be resumed exactly (sharded mode)",
    )
    explore.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume a journaled run from DIR (bit-identical to an "
        "uninterrupted run); implies --run-dir DIR",
    )
    explore.add_argument(
        "--live-frontier",
        action="store_true",
        help="stream the incremental Pareto skyline while points land "
        "(sharded mode)",
    )
    explore.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="N",
        help="stop the sharded sweep after N newly-completed points "
        "(deterministic killed-run drills; the journal stays resumable)",
    )

    bench = sub.add_parser(
        "bench", help="benchmark the exploration sweep and record BENCH_scaling.json"
    )
    bench.add_argument("workload", nargs="?", default="diffeq", choices=sorted(WORKLOADS))
    bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="job-server worker processes for --serve (default 4)",
    )
    bench.add_argument(
        "--compare",
        action="store_true",
        help="print the regression ratio against the last recorded run",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if cold and warm results diverge (CI gate)",
    )
    bench.add_argument(
        "--no-record",
        action="store_true",
        help="measure only; do not append to BENCH_scaling.json",
    )
    bench.add_argument(
        "--output",
        default=None,
        help="results file (default BENCH_scaling.json at the repo root)",
    )
    bench.add_argument(
        "--cache-dir",
        default=None,
        help="bench cache directory (WIPED before the cold run; default a temp dir)",
    )
    bench.add_argument(
        "--sim",
        action="store_true",
        help="benchmark the batched max-plus simulation engine against "
        "the scalar kernel on a full fault campaign instead of the "
        "exploration sweep (--check fails on any report divergence)",
    )
    bench.add_argument(
        "--trials",
        type=int,
        default=256,
        help="randomized fault trials for --sim (default 256)",
    )
    bench.add_argument(
        "--explore",
        action="store_true",
        help="benchmark sharded parameter-space exploration on a "
        "1k-point space: memo gain (single-pool vs one shard), parallel "
        "gain and shard efficiency (one shard vs N), points/sec and "
        "resume speedups; --check fails on any result divergence",
    )
    bench.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count for --explore (default 4)",
    )
    bench.add_argument(
        "--no-resume-check",
        action="store_true",
        help="skip the killed-run resume drill in --explore (faster)",
    )
    bench.add_argument(
        "--serve",
        action="store_true",
        help="duplicate-load test against a live job server: N clients "
        "submit the same job over HTTP; records submit-latency p50/p99 "
        "and the dedup hit-rate (--check fails below the 0.9 floor or "
        "on any result divergence)",
    )
    bench.add_argument(
        "--clients",
        type=int,
        default=64,
        help="concurrent HTTP clients for --serve (default 64)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the crash-safe synthesis job server (HTTP/JSON)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (0 picks an ephemeral one)")
    serve.add_argument(
        "--store",
        default=".repro-cache/serve.sqlite3",
        help="durable job store (SQLite WAL); restartable across kills",
    )
    serve.add_argument("--workers", type=int, default=2,
                       help="pool width for job execution")
    serve.add_argument(
        "--executor",
        choices=("process", "thread"),
        default="process",
        help="worker pool kind (process pools survive worker kills "
        "via rebuild; thread pools are lighter for small jobs)",
    )
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admitted-but-unfinished jobs before 429 shed")
    serve.add_argument("--client-cap", type=int, default=8,
                       help="per-client concurrent job cap before 429 shed")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-job wall deadline in seconds (default none)")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="retry budget for transient worker deaths")
    serve.add_argument("--base-delay", type=float, default=0.05,
                       help="first retry backoff in seconds")
    serve.add_argument("--max-delay", type=float, default=2.0,
                       help="backoff ceiling in seconds")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for the jittered backoff (and --drill)")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       help="seconds SIGTERM waits for running jobs")
    serve.add_argument(
        "--drill",
        action="store_true",
        help="run the chaos acceptance drill (kills, drops, torn rows, "
        "crash + resume) in a scratch directory and exit non-zero on "
        "any lost or diverging job",
    )

    verify = sub.add_parser(
        "verify",
        help="differential conformance fuzzing of every transform level",
    )
    _add_workload_arguments(verify)
    verify.add_argument("--runs", type=int, default=20, help="cases per workload")
    verify.add_argument("--seed", type=int, default=0, help="campaign master seed")
    verify.add_argument(
        "--budget",
        type=float,
        default=None,
        help="stop the campaign after this many seconds",
    )
    verify.add_argument("--json", default=None, help="write the VerifyReport(s) to this path")
    verify.add_argument(
        "--proofs",
        action="store_true",
        help="run the flow-equivalence proof engine instead of the "
        "fuzzer: discharge symbolic per-pass obligations and print one "
        "certificate line per GT/LT application",
    )
    verify.add_argument(
        "--proofs-json",
        default=None,
        metavar="PATH",
        help="write the FlowProof certificates to PATH (implies --proofs)",
    )
    verify.add_argument(
        "--minimize",
        action="store_true",
        help="with --proofs: also run and certify the post-extraction "
        "state-minimization pass",
    )
    verify.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="re-derive the certificates in PATH and byte-compare "
        "(the workload argument is ignored)",
    )
    verify.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing cases as found, without minimization",
    )
    verify.add_argument(
        "--timing-samples",
        type=int,
        default=0,
        metavar="N",
        help="also run a sampled-timing campaign: N batched delay "
        "samples per transform level, each cross-checked bit-for-bit "
        "against the scalar simulator (default 0 = off; needs numpy)",
    )
    verify.add_argument(
        "--timing-json",
        default=None,
        help="write the sampled-timing report(s) to this path",
    )

    faults = sub.add_parser(
        "faults",
        help="delay-fault campaign: GT3 slack, GT5 skew, randomized trials",
    )
    _add_workload_arguments(faults)
    faults.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    faults.add_argument(
        "--trials", type=int, default=8, help="randomized fault trials (default 8)"
    )
    faults.add_argument(
        "--scale-max",
        type=float,
        default=16.0,
        help="cap of the geometric slowdown ladder (default 16)",
    )
    faults.add_argument(
        "--magnitude",
        type=float,
        default=1.0,
        help="largest random fault magnitude (default 1.0 = 2x slowdown)",
    )
    faults.add_argument(
        "--json", default=None, help="write the campaign report to this path"
    )
    faults.add_argument(
        "--batched",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="route every stage simulation through the batched max-plus "
        "engine (bit-exact vs the scalar kernel, so the report is "
        "byte-identical; needs numpy). --no-batched is the scalar "
        "default.",
    )
    faults.add_argument(
        "--mc-samples",
        type=int,
        default=0,
        metavar="N",
        help="add the GT3 Monte-Carlo never-last re-proof over N "
        "sampled delay assignments (default 0 = off; needs numpy)",
    )
    faults.add_argument(
        "--spot-check",
        type=float,
        default=None,
        metavar="FRAC",
        help="fraction of batched samples re-run through the scalar "
        "oracle at runtime (default: engine default, 1/64; 0 disables)",
    )

    dot = sub.add_parser("dot", help="export a CDFG as Graphviz")
    _add_workload_arguments(dot)
    dot.add_argument("--optimized", action="store_true")
    dot.add_argument("--output", "-o", default=None)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "tables": _cmd_tables,
        "compile": _cmd_compile,
        "synthesize": _cmd_synthesize,
        "simulate": _cmd_simulate,
        "profile": _cmd_profile,
        "trace": _cmd_trace,
        "explore": _cmd_explore,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
        "faults": _cmd_faults,
        "serve": _cmd_serve,
        "dot": _cmd_dot,
        "vcd": _cmd_vcd,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
