"""Run the repository benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]

With ``--workload`` the named workload runs in this interpreter: it is
set up several times, measured for ``--seconds`` seconds, and every
metric is printed with its unit and sample count.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.  The
exit code is 0 only when every output check passed.

Without ``--workload`` every workload runs, each in a fresh
interpreter.  ``--out FILE`` appends one JSON line per run for
``bench/compare.py``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts set-up time)
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: scratch space of running benchmarks (inside the checkout, git-ignored)
WORK_ROOT = ROOT / ".bench_runs"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="measure the per-layer metrics instead (traced run)",
    )
    parser.add_argument("--out", help="append this run's result as one JSON line")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in its own interpreter; exit 1 if any fails."""
    results = {}
    for workload in spec["workloads"]:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out:
            command += ["--out", args.out]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        try:
            results[workload["name"]] = json.loads(lines[-1]) if completed.returncode == 0 else None
        except (IndexError, ValueError):
            results[workload["name"]] = None
    correct = all(result is not None and result["correct"] for result in results.values())
    print(json.dumps({"correct": correct, "workloads": results}, sort_keys=True))
    return 0 if correct else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(spec, argv)
    if args.workload is None:
        return run_all(args, spec)

    # import the program from this checkout, and the bench as a package
    # (its trace.py must not shadow the standard library's trace module)
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != Path(__file__).resolve().parent
    ]
    from bench.workloads import measure

    import_s = time.perf_counter() - STARTED
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result.metrics) != set(declared):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(result.metrics) - set(declared))}, "
            f"missing {sorted(set(declared) - set(result.metrics))}"
        )
    bad = [name for name, value in result.metrics.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metric values: {bad}")

    correct = result.failed == 0 and not result.problems
    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    width = max(len(name) for name in declared)
    for name in declared:
        print(
            f"  {name:<{width}}  {result.metrics[name]:>14.6f} {declared[name]:<6}"
            f"  (n={result.samples[name]})"
        )
    print(
        f"  host speed factor {result.host_factor:.4f} (probe time over the reference; "
        "every timing above is divided by it, see bench/hostspeed.py)"
    )
    print(f"  attempted {result.attempted}, failed {result.failed}")
    for problem in result.problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    document = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "host_factor": result.host_factor, **document}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(document, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
