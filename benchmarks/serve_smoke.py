#!/usr/bin/env python
"""Cross-process smoke drill for ``repro serve`` (the CI gate).

The in-process tests cover the protocol; this script covers the one
thing they cannot — a real operating-system ``SIGKILL`` against a real
server process, mid-job:

1. start ``repro serve`` as a subprocess on an ephemeral port;
2. submit a mix of duplicate and distinct jobs over HTTP, recording
   the dedup hit-rate;
3. submit a slow job, wait until it is ``RUNNING``, then ``kill -9``
   the server;
4. restart the server on the same store and verify the job was
   recovered and re-executed to a **byte-identical** result (checked
   against an in-process execution of the same canonical job);
5. drain gracefully and report.

Exit code: 0 on success, 1 on any violated guarantee (the shared
``issues`` taxonomy).

Usage: PYTHONPATH=src python benchmarks/serve_smoke.py [workdir]
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.jobs import canonical_json, canonical_params, execute_job  # noqa: E402

VERIFY = {"workload": "gcd", "runs": 2, "seed": 11}
SYNTH = {"workload": "gcd", "level": "gt+lt"}
DUPLICATES = 8

_failures = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"  [{'ok ' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    if not ok:
        _failures.append(name)


def start_server(store: Path) -> "tuple[subprocess.Popen, ServeClient]":
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--store", str(store),
            "--workers", "2", "--executor", "process",
            "--max-retries", "2", "--base-delay", "0.05",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        # own process group: the kill takes the forkserver and its pool
        # workers down with the server instead of orphaning them
        start_new_session=True,
        env=dict(
            os.environ,
            PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
        ),
    )
    line = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", line)
    if not match:
        kill_group(proc)
        raise RuntimeError(f"could not parse server banner: {line!r}")
    client = ServeClient(match.group(1), int(match.group(2)), timeout=60.0)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            if client.healthz()["status"] == "ok":
                return proc, client
        except Exception:
            time.sleep(0.05)
    kill_group(proc)
    raise RuntimeError("server never became healthy")


def kill_group(proc: subprocess.Popen) -> None:
    """``kill -9`` the server's whole process group, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=30)


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="repro-serve-smoke-")
    )
    workdir.mkdir(parents=True, exist_ok=True)
    store = workdir / "smoke.sqlite3"
    print(f"serve smoke drill (store {store})")

    # expected results, computed in-process from the canonical params —
    # the byte-identity oracle for everything the server returns
    expected_verify = canonical_json(
        execute_job("verify", canonical_params("verify", VERIFY))
    )
    expected_synth = canonical_json(
        execute_job("synthesize", canonical_params("synthesize", SYNTH))
    )

    proc, client = start_server(store)
    try:
        # -- duplicates + distinct jobs -------------------------------
        first = client.run("verify", VERIFY, client="smoke", timeout=180.0)
        check("distinct job #1 DONE", first["state"] == "DONE", first["error"])
        check(
            "result matches in-process execution",
            canonical_json(first["result"]) == expected_verify,
        )
        for __ in range(DUPLICATES):
            duplicate = client.submit("verify", dict(VERIFY), client="smoke")
            if duplicate["state"] != "DONE":
                duplicate = client.wait(duplicate["job_id"], timeout=60.0)
            check(
                "duplicate served identically",
                canonical_json(duplicate["result"]) == expected_verify,
            )
        stats = client.stats()["store"]
        check(
            "duplicates deduplicated without re-execution",
            stats["executions"] == 1 and stats["dedup_hits"] >= DUPLICATES,
            f"executions={stats['executions']}, dedup_hits={stats['dedup_hits']}",
        )
        rate = stats["dedup_hit_rate"]
        check(f"dedup hit-rate {rate}", rate >= 0.8, f"{DUPLICATES} dups / 1 fresh")

        # -- SIGKILL mid-job ------------------------------------------
        slow = client.submit(
            "synthesize", dict(SYNTH, _chaos={"sleep": 3.0}), client="smoke"
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            current = client.job(slow["job_id"])
            if current and current["state"] == "RUNNING":
                break
            time.sleep(0.05)
        check("slow job reached RUNNING", current["state"] == "RUNNING")
        kill_group(proc)
        print(f"  ... SIGKILLed server pid {proc.pid} (and its workers) mid-job")
    finally:
        kill_group(proc)

    # -- restart: recovery must be exact ------------------------------
    proc, client = start_server(store)
    try:
        health = client.healthz()
        check(
            "restart recovered the in-flight job",
            health["recovered_jobs"] == 1,
            f"recovered_jobs={health['recovered_jobs']}",
        )
        resumed = client.wait(slow["job_id"], timeout=300.0)
        check("resumed job DONE", resumed["state"] == "DONE", resumed["error"])
        check(
            "resumed result byte-identical",
            canonical_json(resumed["result"]) == expected_synth,
        )
        stats = client.stats()["store"]
        check(
            "no double execution after the kill",
            stats["ignored_results"] == 0,
            f"ignored_results={stats['ignored_results']}",
        )
        print(
            f"  dedup hit-rate {stats['dedup_hit_rate']}, "
            f"executions {stats['executions']}, "
            f"recovered {stats['recovered']}, states {stats['states']}"
        )
        client.drain()
        proc.wait(timeout=60)
        check("drained server exited cleanly", proc.returncode == 0,
              f"returncode={proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        kill_group(proc)  # reap whatever is left in its group

    if _failures:
        print(f"serve smoke drill: FAIL ({len(_failures)} violated guarantees)")
        return 1
    print("serve smoke drill: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
