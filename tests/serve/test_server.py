"""End-to-end server contracts over real HTTP.

Each test boots a full :class:`~repro.serve.server.JobServer` on an
ephemeral port via the threaded harness and talks to it with the
blocking client — the same stack ``repro serve`` deploys, minus the
process boundary (covered by ``benchmarks/serve_smoke.py``).
"""

import pytest

from repro.resilience.pool import RetryPolicy
from repro.serve.harness import ServerHarness
from repro.serve.jobs import canonical_json
from repro.serve.server import ServerConfig

VERIFY = {"workload": "gcd", "runs": 1}


def _config(**overrides):
    base = dict(
        workers=2,
        executor="thread",
        policy=RetryPolicy(max_retries=2, base_delay=0.01, max_delay=0.1),
    )
    base.update(overrides)
    return ServerConfig(**base)


class TestHappyPath:
    def test_submit_wait_result(self, tmp_path):
        with ServerHarness(tmp_path / "s.sqlite3", _config()) as harness:
            client = harness.client()
            assert client.healthz()["status"] == "ok"
            job = client.run("verify", VERIFY, timeout=120.0)
            assert job["state"] == "DONE"
            assert job["result"]["report"]["workload"] == "gcd"
            listing = client.jobs()
            assert [entry["job_id"] for entry in listing] == [job["job_id"]]

    def test_duplicate_submission_served_from_cache(self, tmp_path):
        with ServerHarness(tmp_path / "s.sqlite3", _config()) as harness:
            client = harness.client()
            first = client.run("verify", VERIFY, timeout=120.0)
            second = client.submit("verify", dict(VERIFY))
            assert second["state"] == "DONE" and second["dedup"]
            assert canonical_json(second["result"]) == canonical_json(
                first["result"]
            )
            assert client.stats()["store"]["executions"] == 1

    def test_bad_submission_is_400_with_taxonomy(self, tmp_path):
        with ServerHarness(tmp_path / "s.sqlite3", _config()) as harness:
            status, payload = harness.client().request(
                "POST", "/jobs", {"kind": "verify", "params": {"workload": "zz"}}
            )
            assert status == 400
            assert payload["exit_class"] == "fatal"

    def test_unknown_routes_and_methods(self, tmp_path):
        with ServerHarness(tmp_path / "s.sqlite3", _config()) as harness:
            client = harness.client()
            assert client.request("GET", "/nope")[0] == 404
            assert client.request("DELETE", "/jobs")[0] == 405
            assert client.request("GET", "/jobs/j999999")[0] == 404


class TestAdmissionControl:
    def test_queue_full_sheds_fresh_work_but_admits_duplicates(self, tmp_path):
        config = _config(queue_depth=1, workers=1)
        with ServerHarness(tmp_path / "s.sqlite3", config) as harness:
            client = harness.client()
            # a slow job occupies the whole queue budget
            slow = client.submit(
                "verify", dict(VERIFY, _chaos={"sleep": 2.0}), wait_shed=False
            )
            status, payload = client.request(
                "POST",
                "/jobs",
                {"kind": "verify", "params": {"workload": "gcd", "runs": 3}},
            )
            assert status == 429
            # ... but a duplicate of the queued job costs nothing: admitted
            duplicate = client.submit(
                "verify", dict(VERIFY, _chaos={"sleep": 2.0}), wait_shed=False
            )
            assert duplicate["job_id"] == slow["job_id"]
            assert client.stats()["server"]["shed"] == 1
            client.wait(slow["job_id"], timeout=120.0)

    def test_per_client_cap(self, tmp_path):
        config = _config(client_cap=1, workers=1, queue_depth=16)
        with ServerHarness(tmp_path / "s.sqlite3", config) as harness:
            client = harness.client()
            client.submit(
                "verify", dict(VERIFY, _chaos={"sleep": 1.0}),
                client="greedy", wait_shed=False,
            )
            status, payload = client.request(
                "POST",
                "/jobs",
                {
                    "kind": "verify",
                    "params": {"workload": "gcd", "runs": 2},
                    "client": "greedy",
                },
            )
            assert status == 429 and "cap" in payload["error"]
            # a different client is not punished for greedy's backlog
            other = client.submit(
                "verify", {"workload": "gcd", "runs": 2}, client="modest"
            )
            assert other["state"] in ("SUBMITTED", "RUNNING", "DONE")


class TestRetries:
    def test_transient_worker_death_is_retried_to_success(self, tmp_path):
        marker = tmp_path / "die.marker"
        with ServerHarness(tmp_path / "s.sqlite3", _config()) as harness:
            client = harness.client()
            job = client.submit(
                "verify", dict(VERIFY, _chaos={"raise_once": str(marker)})
            )
            final = client.wait(job["job_id"], timeout=120.0)
            assert final["state"] == "DONE"
            assert final["attempts"] == 2
            assert client.stats()["store"]["retries"] == 1

    def test_retry_budget_exhausts_to_failed(self, tmp_path):
        config = _config(policy=RetryPolicy(max_retries=0, base_delay=0.01))
        marker = tmp_path / "die.marker"
        with ServerHarness(tmp_path / "s.sqlite3", config) as harness:
            client = harness.client()
            # raise_once + a fresh marker each attempt = dies every time
            job = client.submit(
                "verify", dict(VERIFY, _chaos={"raise_once": str(marker)})
            )
            marker.unlink(missing_ok=True)
            final = client.wait(job["job_id"], timeout=120.0)
            # with zero retries the first death is terminal
            assert final["state"] == "FAILED"
            assert final["exit_class"] == "issues"


class TestTimeouts:
    def test_job_deadline_times_out_with_taxonomy(self, tmp_path):
        config = _config(job_timeout=0.3, workers=1)
        with ServerHarness(tmp_path / "s.sqlite3", config) as harness:
            client = harness.client()
            job = client.submit("verify", dict(VERIFY, _chaos={"sleep": 5.0}))
            final = client.wait(job["job_id"], timeout=120.0)
            assert final["state"] == "TIMED_OUT"
            assert final["exit_class"] == "issues"


class TestCrashRecovery:
    def test_kill_mid_job_resumes_byte_identically(self, tmp_path):
        store_path = tmp_path / "s.sqlite3"
        # baseline result from an undisturbed server
        with ServerHarness(tmp_path / "baseline.sqlite3", _config()) as harness:
            baseline = harness.client().run("verify", VERIFY, timeout=120.0)

        harness = ServerHarness(store_path, _config()).start()
        client = harness.client()
        job = client.submit("verify", dict(VERIFY, _chaos={"sleep": 1.5}))
        job_id = job["job_id"]
        import time

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            current = client.job(job_id)
            if current and current["state"] == "RUNNING":
                break
            time.sleep(0.02)
        harness.crash()  # SIGKILL semantics: no drain, no close

        resumed = ServerHarness(store_path, _config()).start()
        try:
            assert resumed.server.recovered_jobs == 1
            final = resumed.client().wait(job_id, timeout=120.0)
            assert final["state"] == "DONE"
            assert canonical_json(final["result"]) == canonical_json(
                baseline["result"]
            )
        finally:
            resumed.stop()


class TestDrain:
    def test_drain_rejects_new_work_and_reports_draining(self, tmp_path):
        harness = ServerHarness(tmp_path / "s.sqlite3", _config()).start()
        try:
            client = harness.client()
            client.run("verify", VERIFY, timeout=120.0)
            assert client.drain()["status"] == "draining"
        finally:
            harness.stop()
        # post-drain the durable queue is intact and empty of surprises
        from repro.serve.store import JobStore

        store = JobStore(tmp_path / "s.sqlite3")
        assert store.counts()["RUNNING"] == 0
        store.close()


class TestWorkerPoolIsolation:
    def test_process_pool_workers_never_inherit_server_fds(self):
        """Plain fork-context workers snapshot every FD open at spawn
        time.  A worker forked while a request was in flight kept a
        copy of the accepted socket, so the server's close() never
        sent FIN and that client hung until its socket timeout (the
        spawn races real traffic: first dispatch and every rebuild).
        The runner must therefore build its pool from the forkserver
        context, whose master is started before any connection exists.
        """
        from repro.serve.runner import JobRunner

        runner = JobRunner(workers=1, executor="process")
        try:
            context = runner._pool.mp_context
            assert context.get_start_method() == "forkserver"
        finally:
            runner.shutdown()  # joins the pool and reaps the forkserver


class TestBoundedObservability:
    def test_route_templates_name_spans(self):
        from repro.serve.server import request_path, route_span_name

        def name(method, target):
            return route_span_name(method, request_path(target))

        assert name("GET", "/jobs/j000042?x=1") == "serve/GET /jobs/{id}"
        assert name("POST", "/jobs/") == "serve/POST /jobs"
        assert name("GET", "/no/such/path") == "serve/unmatched"
        assert name("BREW", "/jobs") == "serve/unmatched"

    def test_distinct_ids_and_junk_paths_leave_registries_flat(
        self, tmp_path, monkeypatch
    ):
        """A long-lived server must not grow a section key per job ID or
        junk path, nor keep every request's span forever."""
        import importlib
        from collections import deque

        from repro.obs.spans import section_timings, spans

        registry = importlib.import_module("repro.obs.spans")
        monkeypatch.setattr(registry, "_spans", deque(maxlen=64))
        with ServerHarness(tmp_path / "s.sqlite3", _config()) as harness:
            client = harness.client()

            def burst(start, count):
                for index in range(start, start + count):
                    path = f"/jobs/j{index:06d}" if index % 2 else f"/junk/{index}"
                    assert client.request("GET", path)[0] == 404

            # Spans are named after route templates, never raw paths, so
            # the aggregate view holds the same two names after any burst.
            routes = {"serve/GET /jobs/{id}", "serve/unmatched"}
            burst(0, 100)  # both route names exist; the span ring is full
            assert set(section_timings()) == routes
            assert len(spans()) == 64
            burst(100, 1000)
            assert set(section_timings()) == routes
            assert len(spans()) == 64

    def test_pool_worker_trims_its_span_registry(self):
        """A pool worker runs jobs for as long as the pool lives and
        nothing reads its spans: the registry stays within
        ``SPAN_HISTORY`` across a job without any trim call."""
        from repro.obs.spans import SPAN_HISTORY, reset_spans, span, spans
        from repro.serve.jobs import canonical_params
        from repro.serve.runner import _invoke

        reset_spans()
        try:
            for index in range(SPAN_HISTORY + 10):
                with span(f"filler/{index % 4}"):
                    pass
            assert len(spans()) == SPAN_HISTORY
            params = canonical_params("synthesize", {"workload": "gcd", "level": "gt"})
            assert _invoke("synthesize", params, None)["channels"] > 0
            assert len(spans()) == SPAN_HISTORY
            assert "optimize_global" in {entry.name for entry in spans()}
        finally:
            reset_spans()


def _session_members(session: int):
    """``(pid, state)`` of every process whose session id is ``session``."""
    import os

    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # comm may contain spaces and parentheses: parse after the last ")"
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == session:
            members.append((int(entry), fields[0]))
    return members


class TestProcessLifecycle:
    @pytest.mark.skipif(
        not __import__("os").path.isdir("/proc/self"), reason="needs Linux /proc"
    )
    def test_sigterm_leaves_no_process_of_the_server_session(self, tmp_path):
        """``repro serve`` with process workers starts a forkserver and
        a resource tracker.  After SIGTERM the server must stop and reap
        both before it exits: the moment it has exited, no process of
        its session may remain, running or unreaped."""
        import os
        import re
        import signal
        import subprocess
        import sys
        from pathlib import Path

        from repro.serve.client import ServeClient

        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--store", str(tmp_path / "s.sqlite3"),
                "--workers", "1", "--executor", "process",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
            env=dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", "")),
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no listening banner: {banner!r}"
            client = ServeClient(match.group(1), int(match.group(2)), timeout=60.0)
            job = client.run("verify", VERIFY, timeout=120.0)
            assert job["state"] == "DONE", job
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60.0) == 0
            assert _session_members(proc.pid) == []
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()
