"""JobStore contracts: durable lifecycle, dedup, exactly-once, healing.

The store is the crash-safety foundation: every invariant the server
and the chaos drill rely on is pinned here directly, without HTTP in
the way.
"""

import multiprocessing

import pytest

from repro.serve.jobs import DONE, FAILED, RUNNING, SUBMITTED, TIMED_OUT
from repro.serve.store import JobStore

KEY = "job:abc"
PARAMS = {"workload": "gcd", "runs": 2, "seed": 0}


@pytest.fixture
def store(tmp_path):
    store = JobStore(tmp_path / "jobs.sqlite3")
    yield store
    store.close()


class TestLifecycle:
    def test_submit_claim_finish(self, store):
        job, dedup = store.submit("verify", PARAMS, KEY)
        assert (job.state, dedup) == (SUBMITTED, False)
        assert store.claim(job.job_id)
        assert store.get(job.job_id).state == RUNNING
        assert store.finish(job.job_id, {"answer": 42})
        final = store.get(job.job_id)
        assert final.state == DONE
        assert final.result == {"answer": 42}
        assert final.exit_class == "ok"

    def test_claim_is_exclusive(self, store):
        job, __ = store.submit("verify", PARAMS, KEY)
        assert store.claim(job.job_id)
        assert not store.claim(job.job_id)

    def test_fail_requires_terminal_state(self, store):
        job, __ = store.submit("verify", PARAMS, KEY)
        store.claim(job.job_id)
        with pytest.raises(ValueError):
            store.fail(job.job_id, "x", "issues", state=RUNNING)
        assert store.fail(job.job_id, "deadline", "issues", state=TIMED_OUT)
        assert store.get(job.job_id).state == TIMED_OUT


class TestExactlyOnce:
    def test_late_result_is_ignored_not_applied(self, store):
        job, __ = store.submit("verify", PARAMS, KEY)
        store.claim(job.job_id)
        store.finish(job.job_id, {"first": True})
        # a zombie worker reporting after resolution must be dropped
        assert not store.finish(job.job_id, {"second": True})
        assert not store.fail(job.job_id, "late", "issues")
        assert store.get(job.job_id).result == {"first": True}
        assert store.counters()["ignored_results"] == 2

    def test_finish_without_claim_is_ignored(self, store):
        job, __ = store.submit("verify", PARAMS, KEY)
        assert not store.finish(job.job_id, {"sneaky": True})
        assert store.get(job.job_id).state == SUBMITTED


class TestDedup:
    def test_cached_result_answers_immediately(self, store):
        job, __ = store.submit("verify", PARAMS, KEY)
        store.claim(job.job_id)
        store.finish(job.job_id, {"answer": 42})
        duplicate, dedup = store.submit("verify", PARAMS, KEY)
        assert dedup and duplicate.state == DONE
        assert duplicate.result == {"answer": 42}
        assert duplicate.job_id != job.job_id  # audit trail keeps both
        assert store.counters()["dedup_hits"] == 1

    def test_live_job_coalesces(self, store):
        job, __ = store.submit("verify", PARAMS, KEY)
        duplicate, dedup = store.submit("verify", PARAMS, KEY)
        assert dedup and duplicate.job_id == job.job_id
        assert store.counters()["executions"] == 0  # still just queued

    def test_would_dedup_tracks_cache_and_live_jobs(self, store):
        assert not store.would_dedup(KEY)
        job, __ = store.submit("verify", PARAMS, KEY)
        assert store.would_dedup(KEY)
        store.claim(job.job_id)
        store.finish(job.job_id, {"answer": 42})
        assert store.would_dedup(KEY)
        assert not store.would_dedup("job:other")


class TestRecovery:
    def test_running_jobs_return_to_queue_with_attempts(self, tmp_path):
        path = tmp_path / "jobs.sqlite3"
        store = JobStore(path)
        job, __ = store.submit("verify", PARAMS, KEY)
        store.claim(job.job_id)
        # no close(): simulate the process dying with the WAL open
        reopened = JobStore(path)
        assert reopened.recover() == 1
        recovered = reopened.get(job.job_id)
        assert recovered.state == SUBMITTED
        assert recovered.attempts == 1  # preserved: no crash-loop forever
        reopened.close()
        store.close()

    def test_release_for_retry_counts(self, store):
        job, __ = store.submit("verify", PARAMS, KEY)
        store.claim(job.job_id)
        assert store.release_for_retry(job.job_id, error="worker died")
        again = store.get(job.job_id)
        assert again.state == SUBMITTED and again.error == "worker died"
        assert store.counters()["retries"] == 1


class TestHealing:
    def _finished_job(self, store):
        job, __ = store.submit("verify", PARAMS, KEY)
        store.claim(job.job_id)
        store.finish(job.job_id, {"answer": 42})
        return job

    def test_torn_result_row_heals_to_resubmission(self, store):
        job = self._finished_job(store)
        assert store.corrupt_result_row(KEY)
        healed = store.get(job.job_id)
        assert healed.state == SUBMITTED
        assert store.counters()["quarantined_rows"] >= 1
        # and the cached result is gone, so a new submission re-executes
        assert not store.would_dedup(KEY) or store.get(job.job_id).state == SUBMITTED

    def test_torn_cached_result_quarantined_on_submit(self, store):
        self._finished_job(store)
        store.corrupt_result_row(KEY)
        duplicate, dedup = store.submit("verify", PARAMS, KEY)
        # the torn cache row must never be served; the submission
        # coalesces onto the healed (resubmitted) original instead
        assert duplicate.state != DONE or duplicate.result is not None

    def test_corrupt_database_file_is_quarantined(self, tmp_path):
        path = tmp_path / "jobs.sqlite3"
        store = JobStore(path)
        store.submit("verify", PARAMS, KEY)
        store.close()
        path.write_text("this is not a database")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            fresh = JobStore(path)
        assert fresh.counts()["SUBMITTED"] == 0  # cold start
        assert list(tmp_path.glob("jobs.sqlite3.corrupt-*"))
        fresh.close()

    def test_unknown_format_version_is_refused_not_quarantined(self, tmp_path):
        import sqlite3

        from repro.errors import StoreVersionError

        path = tmp_path / "jobs.sqlite3"
        store = JobStore(path)
        store.submit("verify", PARAMS, KEY)
        store.close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET value = '999' WHERE name = 'version'")
        conn.commit()
        conn.close()
        before = sorted(entry.name for entry in tmp_path.iterdir())
        with pytest.raises(StoreVersionError, match="'999'"):
            JobStore(path)
        # not corrupt: nothing renamed, the jobs still there for the
        # version that wrote them
        assert sorted(entry.name for entry in tmp_path.iterdir()) == before
        conn = sqlite3.connect(str(path))
        assert conn.execute("SELECT value FROM meta WHERE name = 'version'").fetchone() == ("999",)
        assert conn.execute("SELECT COUNT(*) FROM jobs").fetchone() == (1,)
        conn.close()


class TestQueue:
    def test_fifo_dispatch_with_exclusions(self, store):
        first, __ = store.submit("verify", PARAMS, "job:1")
        second, __ = store.submit("verify", PARAMS, "job:2")
        assert store.next_pending().job_id == first.job_id
        assert store.next_pending(exclude=[first.job_id]).job_id == second.job_id
        assert store.next_pending(exclude=[first.job_id, second.job_id]) is None

    def test_depth_and_client_load(self, store):
        store.submit("verify", PARAMS, "job:1", client="alice")
        store.submit("verify", PARAMS, "job:2", client="alice")
        store.submit("verify", PARAMS, "job:3", client="bob")
        assert store.queue_depth() == 3
        assert store.client_load("alice") == 2
        assert store.client_load("carol") == 0

    def test_stats_shape(self, store):
        store.submit("verify", PARAMS, KEY)
        store.submit("verify", PARAMS, KEY)
        stats = store.stats()
        assert stats["submissions"] == 2
        assert stats["dedup_hit_rate"] == 0.5
        assert stats["states"]["SUBMITTED"] == 1


def _race_submitter(path: str, index: int, barrier, queue) -> None:
    store = JobStore(path)
    barrier.wait()
    job, dedup = store.submit("verify", dict(PARAMS), KEY, client=f"p{index}")
    queue.put((job.job_id, dedup))
    store.close()


class TestConcurrentProcesses:
    def test_racing_submitters_coalesce_to_one_execution(self, tmp_path):
        """N processes submitting the same key: one job, N-1 dedups."""
        path = str(tmp_path / "jobs.sqlite3")
        racers = 4
        barrier = multiprocessing.Barrier(racers)
        queue = multiprocessing.Queue()
        workers = [
            multiprocessing.Process(
                target=_race_submitter, args=(path, index, barrier, queue)
            )
            for index in range(racers)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert all(worker.exitcode == 0 for worker in workers)
        outcomes = [queue.get(timeout=10) for _ in range(racers)]
        job_ids = {job_id for job_id, __ in outcomes}
        assert len(job_ids) == 1  # everyone coalesced onto one job
        store = JobStore(path)
        assert store.counts()["SUBMITTED"] == 1
        assert store.counters()["dedup_hits"] == racers - 1
        store.close()
