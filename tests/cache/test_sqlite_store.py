"""The SQLite job store under contention and corruption.

SQLite WAL persists one thing in this repo: the job server's
:class:`~repro.serve.store.JobStore` (exploration artifacts live in the
JSON mirror).  ``tests/serve/test_store.py`` pins the job lifecycle;
this suite pins the storage contracts underneath it:

- the database runs in WAL mode and round-trips results exactly;
- concurrent writers in separate processes lose no row, even when the
  CPUs are oversubscribed;
- a database another connection holds locked is *waited for* (or the
  open raises ``OperationalError`` once the busy timeout is spent) —
  contention is never mistaken for corruption, so nothing is renamed;
- a file SQLite does not recognise as a database is quarantined
  together with its ``-wal``/``-shm`` siblings, and the store starts
  cold;
- a torn result row is healed and counted, leaving other rows intact.
"""

import multiprocessing
import os
import sqlite3
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.serve.jobs import DONE, SUBMITTED
from repro.serve.store import JobStore, connect_wal

SRC = str(Path(__file__).resolve().parents[2] / "src")
WRITERS = 4
ROUNDS = 5
PARAMS = {"workload": "gcd", "runs": 2, "seed": 0}
RESULT = {"makespan": 4.25, "nested": {"pi": 3.141592653589793}, "flag": True}

#: one churning writer: ROUNDS fresh opens, each submitting one job;
#: run under ``-W error::RuntimeWarning`` so a quarantine kills it
_CHURN_WRITER = """
import sys
from repro.serve.store import JobStore
path, index, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
for round_no in range(rounds):
    store = JobStore(path)
    store.submit("verify", {"round": round_no}, f"job:w{index}-r{round_no}")
    store.close()
"""

_BUSY_LOOP = "while True:\n    pass\n"


def _finished(store: JobStore, key: str, result: dict) -> str:
    job, __ = store.submit("verify", PARAMS, key)
    store.claim(job.job_id)
    store.finish(job.job_id, result)
    return job.job_id


class TestBasics:
    def test_put_save_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        job_id = _finished(store, "job:k1", dict(RESULT))
        store.close()
        fresh = JobStore(tmp_path / "jobs.sqlite3")
        job = fresh.get(job_id)
        fresh.close()
        assert (job.state, job.result) == (DONE, RESULT)


class TestQuarantine:
    def test_unopenable_file_quarantined_run_proceeds_cold(self, tmp_path):
        path = tmp_path / "jobs.sqlite3"
        for name in ("jobs.sqlite3", "jobs.sqlite3-wal", "jobs.sqlite3-shm"):
            (tmp_path / name).write_text("definitely not a sqlite database, " * 20)
        with pytest.warns(RuntimeWarning, match="quarantined corrupt job store"):
            store = JobStore(path)
        assert store.counts()["SUBMITTED"] == 0
        store.close()
        quarantined = sorted(p.name for p in tmp_path.glob("jobs.sqlite3.corrupt-*"))
        assert len(quarantined) == 3
        stem = quarantined[0]
        assert quarantined == [stem, stem + "-shm", stem + "-wal"]

    def test_torn_row_dropped_and_counted_others_survive(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        good = _finished(store, "job:good", dict(RESULT))
        doomed = _finished(store, "job:doomed", {"v": 2})
        assert store.corrupt_result_row("job:doomed")
        assert store.get(good).result == RESULT
        assert store.get(doomed).state == SUBMITTED  # healed: re-executes
        assert store.counters()["quarantined_rows"] == 1
        store.close()

    def test_locked_store_is_waited_for_not_quarantined(self, tmp_path, monkeypatch):
        """An open that outlasts another connection's write lock must
        raise ``OperationalError`` (or wait it out) — never move the
        live database aside and come back empty."""
        path = tmp_path / "jobs.sqlite3"
        store = JobStore(path)
        store.submit("verify", PARAMS, "job:kept")
        store.close()
        holder = connect_wal(path)
        holder.execute("BEGIN IMMEDIATE")
        monkeypatch.setattr("repro.serve.store.BUSY_TIMEOUT", 0.3)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    contender = JobStore(path)
                except sqlite3.OperationalError as exc:
                    assert "locked" in str(exc)
                else:
                    assert contender.counts()["SUBMITTED"] == 1
                    contender.close()
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        monkeypatch.undo()
        assert not list(tmp_path.glob("*.corrupt-*"))
        after = JobStore(path)
        assert [job.key for job in after.jobs()] == ["job:kept"]
        after.close()

    def test_lock_released_in_time_is_waited_for(self, tmp_path):
        path = tmp_path / "jobs.sqlite3"
        store = JobStore(path)
        store.submit("verify", PARAMS, "job:kept")
        store.close()
        locked = threading.Event()

        def hold_briefly():
            holder = connect_wal(path)
            holder.execute("BEGIN IMMEDIATE")
            locked.set()
            time.sleep(0.3)
            holder.execute("ROLLBACK")
            holder.close()

        thread = threading.Thread(target=hold_briefly)
        thread.start()
        locked.wait(timeout=30)
        try:
            contender = JobStore(path)
        finally:
            thread.join()
        assert [job.key for job in contender.jobs()] == ["job:kept"]
        contender.close()

    def test_unopenable_path_raises_and_renames_nothing(self, tmp_path):
        """An ``OperationalError`` that is not contention (here: the
        path is a directory) is raised, never quarantined."""
        path = tmp_path / "jobs.sqlite3"
        path.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(sqlite3.OperationalError):
                JobStore(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.sqlite3"]


def _union_writer(path: str, index: int, barrier) -> None:
    store = JobStore(path)
    barrier.wait()
    store.submit("verify", PARAMS, f"job:own-{index}")
    store.submit("verify", PARAMS, "job:shared")
    store.close()


class TestConcurrentWriters:
    def test_racing_saves_converge_to_the_union(self, tmp_path):
        path = tmp_path / "jobs.sqlite3"
        barrier = multiprocessing.Barrier(WRITERS)
        workers = [
            multiprocessing.Process(target=_union_writer, args=(str(path), index, barrier))
            for index in range(WRITERS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)
        final = JobStore(path)
        keys = sorted(job.key for job in final.jobs())
        counters = final.counters()
        final.close()
        # the shared key coalesces onto one job; every own key lands
        assert keys == sorted([f"job:own-{i}" for i in range(WRITERS)] + ["job:shared"])
        assert counters["submissions"] == 2 * WRITERS
        assert counters["dedup_hits"] == WRITERS - 1

    def test_churning_writers_lose_nothing(self, tmp_path):
        """WRITERS processes x ROUNDS fresh opens, racing two busy-loop
        processes for the CPUs: every job lands, nothing is quarantined."""
        path = tmp_path / "jobs.sqlite3"
        env = dict(os.environ, PYTHONPATH=SRC)
        hogs = [subprocess.Popen([sys.executable, "-c", _BUSY_LOOP]) for _ in range(2)]
        writers = []
        try:
            writers = [
                subprocess.Popen(
                    [sys.executable, "-W", "error::RuntimeWarning", "-c",
                     _CHURN_WRITER, str(path), str(index), str(ROUNDS)],
                    env=env, stderr=subprocess.PIPE, text=True,
                )
                for index in range(WRITERS)
            ]
            outcomes = [
                (writer.communicate(timeout=300)[1], writer.returncode) for writer in writers
            ]
        finally:
            for process in hogs + writers:
                if process.poll() is None:
                    process.kill()
                process.wait()
        assert all(code == 0 for __, code in outcomes), outcomes
        assert not list(tmp_path.glob("*.corrupt-*"))
        final = JobStore(path)
        keys = {job.key for job in final.jobs()}
        final.close()
        assert keys == {
            f"job:w{index}-r{round_no}"
            for index in range(WRITERS)
            for round_no in range(ROUNDS)
        }

    def test_database_is_wal_mode(self, tmp_path):
        JobStore(tmp_path / "jobs.sqlite3").close()
        conn = sqlite3.connect(str(tmp_path / "jobs.sqlite3"))
        mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        conn.close()
        assert mode == "wal"
