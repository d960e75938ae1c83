"""The durable job store: SQLite WAL, crash-exact, dedup-aware.

Every lifecycle transition is one committed transaction, so the store
is the journal: ``kill -9`` the server at any instant and the next
:meth:`JobStore.recover` reconstructs exactly which jobs were queued,
which were mid-flight (they return to the queue and re-execute — job
execution is deterministic, so the resumed results are byte-identical)
and which already finished.  This is §17's journal-replay discipline
with SQLite doing the torn-line handling for us.

Invariants the chaos drill pins down:

- **Exactly-once terminal transitions.**  ``finish``/``fail`` only
  transition jobs out of ``RUNNING`` (guarded ``UPDATE ... WHERE
  state = 'RUNNING'``); a late result for a job someone else already
  resolved is counted in ``ignored_results`` and dropped, never
  double-applied.
- **Dedup by content key.**  A submission whose key matches a cached
  result is answered ``DONE`` immediately (``dedup_hits``); one that
  matches a queued/running job *coalesces* onto it — same ``job_id``
  back, one execution for any number of identical submissions.
- **Contention is not corruption.**  ``database is locked`` while
  opening is waited out with backoff inside :data:`BUSY_TIMEOUT` and
  then raised as :class:`sqlite3.OperationalError`; it never renames
  the live database.
- **Quarantine, not crash.**  A file SQLite does not recognise as a
  database is renamed ``.corrupt-<ts>`` together with its ``-wal`` and
  ``-shm`` siblings (fresh store, loud warning) — the same
  :func:`~repro.cache.store.quarantine` the JSON mirror uses.  A
  corrupt *row* (result or
  params text that no longer parses) is healed: the result-cache row
  is deleted, the job is returned to ``SUBMITTED``, and the
  deterministic pipeline recomputes the identical result
  (``quarantined_rows`` counts the healings).
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cache.store import quarantine
from repro.errors import StoreVersionError
from repro.resilience.pool import RetryPolicy
from repro.serve.jobs import (
    DONE,
    FAILED,
    RUNNING,
    SUBMITTED,
    TERMINAL_STATES,
    Job,
    canonical_json,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (name TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS jobs (
    job_id      TEXT PRIMARY KEY,
    key         TEXT NOT NULL,
    kind        TEXT NOT NULL,
    params      TEXT NOT NULL,
    client      TEXT NOT NULL DEFAULT '',
    state       TEXT NOT NULL,
    attempts    INTEGER NOT NULL DEFAULT 0,
    result      TEXT,
    error       TEXT NOT NULL DEFAULT '',
    exit_class  TEXT NOT NULL DEFAULT '',
    dedup       INTEGER NOT NULL DEFAULT 0,
    created_at  REAL NOT NULL,
    started_at  REAL NOT NULL DEFAULT 0,
    finished_at REAL NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_by_key ON jobs (key);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state);
CREATE TABLE IF NOT EXISTS results (key TEXT PRIMARY KEY, record TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS counters (name TEXT PRIMARY KEY, value INTEGER NOT NULL)
"""

_FORMAT_VERSION = "1"

#: default wait for SQLite's write lock before giving up
BUSY_TIMEOUT = 30.0

#: backoff between attempts to open a database another connection has
#: locked; the attempts stop when the busy timeout is spent
_BUSY_BACKOFF = RetryPolicy(base_delay=0.01, max_delay=0.5)

#: counters the store maintains transactionally
COUNTER_NAMES = (
    "submissions",
    "dedup_hits",
    "executions",
    "retries",
    "recovered",
    "ignored_results",
    "quarantined_rows",
)


def _create_schema(conn: sqlite3.Connection) -> None:
    for statement in _SCHEMA.split(";"):
        conn.execute(statement)
    conn.execute(
        "INSERT OR IGNORE INTO meta (name, value) VALUES ('version', ?)",
        (_FORMAT_VERSION,),
    )
    conn.executemany(
        "INSERT OR IGNORE INTO counters (name, value) VALUES (?, 0)",
        [(name,) for name in COUNTER_NAMES],
    )


def _check_version(conn: sqlite3.Connection, path: Path) -> None:
    """Refuse a store written in a format this version does not know."""
    (version,) = conn.execute("SELECT value FROM meta WHERE name = 'version'").fetchone()
    if version != _FORMAT_VERSION:
        raise StoreVersionError(
            f"job store {path} has format version {version!r}; "
            f"this version reads only {_FORMAT_VERSION!r}"
        )


def _is_busy(exc: sqlite3.OperationalError) -> bool:
    text = str(exc)
    return "locked" in text or "busy" in text


def connect_wal(path: Path) -> sqlite3.Connection:
    """Open the job store at ``path`` in WAL mode with crash-safe pragmas.

    ``isolation_level=None`` puts the connection in autocommit mode so
    transactions are explicit (``BEGIN IMMEDIATE`` ... ``COMMIT``) —
    the sqlite3 module's implicit transaction management commits at
    surprising times.  ``synchronous=FULL`` makes every commit durable
    against process death (the job server's whole premise);
    ``busy_timeout`` turns writer contention into bounded waiting
    instead of immediate ``database is locked`` errors.  The schema is
    created inside ``BEGIN IMMEDIATE``.

    Contention is not corruption.  The ``journal_mode=WAL`` switch can
    fail with ``database is locked`` without consulting the busy
    handler, so a locked open is retried with :class:`RetryPolicy`
    backoff until :data:`BUSY_TIMEOUT` is spent, then re-raised as
    :class:`sqlite3.OperationalError`.  Only a file SQLite does not
    recognise as a database is quarantined, with its ``-wal``/``-shm``
    siblings, and replaced by a fresh store.  A database whose
    ``meta.version`` is not this version's format raises
    :class:`~repro.errors.StoreVersionError` and is left untouched.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT
    attempt = 0
    quarantined = False
    while True:
        remaining = max(deadline - time.monotonic(), 0.0)
        conn = sqlite3.connect(str(path), timeout=remaining, isolation_level=None)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=FULL")
            conn.execute("BEGIN IMMEDIATE")
            _create_schema(conn)
            _check_version(conn, path)
            conn.execute("COMMIT")
            conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT * 1000)}")
            return conn
        except sqlite3.OperationalError as exc:
            conn.close()
            if not _is_busy(exc) or time.monotonic() >= deadline:
                raise
        except sqlite3.DatabaseError as exc:
            # move the files aside *before* closing: closing the last
            # connection deletes the -wal/-shm siblings by name
            moved = not quarantined and quarantine(
                path, f"cannot open: {exc}", "job store", ("-wal", "-shm")
            ) is not None
            conn.close()
            if not moved:
                raise
            quarantined = True
            continue
        except BaseException:
            conn.close()
            raise
        time.sleep(min(_BUSY_BACKOFF.delay(attempt), max(deadline - time.monotonic(), 0.0)))
        attempt += 1


class JobStore:
    """One SQLite database holding jobs, cached results and counters."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = connect_wal(self.path)

    def close(self) -> None:
        try:
            self._conn.close()
        except sqlite3.Error:
            pass

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        self._conn.execute(
            "UPDATE counters SET value = value + ? WHERE name = ?", (amount, name)
        )

    def _next_job_id(self) -> str:
        row = self._conn.execute(
            "SELECT value FROM counters WHERE name = 'submissions'"
        ).fetchone()
        return f"j{int(row[0]):06d}"

    @staticmethod
    def _job_from_row(row: sqlite3.Row) -> Job:
        params = json.loads(row["params"])
        result = json.loads(row["result"]) if row["result"] else None
        return Job(
            job_id=row["job_id"],
            key=row["key"],
            kind=row["kind"],
            params=params,
            client=row["client"],
            state=row["state"],
            attempts=row["attempts"],
            result=result,
            error=row["error"],
            exit_class=row["exit_class"],
            dedup=bool(row["dedup"]),
            created_at=row["created_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
        )

    def _select_job(self, job_id: str) -> Optional[sqlite3.Row]:
        self._conn.row_factory = sqlite3.Row
        return self._conn.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()

    # ------------------------------------------------------------------
    # submission + dedup
    # ------------------------------------------------------------------
    def submit(
        self, kind: str, params: dict, key: str, client: str = ""
    ) -> Tuple[Job, bool]:
        """Record one submission; returns ``(job, deduplicated)``.

        Dedup order: a cached result answers immediately (a new ``DONE``
        job row, so per-client audit still sees the request); a live
        job with the same key coalesces (the existing job is returned).
        Otherwise a fresh ``SUBMITTED`` row joins the queue.
        """
        now = time.time()
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._bump("submissions")
            cached = self._cached_result(key)
            if cached is not None:
                job_id = self._next_job_id()
                self._bump("dedup_hits")
                self._conn.execute(
                    "INSERT INTO jobs (job_id, key, kind, params, client, state,"
                    " attempts, result, exit_class, dedup, created_at, finished_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, 0, ?, 'ok', 1, ?, ?)",
                    (job_id, key, kind, canonical_json(params), client, DONE,
                     cached, now, now),
                )
                self._conn.execute("COMMIT")
            else:
                live = self._conn.execute(
                    "SELECT job_id FROM jobs WHERE key = ? AND state IN (?, ?) "
                    "ORDER BY rowid LIMIT 1",
                    (key, SUBMITTED, RUNNING),
                ).fetchone()
                if live is not None:
                    self._bump("dedup_hits")
                    job_id = live[0]
                    self._conn.execute("COMMIT")
                    job = self.get(job_id)
                    job.dedup = True
                    return job, True
                job_id = self._next_job_id()
                self._conn.execute(
                    "INSERT INTO jobs (job_id, key, kind, params, client, state,"
                    " created_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (job_id, key, kind, canonical_json(params), client, SUBMITTED, now),
                )
                self._conn.execute("COMMIT")
        except BaseException:
            try:
                self._conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        job = self.get(job_id)
        return job, bool(job and job.dedup)

    def _cached_result(self, key: str) -> Optional[str]:
        """The cached canonical result text for ``key``, quarantining a
        row whose text no longer parses (returns ``None`` → re-execute).
        Must run inside the caller's transaction."""
        row = self._conn.execute(
            "SELECT record FROM results WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            record = json.loads(row[0])
            if not isinstance(record, dict):
                raise ValueError("not an object")
        except ValueError:
            self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
            self._bump("quarantined_rows")
            return None
        return row[0]

    def would_dedup(self, key: str) -> bool:
        """Whether a submission of ``key`` costs no new execution —
        dedup'd submissions are admitted even when the queue is full
        (they hit the cache, not the CPU)."""
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE key = ? "
            "UNION ALL SELECT 1 FROM jobs WHERE key = ? AND state IN (?, ?) LIMIT 1",
            (key, key, SUBMITTED, RUNNING),
        ).fetchone()
        return row is not None

    # ------------------------------------------------------------------
    # lifecycle transitions (each one guarded + committed)
    # ------------------------------------------------------------------
    def claim(self, job_id: str) -> bool:
        """SUBMITTED -> RUNNING; False when someone else already did."""
        self._conn.execute("BEGIN IMMEDIATE")
        changed = self._conn.execute(
            "UPDATE jobs SET state = ?, attempts = attempts + 1, started_at = ? "
            "WHERE job_id = ? AND state = ?",
            (RUNNING, time.time(), job_id, SUBMITTED),
        ).rowcount
        if changed:
            self._bump("executions")
        self._conn.execute("COMMIT")
        return bool(changed)

    def finish(self, job_id: str, result: dict) -> bool:
        """RUNNING -> DONE, result cached under the job's key.

        Returns ``False`` (and counts ``ignored_results``) when the job
        is not ``RUNNING`` anymore — the late-result guard that makes
        double-execution observable instead of silent.
        """
        text = canonical_json(result)
        self._conn.execute("BEGIN IMMEDIATE")
        row = self._conn.execute(
            "SELECT key FROM jobs WHERE job_id = ? AND state = ?", (job_id, RUNNING)
        ).fetchone()
        if row is None:
            self._bump("ignored_results")
            self._conn.execute("COMMIT")
            return False
        self._conn.execute(
            "UPDATE jobs SET state = ?, result = ?, exit_class = 'ok', "
            "finished_at = ? WHERE job_id = ?",
            (DONE, text, time.time(), job_id),
        )
        self._conn.execute(
            "INSERT OR REPLACE INTO results (key, record) VALUES (?, ?)",
            (row[0], text),
        )
        self._conn.execute("COMMIT")
        return True

    def fail(
        self, job_id: str, error: str, exit_class: str, state: str = FAILED
    ) -> bool:
        """RUNNING -> FAILED/TIMED_OUT (terminal), with taxonomy stamp."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"fail() needs a terminal state, got {state!r}")
        self._conn.execute("BEGIN IMMEDIATE")
        changed = self._conn.execute(
            "UPDATE jobs SET state = ?, error = ?, exit_class = ?, finished_at = ? "
            "WHERE job_id = ? AND state = ?",
            (state, error, exit_class, time.time(), job_id, RUNNING),
        ).rowcount
        if not changed:
            self._bump("ignored_results")
        self._conn.execute("COMMIT")
        return bool(changed)

    def release_for_retry(self, job_id: str, error: str = "") -> bool:
        """RUNNING -> SUBMITTED (transient failure; budget tracked via
        ``attempts``, which ``claim`` will bump again)."""
        self._conn.execute("BEGIN IMMEDIATE")
        changed = self._conn.execute(
            "UPDATE jobs SET state = ?, error = ? WHERE job_id = ? AND state = ?",
            (SUBMITTED, error, job_id, RUNNING),
        ).rowcount
        if changed:
            self._bump("retries")
        self._conn.execute("COMMIT")
        return bool(changed)

    def recover(self) -> int:
        """Return crashed-mid-flight jobs to the queue (startup).

        Any ``RUNNING`` row at open time is a job whose server died
        with it: nothing else writes ``RUNNING``.  Attempts are
        preserved, so a job that was already on its last retry cannot
        crash-loop forever.
        """
        self._conn.execute("BEGIN IMMEDIATE")
        recovered = self._conn.execute(
            "UPDATE jobs SET state = ? WHERE state = ?", (SUBMITTED, RUNNING)
        ).rowcount
        if recovered:
            self._bump("recovered", recovered)
        self._conn.execute("COMMIT")
        return recovered

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        """Fetch one job, healing a corrupt stored row on the way.

        A ``DONE`` row whose result text was scribbled on is returned
        to ``SUBMITTED`` (and its result-cache row dropped) so the
        deterministic pipeline recomputes it — the caller just sees a
        job that is not finished yet.
        """
        row = self._select_job(job_id)
        if row is None:
            return None
        try:
            return self._job_from_row(row)
        except ValueError:
            pass
        # corrupt params or result text: heal what is healable
        self._conn.execute("BEGIN IMMEDIATE")
        self._bump("quarantined_rows")
        self._conn.execute("DELETE FROM results WHERE key = ?", (row["key"],))
        self._conn.execute(
            "UPDATE jobs SET state = ?, result = NULL, exit_class = '' "
            "WHERE job_id = ?",
            (SUBMITTED, job_id),
        )
        self._conn.execute("COMMIT")
        healed = self._select_job(job_id)
        try:
            return self._job_from_row(healed)
        except ValueError:
            # params themselves are torn: the job cannot be re-run
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.execute(
                "UPDATE jobs SET state = ?, params = '{}', error = ?, "
                "exit_class = 'fatal' WHERE job_id = ?",
                (FAILED, "stored parameters corrupted beyond recovery", job_id),
            )
            self._conn.execute("COMMIT")
            return self._job_from_row(self._select_job(job_id))

    def next_pending(self, exclude: Sequence[str] = ()) -> Optional[Job]:
        """Oldest ``SUBMITTED`` job not in ``exclude`` (FIFO dispatch)."""
        self._conn.row_factory = sqlite3.Row
        exclude = tuple(exclude)
        placeholders = ",".join("?" for _ in exclude)
        clause = f"AND job_id NOT IN ({placeholders})" if exclude else ""
        row = self._conn.execute(
            f"SELECT * FROM jobs WHERE state = ? {clause} ORDER BY rowid LIMIT 1",
            (SUBMITTED, *exclude),
        ).fetchone()
        return self._job_from_row(row) if row is not None else None

    def jobs(self, client: Optional[str] = None) -> List[Job]:
        self._conn.row_factory = sqlite3.Row
        if client is None:
            rows = self._conn.execute("SELECT * FROM jobs ORDER BY rowid").fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE client = ? ORDER BY rowid", (client,)
            ).fetchall()
        return [self._job_from_row(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in ("SUBMITTED", "RUNNING", "DONE", "FAILED", "TIMED_OUT")}
        for state, count in self._conn.execute(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ):
            out[state] = count
        return out

    def queue_depth(self) -> int:
        """Jobs admitted but not yet terminal (the backpressure gauge)."""
        row = self._conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE state IN (?, ?)", (SUBMITTED, RUNNING)
        ).fetchone()
        return int(row[0])

    def client_load(self, client: str) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE client = ? AND state IN (?, ?)",
            (client, SUBMITTED, RUNNING),
        ).fetchone()
        return int(row[0])

    def counters(self) -> Dict[str, int]:
        return {
            name: int(value)
            for name, value in self._conn.execute("SELECT name, value FROM counters")
        }

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = dict(self.counters())
        stats["states"] = self.counts()
        stats["queue_depth"] = self.queue_depth()
        submissions = stats.get("submissions", 0)
        stats["dedup_hit_rate"] = (
            round(stats.get("dedup_hits", 0) / submissions, 4) if submissions else 0.0
        )
        return stats

    # ------------------------------------------------------------------
    # chaos helpers (tests + drills only)
    # ------------------------------------------------------------------
    def corrupt_result_row(self, key: str, garbage: str = '{"torn') -> bool:
        """Scribble over a cached result row (chaos drills)."""
        self._conn.execute("BEGIN IMMEDIATE")
        changed = self._conn.execute(
            "UPDATE results SET record = ? WHERE key = ?", (garbage, key)
        ).rowcount
        changed += self._conn.execute(
            "UPDATE jobs SET result = ? WHERE key = ? AND state = ?",
            (garbage, key, DONE),
        ).rowcount
        self._conn.execute("COMMIT")
        return bool(changed)
