"""Concurrent writers against the artifact cache and the bench history.

The shard runner and the benchmark scripts both append from multiple
processes; the contracts under test:

- concurrent ``ArtifactCache.save(merge=True)`` calls converge to the
  *union* of everyone's entries — no writer clobbers another;
- identical content-addressed records written by racing processes
  converge to exactly one valid entry;
- a reader racing writers can never observe a torn mirror (the rename
  is atomic), so it must never quarantine a healthy file;
- two loaders racing to quarantine the *same* corrupt mirror both
  proceed cold, and exactly one quarantine file preserves the evidence;
- concurrent :func:`repro.bench.record` appenders all land in the
  history (read-append-rename under the advisory lock);
- a history that cannot be parsed is quarantined, not overwritten.
"""

import json
import multiprocessing
import warnings
from pathlib import Path

import pytest

from repro.bench import record
from repro.cache.store import ArtifactCache

WRITERS = 4
ROUNDS = 5


def _union_writer(directory: str, index: int, barrier) -> None:
    cache = ArtifactCache(directory)
    cache.put(f"own-{index}", {"writer": index})
    # the same content-addressed key from every writer, identical record
    cache.put("shared", {"makespan": 4.25})
    barrier.wait()
    cache.save()


def _churn_writer(directory: str, index: int, barrier) -> None:
    barrier.wait()
    for round_no in range(ROUNDS):
        cache = ArtifactCache(directory)
        cache.put(f"w{index}-r{round_no}", {"round": round_no})
        cache.save()


def _quarantine_loader(directory: str, barrier, queue) -> None:
    barrier.wait()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cache = ArtifactCache(directory)
    queue.put(len(cache))


def _bench_writer(path: str, index: int, barrier) -> None:
    barrier.wait()
    for round_no in range(ROUNDS):
        record(f"bench-{index}", 0.5, path=Path(path), round=round_no)


def _spawn(target, args_for):
    barrier = multiprocessing.Barrier(WRITERS)
    workers = [
        multiprocessing.Process(target=target, args=args_for(index, barrier))
        for index in range(WRITERS)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert all(worker.exitcode == 0 for worker in workers)


def test_concurrent_saves_converge_to_the_union(tmp_path):
    _spawn(_union_writer, lambda i, b: (str(tmp_path), i, b))
    final = ArtifactCache(str(tmp_path))
    expected = {f"own-{index}" for index in range(WRITERS)} | {"shared"}
    assert set(final.memory) == expected
    assert final.get("shared") == {"makespan": 4.25}
    # the mirror is one valid JSON document, not an interleaving
    payload = json.loads((tmp_path / "explore.json").read_text(encoding="utf-8"))
    assert set(payload["entries"]) == expected


def test_reader_never_sees_a_torn_mirror_under_churn(tmp_path):
    ArtifactCache(str(tmp_path)).save()  # seed the file
    barrier = multiprocessing.Barrier(WRITERS + 1)
    workers = [
        multiprocessing.Process(
            target=_churn_writer, args=(str(tmp_path), index, barrier)
        )
        for index in range(WRITERS)
    ]
    for worker in workers:
        worker.start()
    barrier.wait()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a quarantine warning fails the test
        while any(worker.is_alive() for worker in workers):
            ArtifactCache(str(tmp_path))
    for worker in workers:
        worker.join(timeout=60)
    assert all(worker.exitcode == 0 for worker in workers)
    assert not list(tmp_path.glob("explore.json.corrupt-*"))
    final = ArtifactCache(str(tmp_path))
    assert len(final) == WRITERS * ROUNDS


def test_racing_quarantines_keep_exactly_one_evidence_file(tmp_path):
    (tmp_path / "explore.json").write_text("{definitely not json", encoding="utf-8")
    queue = multiprocessing.Queue()
    _spawn(_quarantine_loader, lambda i, b: (str(tmp_path), b, queue))
    # every racing loader proceeded cold
    assert [queue.get(timeout=10) for _ in range(WRITERS)] == [0] * WRITERS
    evidence = list(tmp_path.glob("explore.json.corrupt-*"))
    assert len(evidence) == 1
    assert evidence[0].read_text(encoding="utf-8") == "{definitely not json"
    assert not (tmp_path / "explore.json").exists()


def test_concurrent_bench_records_all_land(tmp_path):
    path = tmp_path / "BENCH_scaling.json"
    _spawn(_bench_writer, lambda i, b: (str(path), i, b))
    history = json.loads(path.read_text(encoding="utf-8"))
    assert len(history["runs"]) == WRITERS * ROUNDS
    by_bench = {}
    for entry in history["runs"]:
        by_bench.setdefault(entry["bench"], []).append(entry["metrics"]["round"])
    # every writer's appends survived, in its own order
    assert all(sorted(rounds) == list(range(ROUNDS)) for rounds in by_bench.values())
    assert len(by_bench) == WRITERS


@pytest.mark.parametrize("garbage", ["{not json", '{"runs": 3}', "[1, 2]"])
def test_corrupt_bench_history_is_quarantined_not_erased(tmp_path, garbage):
    path = tmp_path / "BENCH_scaling.json"
    path.write_text(garbage, encoding="utf-8")
    with pytest.warns(RuntimeWarning, match="benchmark ledger"):
        record("fresh", 0.5, path=path)
    evidence = list(tmp_path.glob("BENCH_scaling.json.corrupt-*"))
    assert len(evidence) == 1
    assert evidence[0].read_text(encoding="utf-8") == garbage
    history = json.loads(path.read_text(encoding="utf-8"))
    assert [entry["bench"] for entry in history["runs"]] == ["fresh"]
