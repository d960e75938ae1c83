"""ArtifactCache disk behaviour: load/save round-trips and quarantine."""

import json
import warnings

import pytest

from repro.cache.store import ArtifactCache, file_lock, quarantine


def _write(tmp_path, text):
    path = tmp_path / "explore.json"
    path.write_text(text, encoding="utf-8")
    return path


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("k1", {"makespan": 40.5})
        cache.save()
        again = ArtifactCache(str(tmp_path))
        assert again.get("k1") == {"makespan": 40.5}
        assert again.loaded_entries == 1

    def test_first_save_of_an_empty_cache_creates_the_file(self, tmp_path):
        path = ArtifactCache(str(tmp_path / "cache")).save()
        assert path == tmp_path / "cache" / "explore.json"
        assert json.loads(path.read_text(encoding="utf-8")) == {"entries": {}, "version": 1}

    def test_save_without_new_records_writes_nothing(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("k1", {"makespan": 40.5})
        path = cache.save()
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        again = ArtifactCache(str(tmp_path))
        again.put("k1", {"makespan": 40.5})  # an unchanged record is not new
        again.save()
        again.save()
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before
        again.put("k2", {"makespan": 1.0})
        again.save()
        assert set(json.loads(path.read_text(encoding="utf-8"))["entries"]) == {"k1", "k2"}

    def test_missing_file_is_cold(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        assert cache.load() == 0


class TestQuarantine:
    def test_invalid_json_is_quarantined_with_a_warning(self, tmp_path):
        path = _write(tmp_path, "{not json!!")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt artifact cache"):
            cache = ArtifactCache(str(tmp_path))
        assert len(cache) == 0
        assert not path.exists()
        quarantined = list(tmp_path.glob("explore.json.corrupt-*"))
        assert len(quarantined) == 1
        # the evidence is preserved verbatim for post-mortem
        assert quarantined[0].read_text(encoding="utf-8") == "{not json!!"

    def test_non_object_payload_is_quarantined(self, tmp_path):
        _write(tmp_path, "[1, 2, 3]")
        with pytest.warns(RuntimeWarning, match="not an object"):
            ArtifactCache(str(tmp_path))
        assert list(tmp_path.glob("explore.json.corrupt-*"))

    def test_bad_entries_section_is_quarantined(self, tmp_path):
        _write(tmp_path, json.dumps({"version": 1, "entries": "oops"}))
        with pytest.warns(RuntimeWarning, match="'entries' is not an object"):
            ArtifactCache(str(tmp_path))
        assert list(tmp_path.glob("explore.json.corrupt-*"))

    def test_repeated_corruption_never_clobbers_evidence(self, tmp_path):
        _write(tmp_path, "first corruption")
        with pytest.warns(RuntimeWarning):
            ArtifactCache(str(tmp_path))
        _write(tmp_path, "second corruption")
        with pytest.warns(RuntimeWarning):
            ArtifactCache(str(tmp_path))
        quarantined = sorted(tmp_path.glob("explore.json.corrupt-*"))
        assert len(quarantined) == 2
        texts = {q.read_text(encoding="utf-8") for q in quarantined}
        assert texts == {"first corruption", "second corruption"}

    def test_version_mismatch_is_not_corruption(self, tmp_path):
        path = _write(tmp_path, json.dumps({"version": 999, "entries": {}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            cache = ArtifactCache(str(tmp_path))
        assert len(cache) == 0
        assert path.exists()  # the other format's file is left alone

    def test_quarantined_run_can_still_save(self, tmp_path):
        _write(tmp_path, "garbage")
        with pytest.warns(RuntimeWarning):
            cache = ArtifactCache(str(tmp_path))
        cache.put("k1", {"makespan": 1.0})
        cache.save()
        fresh = ArtifactCache(str(tmp_path))
        assert fresh.get("k1") == {"makespan": 1.0}

    def test_quarantine_moves_siblings_and_numbers_collisions(self, tmp_path, monkeypatch):
        """Same-second quarantines get ``-1``, ``-2``...; each named
        sibling follows its store to the same stamp."""
        monkeypatch.setattr("repro.cache.store.time.strftime", lambda fmt: "STAMP")
        store = tmp_path / "jobs.sqlite3"
        moved = []
        for round_no in range(2):
            store.write_text(f"store {round_no}")
            (tmp_path / "jobs.sqlite3-wal").write_text(f"wal {round_no}")
            with pytest.warns(RuntimeWarning, match="quarantined corrupt job store"):
                moved.append(quarantine(store, "test", "job store", ("-wal", "-shm")))
        first, second = moved
        assert (first.name, second.name) == (
            "jobs.sqlite3.corrupt-STAMP", "jobs.sqlite3.corrupt-STAMP-1"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [first.name, first.name + "-wal", second.name, second.name + "-wal"]
        )
        assert (tmp_path / (second.name + "-wal")).read_text() == "wal 1"

    def test_quarantine_of_a_missing_file_renames_nothing(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quarantine(tmp_path / "absent.json", "test", "artifact cache") is None
        assert not list(tmp_path.iterdir())


class TestFileLock:
    def test_lock_without_a_directory_degrades_to_no_op(self, tmp_path):
        target = tmp_path / "missing" / "explore.json"
        with file_lock(target):
            pass
        assert not target.parent.exists()
