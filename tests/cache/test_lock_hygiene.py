"""Writers leave only their targets behind, and the lock still serializes.

A stale ``BENCH_scaling.json.lock`` once sat in the repo root
unnoticed.  The contract now: ``file_lock`` flocks a read-only
descriptor of the target's directory, so it creates no file at all —
a saving process leaves nothing behind but the file it wrote.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.cache.store import file_lock

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: child process: take the lock, announce it, hold it, mark the release
_HOLDER = """
import sys, time
from pathlib import Path
from repro.cache.store import file_lock
with file_lock(sys.argv[1]):
    Path(sys.argv[2]).write_text("held")
    time.sleep(1.0)
    Path(sys.argv[3]).write_text("releasing")
"""


class TestAtexitCleanup:
    """What a process leaves on disk after it exits, and the lock it used."""

    def test_lock_sidecar_removed_at_normal_interpreter_exit(self, tmp_path):
        """``ArtifactCache.save()`` and ``repro.bench.record()`` each
        leave exactly their target in an otherwise empty directory."""
        cache_dir = tmp_path / "cache"
        history_dir = tmp_path / "history"
        script = (
            "from repro.bench import record\n"
            "from repro.cache.store import ArtifactCache\n"
            f"cache = ArtifactCache(r'{cache_dir}')\n"
            "cache.put('k', {'v': 1})\n"
            "cache.save()\n"
            f"record('lock-hygiene', 0.5, path=r'{history_dir / 'hist.json'}')\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert os.listdir(cache_dir) == ["explore.json"]
        assert os.listdir(history_dir) == ["hist.json"]

    def test_file_lock_still_serializes(self, tmp_path):
        """The parent's ``file_lock`` blocks until the child releases it."""
        target = tmp_path / "explore.json"
        held = tmp_path / "held"
        released = tmp_path / "released"
        env = dict(os.environ, PYTHONPATH=SRC)
        child = subprocess.Popen(
            [sys.executable, "-c", _HOLDER, str(target), str(held), str(released)],
            env=env,
        )
        try:
            deadline = time.monotonic() + 60
            while not held.exists():
                assert child.poll() is None, "lock holder exited early"
                assert time.monotonic() < deadline, "lock holder never took the lock"
                time.sleep(0.01)
            with file_lock(target):
                # only reachable once the child has left its critical section
                assert released.exists()
            assert child.wait(timeout=60) == 0
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert sorted(os.listdir(tmp_path)) == ["held", "released"]


class TestRepoHygiene:
    def test_no_lock_files_in_the_repo_root(self):
        root = Path(__file__).resolve().parents[2]
        assert not list(root.glob("*.lock"))

    def test_gitignore_covers_lock_files(self):
        root = Path(__file__).resolve().parents[2]
        assert "*.lock" in (root / ".gitignore").read_text().split()
