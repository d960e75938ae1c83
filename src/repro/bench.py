"""The benchmark ledger.

:func:`record` appends one measurement to ``BENCH_scaling.json`` at the
repository root (the format the ``benchmarks/`` harness has always
used; ``benchmarks/_record.py`` delegates here).  The ledger only
grows: a file that cannot be parsed is quarantined, never overwritten.
Timings themselves come from ``bench/run.py`` and ``bench/compare.py``.
"""

from __future__ import annotations

import datetime
import json
import platform
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

RESULTS_PATH = Path(__file__).resolve().parents[2] / "BENCH_scaling.json"

Metric = Union[int, float, str, bool, None]


def _load(path: Path) -> Dict:
    """Read the ledger; a corrupt one is quarantined and reads as empty,
    so the next append starts a fresh file beside the old history."""
    from repro.cache.store import quarantine

    if not path.exists():
        return {"runs": []}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError) as exc:
        reason = f"unreadable: {exc}"
    else:
        if isinstance(data, dict) and isinstance(data.get("runs"), list):
            return data
        reason = 'not a {"runs": [...]} object'
    quarantine(path, reason, "benchmark ledger")
    return {"runs": []}


def record(
    bench: str,
    wall_time: float,
    path: Optional[Path] = None,
    **metrics: Metric,
) -> Dict:
    """Append one measurement; returns the entry written.

    ``bench`` is a stable identifier (e.g. ``fir_synthesis/taps=48``),
    ``wall_time`` is seconds, and ``metrics`` are any JSON-scalar
    key/value pairs worth tracking across PRs.
    """
    from repro.cache.store import file_lock

    path = Path(path) if path is not None else RESULTS_PATH
    entry = {
        "bench": bench,
        "wall_time": round(float(wall_time), 6),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "metrics": dict(metrics),
    }
    # read-append-rename under an advisory lock: concurrent appenders
    # (shard benches, parallel CI jobs) serialize instead of interleaving
    # read-modify-write cycles, and the rename is atomic so a reader can
    # never observe a torn file even if the lock degrades to a no-op
    path.parent.mkdir(parents=True, exist_ok=True)
    with file_lock(path):
        data = _load(path)
        data["runs"].append(entry)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=str(path.parent), prefix=path.name, suffix=".tmp",
            delete=False, encoding="utf-8",
        )
        try:
            with handle:
                handle.write(json.dumps(data, indent=2) + "\n")
            Path(handle.name).replace(path)
        except BaseException:
            try:
                Path(handle.name).unlink()
            except OSError:
                pass
            raise
    return entry
