"""numpy is loaded only behind the batched max-plus engine.

``pyproject.toml`` promises that every in-tree numpy import is gated, so
a missing numpy degrades to the scalar simulator.  The check runs in a
fresh interpreter: the test process itself may already hold numpy.
"""

import os
import subprocess
import sys

import repro

MODULES = (
    "repro.cli",
    "repro.explore",
    "repro.eval",
    "repro.eval.stats",
    "repro.resilience",
    "repro.verify",
    "repro.serve.jobs",
)


def test_entry_points_do_not_import_numpy():
    script = "; ".join(
        [f"import {module}" for module in MODULES]
        + ["import sys", "print('numpy' in sys.modules)"]
    )
    src = os.path.dirname(repro.__path__[0])
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=120,
    )
    assert completed.stdout.strip() == "False", completed.stderr
