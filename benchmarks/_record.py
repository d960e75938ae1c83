"""Machine-readable benchmark results.

:func:`record` appends one measurement to ``BENCH_scaling.json`` at the
repository root so the performance trajectory is tracked across PRs:
each entry carries the bench name, the wall time in seconds, and any
key metrics the bench wants to preserve (speedups, point counts, ...).

The file is a JSON object ``{"runs": [...]}``; entries are appended,
never rewritten, so successive CI runs and local measurements
accumulate into a history that diffing tools (and future PRs) can
compare against.  Appends are atomic — each writer re-reads the file,
appends its entry, and renames a temp file into place under an
advisory lock — so concurrent shard benches or parallel CI jobs
serialize their appends and can never leave a torn or half-merged
history behind.

The implementation lives in :mod:`repro.bench`, the ledger every
benchmark writes through; this module re-exports it for the benchmark
scripts.  A file that cannot be parsed is quarantined as
``BENCH_scaling.json.corrupt-<stamp>`` before a fresh one is started.
Timings of the ``BENCHMARK.json`` workloads come from ``bench/run.py``
and ``bench/compare.py``.
"""

from repro.bench import Metric, RESULTS_PATH, record  # noqa: F401
