"""The repository benchmark: four workloads, end-to-end metrics, and a
per-layer trace taken from outside the program (see ``bench/README.md``).

Run it with ``python3 bench/run.py``; compare two sets of runs with
``python3 bench/compare.py A.jsonl B.jsonl``.
"""
