"""The repository's benchmark: seeded workloads, end-to-end metrics and an
outside-in per-layer trace. Run it with ``python3 perfbench/run.py``."""
