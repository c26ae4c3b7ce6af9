"""perfbench: the repository's end-to-end and per-layer benchmark.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (see ``README.md`` in this directory).
"""
