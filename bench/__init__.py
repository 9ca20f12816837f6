"""The repository benchmark: workloads, tracer, runner and comparison.

See ``bench/README.md``; run it with ``python bench/run.py``.
"""
