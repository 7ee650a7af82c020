"""Two-clock benchmark: host throughput and simulated cost of the sort.

See README.md in this directory; the entry point is ``run.py``.
"""
