"""Ordered map over work items.

`map_chunks` applies a function to each item in turn, on the calling
thread; the benchmark suites (`perfbench/workloads.py`) run their models
through it.
"""


def map_chunks(fn, items):
    """Apply fn to each item in order and return the results as a list."""
    return [fn(x) for x in items]
