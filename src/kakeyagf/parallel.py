"""Order-preserving map over independent work items, optionally in processes.

Results come back in submission order whatever the worker count, so any
report assembled from them is byte-identical across parallelism settings.

A case is a (cost, fn, args) triple that runs as fn(*args); cost estimates
its element steps. `run_cases` hands a pool the costliest cases first, one
per task, so that the largest case does not start last and leave the other
workers idle while it runs.
"""

from __future__ import annotations

import multiprocessing


def parallel_map(fn, items, workers: int = 1) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with multiprocessing.Pool(processes=min(workers, len(items))) as pool:
        # one item per task, so that items start in the order given
        return pool.map(fn, items, chunksize=1)


def _call(case):
    _, fn, args = case
    return fn(*args)


def run_cases(cases, workers: int = 1) -> list:
    """fn(*args) for each (cost, fn, args) case, in case order."""
    cases = list(cases)
    if workers <= 1:
        return parallel_map(_call, cases, workers)
    order = sorted(range(len(cases)), key=lambda k: -cases[k][0])  # stable on ties
    results = [None] * len(cases)
    for k, result in zip(order, parallel_map(_call, [cases[k] for k in order], workers)):
        results[k] = result
    return results
