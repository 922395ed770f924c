"""Order-preserving map over independent work items, optionally in processes.

Results come back in submission order whatever the worker count, so any
report assembled from them is byte-identical across parallelism settings.

With more than one worker, `parallel_map` forks its workers, so they
inherit `fn` and the items and neither is pickled. A free worker claims
the next item index from a file they all share, and pickles each result
into a temporary file of its own, read once that worker has exited.
Without the `fork` start method, the map runs in this process.

A case is a (cost, fn, args) triple that runs as fn(*args); cost estimates
its element steps. `run_cases` hands the workers the costliest cases first,
one at a time, so that the largest case does not start last and leave the
other workers idle while it runs.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import reprlib
import selectors
import struct
import tempfile

_INDEX = struct.Struct("<I")   # an item index, as claimed and as recorded


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def parallel_map(fn, items, workers: int = 1) -> list:
    items = list(items)
    context = _fork_context()
    if workers <= 1 or len(items) <= 1 or context is None:
        return [fn(item) for item in items]
    return _forked_map(context, fn, items, min(workers, len(items)))


class _RemoteTraceback(Exception):
    def __str__(self):
        return self.args[0]


def _error_record(exc: Exception) -> bytes:
    import traceback   # only a failing item needs it

    tb = "".join(traceback.format_exception(exc))
    try:
        return pickle.dumps((False, (exc, tb)), pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps((False, (RuntimeError(f"{type(exc).__name__}: {exc}"), tb)),
                            pickle.HIGHEST_PROTOCOL)


def _work(fn, items, claims: int, out) -> None:
    """Run the item of each index claimed from `claims`, until none is left or one fails.

    Each item appends to `out` its index, flushed before it runs so that a death names it,
    then the pickle of (ok, value): fn's result, or the exception and its traceback text."""
    while raw := os.read(claims, _INDEX.size):
        out.write(raw)
        out.flush()
        start = out.tell()
        try:
            pickle.dump((True, fn(items[_INDEX.unpack(raw)[0]])), out, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            out.seek(start)   # drop whatever part of the result was written
            out.truncate()
            out.write(_error_record(exc))
            break
    out.flush()


def _collect(exitcode: int, out, items, results: list) -> None:
    """Move an exited worker's records into `results`; raise its error or its death."""
    out.seek(0)
    while len(raw := out.read(_INDEX.size)) == _INDEX.size:
        (index,) = _INDEX.unpack(raw)
        try:
            ok, value = pickle.load(out)
        except (EOFError, pickle.UnpicklingError):   # the record was cut short
            raise RuntimeError(f"worker process exited with code {exitcode} while running "
                               f"item {index}: {reprlib.repr(items[index])}") from None
        if not ok:   # value is the exception and its traceback text
            raise value[0] from _RemoteTraceback(value[1])
        results[index] = value
    if exitcode:   # it died between items, after claiming an index it never recorded
        raise RuntimeError(f"worker process exited with code {exitcode} between items")


def _forked_map(context, fn, items: list, count: int) -> list:
    """`count` forked workers; on any error they are terminated. All are joined and closed."""
    results = [None] * len(items)
    pool, outs = [], []
    with tempfile.TemporaryFile() as claims, selectors.DefaultSelector() as selector:
        # The workers inherit this one open file description, so they share its offset:
        # a 4-byte read claims the next index exactly once, as read() on a regular file
        # is atomic (POSIX XSH 2.9.7) and Linux takes f_pos_lock on a shared description.
        claims.write(struct.pack(f"<{len(items)}I", *range(len(items))))
        claims.seek(0)
        try:
            for _ in range(count):
                outs.append(out := tempfile.TemporaryFile())
                process = context.Process(target=_work, daemon=True,
                                          args=(fn, items, claims.fileno(), out))
                process.start()
                pool.append(process)
                selector.register(process.sentinel, selectors.EVENT_READ, (process, out))
            while selector.get_map():
                for key, _ in selector.select():
                    selector.unregister(key.fileobj)
                    process, out = key.data
                    process.join()
                    _collect(process.exitcode, out, items, results)
        except BaseException:
            for process in pool:
                process.terminate()
            raise
        finally:
            for process in pool:
                process.join()
                process.close()   # releases its sentinel now, not at garbage collection
            for out in outs:
                out.close()
    return results


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
