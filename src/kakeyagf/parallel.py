"""Order-preserving map over independent work items, optionally in processes.

Results come back in submission order whatever the worker count, so any
report assembled from them is byte-identical across parallelism settings.

With more than one worker, `parallel_map` forks its workers, so they
inherit `fn` and the items and neither is pickled. Each worker is sent
the index of its next item over a pipe of its own as soon as it is free,
and streams back one record per item on a second pipe: the pickle of the
result, with numpy arrays sent after it as raw out-of-band buffers.
Results are still pickled. Where the `fork` start method is unavailable,
the map runs in this process.

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

_INDEX = struct.Struct("<I")   # an item index, parent to worker
_HEAD = struct.Struct("<QQ")   # a record's pickle length and buffer count, worker to parent


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


def _error_record(index: int, exc: Exception) -> bytes:
    import traceback   # only a failing item needs it

    tb = "".join(traceback.format_exception(exc))
    try:
        return pickle.dumps((index, False, (exc, tb)), pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps((index, False, (RuntimeError(f"{type(exc).__name__}: {exc}"), tb)),
                            pickle.HIGHEST_PROTOCOL)


def _work(fn, items, tasks: int, results: int, inherited: list[int]) -> None:
    """A worker's loop: run each item whose index arrives on `tasks`, until EOF.

    The record of an item is (index, ok, value), where value is fn's result,
    or the exception and its traceback text. It goes to `results` as its
    pickle length, buffer count and buffer lengths, then the pickle, then
    the buffers.
    """
    for fd in inherited:   # the parent's ends of this worker's pipes and of earlier ones
        os.close(fd)
    with open(results, "wb") as out:
        while raw := os.read(tasks, _INDEX.size):
            (index,) = _INDEX.unpack(raw)
            buffers = []
            try:
                record = pickle.dumps((index, True, fn(items[index])), 5,
                                      buffer_callback=buffers.append)
                buffers = [b.raw() for b in buffers]
            except Exception as exc:
                record, buffers = _error_record(index, exc), []
            out.write(_HEAD.pack(len(record), len(buffers)))
            out.write(struct.pack(f"<{len(buffers)}Q", *[b.nbytes for b in buffers]))
            out.write(record)
            for b in buffers:
                out.write(b)
            out.flush()
    os.close(tasks)


class _Worker:
    """One forked worker and the parent's ends of its two pipes."""

    def __init__(self, context, fn, items, inherited: list[int]):
        task_r, self.tasks = os.pipe()
        result_r, result_w = os.pipe()
        self.results = open(result_r, "rb")
        self.index = None   # the item it is running
        self.process = context.Process(
            target=_work, daemon=True,
            args=(fn, items, task_r, result_w, inherited + [self.tasks, result_r]))
        try:
            self.process.start()
        except BaseException:
            os.close(self.tasks)
            self.results.close()
            raise
        finally:
            os.close(task_r)
            os.close(result_w)

    def send(self, index: int) -> None:
        self.index = index
        os.write(self.tasks, _INDEX.pack(index))

    def stop(self) -> None:
        """Close the task pipe, so that the worker exits once it is idle."""
        if self.tasks >= 0:
            os.close(self.tasks)
            self.tasks = -1

    def _frame(self):
        """The pickle and buffers of the next record; None if the pipe ends first."""
        read = self.results.read
        head = read(_HEAD.size)
        if len(head) < _HEAD.size:
            return None
        size, count = _HEAD.unpack(head)
        lengths = read(8 * count)
        if len(lengths) < 8 * count:
            return None
        record = read(size)
        buffers = [bytearray(n) for n in struct.unpack(f"<{count}Q", lengths)]
        if len(record) < size or any(self.results.readinto(b) < len(b) for b in buffers):
            return None
        return record, buffers

    def receive(self, items) -> tuple:
        """The record of the running item; RuntimeError if the worker died first."""
        frame = self._frame()
        if frame is None:
            self.process.join()
            raise RuntimeError(f"worker process exited with code {self.process.exitcode} "
                               f"while running item {self.index}: "
                               f"{reprlib.repr(items[self.index])}")
        record, buffers = frame
        return pickle.loads(record, buffers=buffers)


def _forked_map(context, fn, items: list, count: int) -> list:
    """`count` forked workers, each sent the next index as soon as it is free.

    On any error the workers are terminated; every worker is joined before
    this returns or raises.
    """
    results = [None] * len(items)
    todo = iter(range(len(items)))
    pool: list[_Worker] = []
    with selectors.DefaultSelector() as selector:
        try:
            for _ in range(count):
                inherited = [fd for w in pool for fd in (w.tasks, w.results.fileno())]
                worker = _Worker(context, fn, items, inherited)
                pool.append(worker)
                selector.register(worker.results, selectors.EVENT_READ, worker)
                worker.send(next(todo))
            for _ in range(len(items)):
                worker = selector.select()[0][0].data
                index, ok, value = worker.receive(items)
                if not ok:
                    exc, tb = value
                    raise exc from _RemoteTraceback(tb)
                results[index] = value
                following = next(todo, None)
                if following is None:
                    worker.stop()
                    selector.unregister(worker.results)
                else:
                    worker.send(following)
        except BaseException:
            for worker in pool:
                worker.process.terminate()
            raise
        finally:
            for worker in pool:
                worker.stop()
                worker.results.close()
                worker.process.join()
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
