"""Case scheduling and the forked executor: one set of workers per `all` run,
costliest case first, results in case order, every worker reaped."""

import contextlib
import multiprocessing.context
import os
import signal
import threading
import time

import numpy as np
import pytest

from kakeyagf import cli, parallel
from kakeyagf.bluher import BluherCount


@pytest.fixture(autouse=True)
def _no_child_left():
    yield
    # raises only when this process has no child at all, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_run_cases_sorts_by_cost_and_restores_order(monkeypatch):
    seen = []

    def recording(fn, items, workers=1):
        seen.append([args for _, _, args in items])
        return [fn(item) for item in items]

    monkeypatch.setattr(parallel, "parallel_map", recording)
    cases = [(1, str, ("a",)), (5, str, ("b",)), (3, str, ("c",)), (5, str, ("d",)),
             (1, str, ("e",))]
    assert parallel.run_cases(cases, 2) == ["a", "b", "c", "d", "e"]
    # descending cost, and case order among equal costs
    assert seen == [[("b",), ("d",), ("c",), ("a",), ("e",)]]


def test_all_starts_one_pool(monkeypatch, capsys):
    assert cli.main(["all", "--m-max", "6", "--format", "json", "-j", "1"]) == 0
    serial = capsys.readouterr().out
    starts = []
    start = multiprocessing.context.ForkProcess.start

    def counting(process):
        starts.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting)
    assert cli.main(["all", "--m-max", "6", "--format", "json", "-j", "2"]) == 0
    assert len(starts) == 2   # one set of two workers for the whole run
    assert capsys.readouterr().out == serial


def test_stage_rows_match_across_workers():
    serial = cli._stage_rows(7, 1)
    assert [name for name, _ in serial] == [
        "bluher-agreement", "gold-image-profile", "half-gold-structure",
        "quartic-fiber-formulas", "quartic-image-exact", "quartic-floor-sharpness",
        "kakeya-construction", "bound-dominance", "floor-bound-integer-path"]
    assert all(isinstance(r, BluherCount) for r in serial[0][1])
    assert serial == cli._stage_rows(7, 2)


def test_many_items_come_back_in_order():
    # a lambda cannot be pickled: the workers inherit fn and the items
    assert parallel.parallel_map(lambda k: -k, range(20_000), 2) == [-k for k in range(20_000)]


def test_large_array_result_comes_back_identical():
    big = np.arange(1 << 20, dtype=np.int64)   # 8 MB, larger than a pipe buffer
    out = parallel.parallel_map(lambda k: {"k": k, "a": big + k}, range(3), 2)
    for k, result in enumerate(out):
        assert result["k"] == k and result["a"].dtype == np.int64
        assert np.array_equal(result["a"], big + k)


def test_worker_exception_keeps_type_and_message():
    def fn(k):
        if k == 3:
            raise LookupError(f"no entry for item {k}")
        return k

    with pytest.raises(LookupError, match="^no entry for item 3$") as info:
        parallel.parallel_map(fn, range(6), 2)
    assert "raise LookupError" in str(info.value.__cause__)   # the worker's traceback


def test_worker_death_raises_instead_of_hanging():
    def fn(k):
        if k == 1:
            os._exit(3)
        return k

    with _deadline(60), pytest.raises(RuntimeError, match="code 3 while running item 1"):
        parallel.parallel_map(fn, range(4), 2)


def test_error_terminates_the_other_workers():
    def fn(k):
        if k == 0:
            time.sleep(0.2)
            raise ValueError("first item fails")
        time.sleep(600)

    begin = time.monotonic()
    with _deadline(60), pytest.raises(ValueError, match="first item fails"):
        parallel.parallel_map(fn, range(2), 2)
    assert time.monotonic() - begin < 30


def test_unpicklable_result_raises_in_parent():
    with pytest.raises(TypeError, match="pickle"):
        parallel.parallel_map(lambda k: threading.Lock(), range(2), 2)


def test_without_fork_runs_in_process(monkeypatch):
    monkeypatch.setattr(parallel, "_fork_context", lambda: None)
    assert parallel.parallel_map(lambda k: os.getpid(), range(3), 2) == [os.getpid()] * 3
