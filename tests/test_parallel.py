"""Case scheduling: one pool per `all` run, costliest case first, results in case order."""

import multiprocessing

from kakeyagf import cli, parallel
from kakeyagf.bluher import BluherCount


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
    pools = []
    pool = multiprocessing.Pool

    def counting(*args, **kwargs):
        pools.append(kwargs)
        return pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    assert cli.main(["all", "--m-max", "6", "--format", "json", "-j", "2"]) == 0
    assert len(pools) == 1
    assert capsys.readouterr().out == serial


def test_stage_rows_match_across_workers():
    serial = cli._stage_rows(7, 0, 1)
    assert [name for name, _ in serial] == [
        "bluher-agreement", "gold-image-profile", "half-gold-structure",
        "quartic-fiber-formulas", "quartic-image-exact", "quartic-floor-sharpness",
        "kakeya-construction", "bound-dominance", "floor-bound-integer-path"]
    assert all(isinstance(r, BluherCount) for r in serial[0][1])
    assert serial == cli._stage_rows(7, 0, 2)
