"""Tests of the benchmark itself, at reduced sizes.

Each workload runs end to end through fresh child interpreters, its
outputs pass the checks, and every check rejects a corrupted output.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gf2ref as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_reference_irreducibles_match_known_lists():
    listed = {2: [0b111], 3: [0b1011, 0b1101], 4: [0b10011, 0b11001, 0b11111]}
    for m, polys in listed.items():
        assert [p for p in range(1 << m, 2 << m) if ref.is_irreducible(p)] == polys
    assert ref.smallest_irreducible(8) == 0x11B
    assert ref.largest_irreducible(3) == 0b1101


def test_reference_field_axioms():
    rf = ref.RefField(0x11B)  # GF(256), where 0x53 * 0xCA = 1
    assert rf.mul(0x53, 0xCA) == 1
    x = rf.elements()
    assert np.array_equal(rf.mul(x, 1), x)
    assert np.array_equal(rf.scale(0x57, x), rf.mul(0x57, x))
    assert np.array_equal(rf.frob(x, 2), rf.sq(rf.sq(x)))
    assert np.count_nonzero(rf.trace(x) == 0) == 128
    fifth = rf.mul(rf.mul(rf.sq(x), rf.sq(x)), x)
    assert np.array_equal(rf.gold_values(2), fifth)


def test_isomorphism_respects_products():
    src = ref.RefField(ref.smallest_irreducible(9))
    dst = ref.RefField(ref.largest_irreducible(9))
    phi = dst.isomorphism_from(src.modulus)
    for a, b in [(3, 5), (100, 511), (257, 2)]:
        assert phi(src.mul(a, b)) == dst.mul(phi(a), phi(b))


def test_bounds_decided_exactly():
    # block totals of the constructions at q = 8 (x^4 + x^3) and q = 16 (Gold(2)), n = 3
    assert ref.below_bounds(274, 8, 3) == (True, True)
    assert ref.below_bounds(1686, 16, 3) == (True, True)
    assert ref.below_bounds(10 ** 6, 8, 3) == (False, False)
    assert ref.below_bounds(10 ** 6, 16, 3) == (False, False)


def test_inputs_follow_the_seed():
    for w in (workloads.BIG_FIELD_PROBE, workloads.KAKEYA_LINES):
        a, b, c = (run.digest(w.make_inputs(s, True)) for s in (4, 4, 5))
        assert a == b != c


@pytest.fixture(scope="module")
def executions(tmp_path_factory):
    """Each workload once at one and once at two workers, traced at each, and counted."""
    out = {}
    for name, w in workloads.WORKLOADS.items():
        runner = run.Runner(w, tmp_path_factory.mktemp(name))
        inputs = w.make_inputs(7, True)
        out[name] = (inputs, runner.execute(inputs, 1), runner.execute(inputs, 2),
                     runner.execute(inputs, 1, trace="spans"),
                     runner.execute(inputs, 2, trace="spans"),
                     runner.execute(inputs, 1, trace="mul_calls"))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks(executions, name):
    w = workloads.WORKLOADS[name]
    inputs, j1, j2, traced, _, counted = executions[name]
    assert w.check(inputs, j1["outputs"]) == []
    assert run.digest(j1["outputs"]) == run.digest(j2["outputs"])
    assert run.digest(traced["outputs"]) == run.digest(j1["outputs"])
    assert run.digest(counted["outputs"]) == run.digest(j1["outputs"])
    assert j1["wall_s"] > 0 and j1["cpu_s"] > 0 and j1["peak_rss_mb"] > 0
    assert 0 < j1["setup_s"] < 30


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_per_layer_metrics(executions, name):
    _, j1, _, traced, traced_j2, counted = executions[name]
    layers = run.per_layer([j1], [traced], traced_j2, counted)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(layers)
    assert layers["field.mul_arrays_calls"] > 0 and layers["parallel.items"] > 0
    assert layers["parallel.map_s"] > 0 and layers["field.mul_calls"] > 0
    # scalar multiplications are counted apart, so no span holds the counting
    assert "field.mul_calls" not in traced["trace"]["counts"]
    assert counted["trace"]["spans"] == {}
    stages = [k for k in layers if k.startswith("stage.")]
    assert len(stages) == 9
    if name == "verify-all":
        assert all(layers[k] > 0 for k in stages)
        assert 0 <= layers["cli.remainder_s"] < 0.05 * traced["wall_s"] + 0.05
        assert layers["bluher.bruteforce_slopes"] > 0 and layers["quartic.sweep_slopes"] > 0
    if name == "kakeya-lines":
        assert layers["kakeya.points"] > 0 and layers["kakeya.directions"] > 0
        assert layers["kakeya.verify_s"] > 0


def _corrupt_verify(outputs):
    report = json.loads(outputs["report"])
    bad_ok, bad_count = copy.deepcopy(report), copy.deepcopy(report)
    bad_ok["checks"][2]["ok"] = False
    bad_count["checks"][0]["cases"] += 1
    yield "a check not ok", {**outputs, "report": json.dumps(bad_ok)}
    yield "a case count off", {**outputs, "report": json.dumps(bad_count)}
    yield "exit 1", {**outputs, "exit": 1}
    yield "no report", {**outputs, "report": ""}


def _corrupt_probe(outputs):
    def edit(fn):
        out = copy.deepcopy(outputs)
        fn(out["fields"])
        return out

    def flip_trace(fields):
        fields[0]["trace"][5] ^= 1

    def product(fields):
        fields[1]["products"][3] ^= 1

    def omega(fields):
        o = fields[0]["queries"][0]["omega"]
        o[1] -= 2
        o[2] = o.get(2, 0) + 1

    def curve(fields):
        q = next(f for f in fields if f["m"] % 2)["queries"][1]
        q["v"] += 8

    def gold(fields):
        q = next(f for f in fields if f["m"] % 2 == 0)["queries"][0]
        q["gold_image"] = q["gold_image"][1:]

    def second(fields):
        fields[-1]["queries"][0]["v"] = fields[-1]["queries"][1]["v"]

    for fn in (flip_trace, product, omega, curve, gold, second):
        yield fn.__name__, edit(fn)


def _corrupt_kakeya(outputs):
    def edit(fn):
        out = copy.deepcopy(outputs)
        fn(out["cases"])
        return out

    def drop_point(cases):
        cases[0]["points"] = cases[0]["points"][1:]

    def size(cases):
        cases[1]["size"] -= 1

    def accept_negative(cases):
        cases[1]["neg_ok"] = True

    def reject_positive(cases):
        cases[0]["pos_ok"] = False

    def lose_certified(cases):
        hyper = next(c for c in cases if len(c["neg_missing"][0]) >= 3)
        hyper["neg_missing"] = [d for d in hyper["neg_missing"] if not d[-1]]

    for fn in (drop_point, size, accept_negative, reject_positive, lose_certified):
        yield fn.__name__, edit(fn)


CORRUPTIONS = {"verify-all": _corrupt_verify, "big-field-probe": _corrupt_probe,
               "kakeya-lines": _corrupt_kakeya}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_reject_corrupted_outputs(executions, name):
    w = workloads.WORKLOADS[name]
    inputs, j1, *_ = executions[name]
    for label, bad in CORRUPTIONS[name](j1["outputs"]):
        assert w.check(inputs, bad), f"{name}: check passes with {label}"


def test_measure_reports_every_end_to_end_metric(tmp_path):
    w = workloads.KAKEYA_LINES
    inputs = w.make_inputs(3, True)
    verdict = run.Verdict(w, inputs)
    metrics = run.measure(run.Runner(w, tmp_path), verdict, inputs, seconds=4)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(metrics)
    assert all(v > 0 for v in metrics.values())
    assert verdict.correct and verdict.failed == 0
    assert verdict.attempted % w.ops(inputs) == 0 and verdict.attempted >= 2 * w.ops(inputs)


def test_verdict_rejects_an_execution_that_differs(executions):
    inputs, j1, *_ = executions["kakeya-lines"]
    verdict = run.Verdict(workloads.KAKEYA_LINES, inputs)
    verdict.add(j1)
    assert verdict.correct
    other = copy.deepcopy(j1)
    other["outputs"]["cases"][0]["size"] += 1
    verdict.add(other)
    verdict.add(None)
    assert not verdict.correct
    assert verdict.failed == workloads.KAKEYA_LINES.ops(inputs)
    assert verdict.attempted == 3 * verdict.failed


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
