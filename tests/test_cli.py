"""CLI surface: verbs, formats, exit codes, determinism."""

import argparse
import collections
import csv
import io
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from kakeyagf import bluher, gold, kakeya, quartic
from kakeyagf.cli import _build_parser, main
from kakeyagf.field import Field, make_field
from helpers_naive import naive_irreducibles

CMD = [sys.executable, "-m", "kakeyagf.cli"]


def run_cli(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def test_kakeya_verb_json():
    r = run_cli("kakeya", "--m", "2", "--n", "2", "--f", "gold:1", "--check",
                "--format", "json")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload == {"q": 4, "n": 2, "f": "gold:1", "size": 15,
                       "bound_new": 18.0, "bound_klss": 18.0,
                       "kakeya_verified": True}


@pytest.mark.parametrize("args", [["all", "--m-max", "4"],
                                  ["kakeya", "--m", "2", "--n", "2", "--f", "gold:1", "--check"]])
def test_cli_leaves_numpy_ma_unimported(args):
    # np.unique imports numpy.ma on its first call, tens of ms of a short run
    probe = ("import sys; from kakeyagf.cli import main; code = main(sys.argv[1:]); "
             "print('numpy.ma' in sys.modules); sys.exit(code)")
    r = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


def test_kakeya_rejects_linear_map():
    r = run_cli("kakeya", "--m", "3", "--n", "2", "--f", "gold:0")
    assert r.returncode == 2
    assert "affine" in r.stderr


def test_kakeya_affine_gate_runs_once(monkeypatch, capsys):
    calls = []
    is_gf2_affine = kakeya.is_gf2_affine

    def recording(field, vals):
        calls.append(field.q)
        return is_gf2_affine(field, vals)

    monkeypatch.setattr(kakeya, "is_gf2_affine", recording)
    assert main(["kakeya", "--m", "3", "--n", "2", "--f", "quartic", "--check",
                 "--format", "json"]) == 0
    assert calls == [8]
    assert json.loads(capsys.readouterr().out)["kakeya_verified"] is True


def test_kakeya_bad_function():
    r = run_cli("kakeya", "--m", "3", "--n", "2", "--f", "cubic")
    assert r.returncode == 2


def test_sharpness_even_m_rejected():
    r = run_cli("sharpness", "--m", "4")
    assert r.returncode == 2
    assert "odd" in r.stderr


def test_sharpness_m15_attains_bound():
    # the floor bound is attained at m = 15 too, so the verdict gates the exit code
    r = run_cli("sharpness", "--m", "15", "--format", "json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["sharp"] is True


def test_sharpness_m19_attains_bound():
    # odd m up to 19 runs: the all-slope counts cost O(q log q)
    r = run_cli("sharpness", "--m", "19", "--format", "json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["sharp"] is True


def test_sharpness_json_schema():
    r = run_cli("sharpness", "--m", "3", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert list(payload) == ["m", "q", "bound", "max_size", "sharp", "witnesses"]
    assert payload["sharp"] is True and payload["max_size"] == 6
    assert payload["witnesses"] == ["3", "5", "7"]


def test_sharpness_verb_reports_alls_row(capsys):
    # all's quartic-floor-sharpness rows and the sharpness verb read one row:
    # every witness, not a prefix, at each odd m <= 13
    for row in quartic.sharpness_sweep(13):
        assert main(["sharpness", "--m", str(row["m"]), "--format", "json"]) == 0
        witnesses = json.loads(capsys.readouterr().out)["witnesses"]
        assert row["witnesses"] == [int(t, 16) for t in witnesses], row["m"]


def test_verify_bluher():
    r = run_cli("verify-bluher", "--m-max", "6", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["ok"] is True
    assert len(payload["rows"]) == 20
    # m = 2, i = 0: d = m, so N0 = q/2 = 2 (hand-checked over GF(4))
    assert payload["rows"][0] == {"m": 2, "i": 0, "d": 2, "n0_formula": 2,
                                  "n0_bruteforce": 2, "agree": True}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_bluher_prints_the_library_rows(capsys, workers):
    assert main(["verify-bluher", "--m-max", "5", "--format", "json", "-j", workers]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    expected = [bluher.agreement_case(m, i) for m in range(2, 6) for i in range(m)]
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in expected]


@pytest.mark.parametrize("m, i", [(4, 2), (5, 1), (6, 4)])
def test_gold_verb_prints_the_library_row(capsys, m, i):
    assert main(["gold", "--m", str(m), "--i", str(i), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload.items()) == list(gold.gold_profile(m, i).items())


def test_gold_verb():
    r = run_cli("gold", "--m", "4", "--i", "2", "--verify", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["size_at_zero"] == 4 and payload["size_at_nonzero"] == 10
    assert payload["profile_matches_bruteforce"] is True
    assert payload["image_is_subfield"] is True
    assert payload["scale_invariant"] is True


def test_gold_modulus_override():
    r = run_cli("gold", "--m", "4", "--i", "2", "--verify", "--modulus", "13",
                "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["size_at_nonzero"] == 10
    r = run_cli("gold", "--m", "4", "--i", "2", "--modulus", "15")
    assert r.returncode == 2  # reducible


def test_gold_verify_sweeps_once_under_modulus(monkeypatch, capsys):
    swept = []
    image_sizes_all = gold.image_sizes_all

    def recording(field, fn):
        swept.append(field.modulus)
        return image_sizes_all(field, fn)

    monkeypatch.setattr(gold, "image_sizes_all", recording)
    assert main(["gold", "--m", "4", "--i", "2", "--verify", "--modulus", "19",
                 "--format", "json"]) == 0
    assert swept == [0x19]
    assert json.loads(capsys.readouterr().out)["scale_invariant"] is True


@pytest.mark.parametrize("fact,broken", [("two_to_one_elsewhere", lambda v: False),
                                          ("image_size_at_one", lambda v: v + 1)],
                         ids=["two_to_one_elsewhere", "image_size_at_one"])
def test_gold_verify_runs_alls_half_gold_case(monkeypatch, capsys, fact, broken):
    # gold --verify takes its half-gold facts and verdict from the case that
    # all runs, on the field its --modulus names; one broken fact, a flag or
    # the measured |I(1)| that half_gold_case holds to (q + sqrt(q))/2, fails both
    fields = []
    half_gold_case = gold.half_gold_case

    def recording(field):
        fields.append(field.modulus)
        return half_gold_case(field)

    monkeypatch.setattr(gold, "half_gold_case", recording)
    argv = ["gold", "--m", "4", "--i", "2", "--verify", "--modulus", "19", "--format", "json"]
    assert main(argv) == 0
    assert fields == [0x19]
    capsys.readouterr()
    verify = gold.verify_half_gold_structure
    expected = broken(verify(make_field(4, 0x19))[fact])
    monkeypatch.setattr(gold, "verify_half_gold_structure",
                        lambda field: {**verify(field), fact: broken(verify(field)[fact])})
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)[fact] == expected
    for workers in ("1", "2"):
        code = main(["all", "--m-max", "4", "--format", "json", "-j", workers])
        checks = {c["name"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks.pop("half-gold-structure") is False
        assert all(checks.values()) and code == 1, workers


def test_quartic_slope_counts_curve_once(monkeypatch, capsys):
    calls = []
    curve_point_count = quartic.curve_point_count

    def recording(field, t):
        calls.append(t)
        return curve_point_count(field, t)

    monkeypatch.setattr(quartic, "curve_point_count", recording)
    assert main(["quartic", "--m", "5", "--t", "3", "--format", "json"]) == 0
    assert calls == [3]
    assert json.loads(capsys.readouterr().out)["formula_matches_bruteforce"] is True


def _slope_reports(modulus, capsys):
    for t in range(1, 32):
        code = main(["quartic", "--m", "5", "--t", f"{t:x}", "--modulus", f"{modulus:x}",
                     "--format", "json"])
        yield code, json.loads(capsys.readouterr().out)


def test_quartic_slope_exact_size_at_every_slope(monkeypatch, capsys):
    # the size formula at one curve count matches the slope's own histogram
    # at every t != 0, under the default modulus and a second one, and the
    # formula off by one fails every slope
    moduli = naive_irreducibles(5, limit=2)
    for modulus in moduli:
        for code, payload in _slope_reports(modulus, capsys):
            assert code == 0 and payload["image_size_exact"] == payload["image_size"]
            assert payload["formula_matches_bruteforce"] is True
    size_from_count = quartic._size_from_count
    monkeypatch.setattr(quartic, "_size_from_count", lambda *args: size_from_count(*args) + 1)
    for modulus in moduli:
        for code, payload in _slope_reports(modulus, capsys):
            assert code == 1 and payload["formula_matches_bruteforce"] is False


@pytest.mark.parametrize("workers", ["1", "2"])
def test_all_image_exact_checks_every_slope_at_13(workers, monkeypatch, capsys):
    # one wrong brute-force size at m = 13, at slopes that a seeded sample
    # of 100 (random.Random(0)) would miss, must fail the check: omega_0 in
    # the rows of slope 3's class, which the fiber formulas do not read
    class_histograms = quartic.class_histograms

    def omega0_off_by_one(field):
        omega = class_histograms(field)
        if field.m == 13:
            classes = field.frobenius_classes()
            omega = omega.copy()
            omega[classes == classes[3], 0] += 1
        return omega

    monkeypatch.setattr(quartic, "class_histograms", omega0_off_by_one)
    code = main(["all", "--m-max", "13", "--format", "json", "-j", workers])
    checks = {c["name"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks.pop("quartic-image-exact") is False
    assert all(checks.values()) and code == 1


def test_all_sweeps_the_quartic_once_per_field(monkeypatch, capsys):
    # quartic-fiber-formulas and quartic-image-exact read one set of class
    # histograms, t = 0 among them, from one build of the map, and
    # quartic-floor-sharpness sweeps no slope; besides them only
    # kakeya-construction builds and sweeps the quartic, at m = 3
    sweeps, builds = collections.Counter(), collections.Counter()
    slope_sweep, power_sum = Field.slope_sweep, Field.power_sum

    def counting_sweep(self, p, ts):
        if np.array_equal(p, power_sum(self, (4, 3))):
            sweeps[self.m, self.modulus] += 1
        return slope_sweep(self, p, ts)

    def counting_build(self, exponents, *args, **kwargs):
        if tuple(exponents) == (4, 3):   # with or without a slope
            builds[self.m, self.modulus] += 1
        return power_sum(self, exponents, *args, **kwargs)

    monkeypatch.setattr(Field, "slope_sweep", counting_sweep)
    monkeypatch.setattr(Field, "power_sum", counting_build)
    kakeya.construction_sweep(13)
    per_field = collections.Counter({(m, make_field(m).modulus): 1 for m in range(1, 14)})
    expected = [per_field + sweeps, per_field + builds]
    sweeps.clear()
    builds.clear()
    # the shared fields may hold histograms from earlier runs in this process
    for m in range(1, 14):
        monkeypatch.setattr(make_field(m), "_derived", {})
    assert main(["all", "--m-max", "13", "--format", "json", "-j", "1"]) == 0
    assert [sweeps, builds] == expected


@pytest.mark.parametrize("workers", ["1", "2"])
def test_all_kakeya_construction_checks_block_count(workers, monkeypatch, capsys):
    # a closed-form total one too large disagrees with the enumerated blocks:
    # a FAIL row of kakeya-construction alone, not a traceback
    closed_form = kakeya.kakeya_size_from_images
    monkeypatch.setattr(kakeya, "kakeya_size_from_images",
                        lambda image_sizes, n: closed_form(image_sizes, n) + 1)
    code = main(["all", "--m-max", "4", "--format", "json", "-j", workers])
    checks = {c["name"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks.pop("kakeya-construction") is False
    assert all(checks.values()) and code == 1


@pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3, 4) for n in (2, 3)])
def test_kakeya_verb_matches_construction_case(m, n, capsys):
    # the verb and `all`'s kakeya-construction report the same seven values
    f = "quartic" if m % 2 else f"gold:{m // 2}"
    assert main(["kakeya", "--m", str(m), "--n", str(n), "--f", f, "--check",
                 "--format", "json"]) == 0
    row = kakeya.construction_case(m, n)
    assert json.loads(capsys.readouterr().out) == {
        k: row[k] for k in ("q", "n", "f", "size", "bound_new", "bound_klss", "kakeya_verified")}


def test_kakeya_verb_checks_block_count(monkeypatch, capsys):
    closed_form = kakeya.kakeya_size_from_images
    monkeypatch.setattr(kakeya, "kakeya_size_from_images",
                        lambda image_sizes, n: closed_form(image_sizes, n) + 1)
    assert main(["kakeya", "--m", "2", "--n", "2", "--f", "gold:1", "--check",
                 "--format", "json"]) == 1
    out = capsys.readouterr()
    assert "block enumeration counts 15 tuples, the closed form 16" in out.err
    assert json.loads(out.out)["kakeya_verified"] is True


def test_kakeya_verb_holds_only_the_papers_map_to_the_bounds(monkeypatch, capsys):
    # at q = 64, n = 3 Gold(1)'s set verifies with 119,766 blocks, above the
    # new bound 85,313.8 that the paper proves for Gold(3) alone
    args = ["kakeya", "--m", "6", "--n", "3", "--check", "--format", "json", "--f"]
    assert main(args + ["gold:1"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["size"] == 119766 and row["size"] > row["bound_new"] and row["kakeya_verified"]

    # bounds below every size: the paper's map now fails, any other still passes
    monkeypatch.setattr(kakeya, "bound_eval", lambda q, n: (1.0, 1.0))
    assert [main(args + [f]) for f in ("gold:3", "gold:1", "quartic")] == [1, 0, 0]

    # a block count that disagrees with the closed form fails any map
    closed_form = kakeya.kakeya_size_from_images
    monkeypatch.setattr(kakeya, "kakeya_size_from_images",
                        lambda image_sizes, n: closed_form(image_sizes, n) + 1)
    assert main(args + ["gold:1"]) == 1
    capsys.readouterr()


def test_quartic_verb():
    r = run_cli("quartic", "--m", "3", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["fiber_formulas_ok"] and payload["image_exact_ok"] and payload["hasse_ok"]
    assert payload["floor_bound"] == 6

    r = run_cli("quartic", "--m", "3", "--t", "3", "--format", "json")
    payload = json.loads(r.stdout)
    assert payload["image_size_exact"] == 6 and payload["sharp"] is True
    assert payload["formula_matches_bruteforce"] is True


def test_bounds_csv():
    r = run_cli("bounds", "--m-range", "3..4", "--n-range", "1..2", "--format", "csv")
    assert r.returncode == 0
    rows = list(csv.DictReader(io.StringIO(r.stdout)))
    assert len(rows) == 4
    assert {row["q"] for row in rows} == {"8", "16"}


def test_bounds_bad_range():
    r = run_cli("bounds", "--m-range", "4..3", "--n-range", "1..2")
    assert r.returncode == 2


def test_unknown_verb():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_all_reduced_and_repeatable():
    r1 = run_cli("all", "--m-max", "4", "--format", "json")
    r2 = run_cli("all", "--m-max", "4", "--format", "json")
    assert r1.returncode == 0 and json.loads(r1.stdout)["ok"] is True
    assert r1.stdout == r2.stdout


@pytest.mark.parametrize("args", [
    ["gold", "--m", "4", "--i", "4"],
    ["gold", "--m", "4", "--i", "0"],
    ["gold", "--m", "5", "--i", "1", "--modulus", "13"],   # degree 4, not 5
    ["quartic", "--m", "3", "--modulus", "9"],             # x^3 + 1 = (x + 1)(x^2 + x + 1)
    ["bounds", "--m-range", "0..2", "--n-range", "1..2"],
    ["bounds", "--m-range", "1..2", "--n-range", "0..2"],
    ["bounds", "--m-range", "60..60", "--n-range", "20..20"],  # bounds past the float range
    ["bounds", "--m-range", "1100..1100", "--n-range", "1..1"],  # q itself is past it
    ["verify-bluher", "--m-max", "1"],
    ["verify-bluher", "--m-max", "21"],
    ["kakeya", "--m", "3", "--n", "2", "--f", "gold:5"],
    ["quartic", "--m", "19"],                              # full sweep refused; --t is allowed
    ["sharpness", "--m", "21"],                            # beyond MAX_DEGREE
    ["kakeya", "--m", "19", "--n", "2", "--f", "quartic"],  # sweeps every slope
    ["gold", "--m", "19", "--i", "3", "--verify"],         # same; without --verify it runs
    ["gold", "--m", "2", "--i", "1", "--modulus=-5"],      # a negative int: no polynomial
    ["quartic", "--m", "3", "--modulus=-b"],
    ["sharpness", "--m", "3", "--modulus=-b"],
])
def test_bad_input_is_usage_error(args, capsys):
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")
    previous = signal.signal(signal.SIGALRM, expire)   # a hang fails, not blocks, the run
    signal.alarm(60)
    try:
        assert main(args) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert capsys.readouterr().err.startswith("error: ")


# a rule on one option is checked by argparse, and its message names the option
@pytest.mark.parametrize("option, args", [
    ("--m", ["gold", "--m", "21", "--i", "1"]),
    ("--t", ["quartic", "--m", "3", "--t", "zz"]),
    ("--parallelism/-j", ["all", "-j", "0"]),
    ("--m-max", ["all", "--m-max", "14"]),
    ("--n", ["kakeya", "--m", "3", "--n", "0", "--f", "quartic"]),
    ("--f", ["kakeya", "--m", "3", "--n", "2", "--f", "cubic"]),
    ("--m-range", ["bounds", "--m-range", "3..1", "--n-range", "1..2"]),
])
def test_single_option_rule_names_option(option, args, capsys):
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: argument {option}")


def test_import_lets_openblas_threads_sleep():
    # numpy has not loaded yet in a fresh interpreter, so OpenBLAS reads the value
    code = "import os, kakeyagf; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.stdout == "4\n", r.stderr
    r = subprocess.run([sys.executable, "-c", code], env={**env, "OPENBLAS_THREAD_TIMEOUT": "12"},
                       capture_output=True, text=True)
    assert r.stdout == "12\n", r.stderr


def test_help_exits_zero():
    r = run_cli("gold", "--help")
    assert r.returncode == 0
    assert "--verify" in r.stdout and r.stderr == ""


def test_library_fault_is_not_usage_error(monkeypatch):
    def fault(m, i):
        raise ValueError("internal fault")

    monkeypatch.setattr(bluher, "bluher_formula", fault)
    with pytest.raises(ValueError, match="internal fault"):
        main(["verify-bluher", "--m-max", "3"])


def test_kakeya_library_fault_is_not_usage_error(monkeypatch):
    def fault(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(kakeya, "build_kakeya", fault)
    with pytest.raises(ValueError, match="internal fault"):
        main(["kakeya", "--m", "2", "--n", "2", "--f", "gold:1"])


@pytest.mark.parametrize("args", [["--m", "2", "--n", "700", "--f", "gold:1"],
                                  ["--m", "6", "--n", "1000000", "--f", "gold:3"]])
def test_kakeya_refuses_bounds_past_float_range(args, monkeypatch, capsys):
    # refused before the build, whose big-integer block total alone runs for
    # many seconds at n = 10^6
    def built(*_, **__):
        raise AssertionError("build_kakeya called")

    monkeypatch.setattr(kakeya, "build_kakeya", built)
    assert main(["kakeya"] + args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --m {args[1]} with --n {args[3]} gives bounds past the float range\n"


def test_kakeya_check_skipped_above_packed_bits(capsys):
    assert main(["kakeya", "--m", "13", "--n", "5", "--f", "quartic", "--check",
                 "--format", "json"]) == 0
    out = capsys.readouterr()
    assert "line check skipped" in out.err
    assert json.loads(out.out)["kakeya_verified"] is None


def test_quartic_sweep_refusal_names_t(capsys):
    assert main(["quartic", "--m", "20"]) == 2
    assert "--t" in capsys.readouterr().err


def test_kakeya_check_skipped_above_cap(capsys):
    # q = 256, n = 4: the block total, about 6.5e8, is over the 2^24 points
    # the check materializes; sizes and bounds still report
    assert main(["kakeya", "--m", "8", "--n", "4", "--f", "gold:4", "--check",
                 "--format", "json"]) == 0
    out = capsys.readouterr()
    assert "materialization cap exceeded" in out.err
    assert json.loads(out.out)["kakeya_verified"] is None


# each verb's options; -j only where there are cases to spread over
# workers; `all` takes --seed and echoes it in its report
VERB_OPTIONS = {
    "verify-bluher": [["--format"], ["--parallelism", "-j"], ["--m-max"]],
    "gold": [["--format"], ["--modulus"], ["--m"], ["--i"], ["--verify"]],
    "quartic": [["--format"], ["--modulus"], ["--m"], ["--t"]],
    "sharpness": [["--format"], ["--modulus"], ["--m"]],
    "kakeya": [["--format"], ["--modulus"], ["--m"], ["--n"], ["--f"], ["--check"]],
    "bounds": [["--format"], ["--m-range"], ["--n-range"]],
    "all": [["--format"], ["--parallelism", "-j"], ["--m-max"], ["--seed"]],
}


def test_verb_options_frozen():
    sub, = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {verb: [a.option_strings for a in p._actions
                      if not isinstance(a, argparse._HelpAction)]
               for verb, p in sub.choices.items()}
    assert options == VERB_OPTIONS
    assert sum(map(len, options.values())) == 28


@pytest.mark.parametrize("args", [
    ["gold", "--m", "4", "--i", "2", "--seed", "0"],
    ["bounds", "--m-range", "3..4", "--n-range", "1..2", "-j", "2"],
    ["kakeya", "--m", "2", "--n", "2", "--f", "gold:1", "--check", "--cap", "5"],
])
def test_removed_options_rejected(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert "unrecognized arguments" in r.stderr
