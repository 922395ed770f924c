"""End-to-end verification sweeps at full desk scale, zero tolerance.

Each test prints one PASS line on success (pytest -s shows them); a
failure prints the offending rows through the assertion message.
"""

import json
import subprocess
import sys

import mpmath
import numpy as np

from kakeyagf import bluher, gold, kakeya, quartic
from kakeyagf.field import make_field
from kakeyagf.fiber import Gold, Quartic, image_sizes_all
from kakeyagf.quartic import quartic_floor_bound


def _report(name, rows, key="ok"):
    bad = [r for r in rows if not r[key]]
    assert not bad, f"{name}: {len(bad)} failing cases: {bad[:5]}"
    print(f"PASS {name} ({len(rows)} cases)")


def test_bluher_agreement():
    # every (m, i) with 2 <= m <= 12, 0 <= i < m: formula == brute force
    rows = bluher.agreement_sweep(12)
    assert [(r["m"], r["i"]) for r in rows] == [(m, i) for m in range(2, 13) for i in range(m)]
    _report("bluher-agreement", rows, key="agree")


def test_gold_image_profile():
    # closed-form |I(t)| vs brute force for all 2 <= m <= 12, 1 <= i < m, all t;
    # `all`'s default m_max = 13 stops at 12
    rows = gold.image_profile_sweep(13)
    assert [(r["m"], r["i"]) for r in rows] == [(m, i) for m in range(2, 13) for i in range(1, m)]
    _report("gold-image-profile", rows)


def test_half_gold_structure():
    # even m <= 12: |I(0)| = sqrt(q), |I(t)| = (q+sqrt(q))/2, plus the
    # subfield-image / injective-on-trace-one / 2-to-1 facts, exhaustively
    rows = gold.half_gold_sweep(13)
    assert [r["m"] for r in rows] == [2, 4, 6, 8, 10, 12]
    for r in rows:
        assert r["structure_ok"] and r["sizes_ok"]
    _report("half-gold-structure", rows)


def test_quartic_fiber_formulas():
    # m <= 13, all t: single/triple-fiber counts and the slope-0 histogram
    rows = quartic.fiber_formula_sweep(13)
    assert [r["m"] for r in rows] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]
    _report("quartic-fiber-formulas", rows)


def test_quartic_image_exact():
    # odd m in {3..13}: formula == brute force for every t != 0, and the
    # |v - q| <= 2 sqrt(q) window holds at every slope
    rows = quartic.image_exact_sweep(13)
    assert [r["m"] for r in rows] == [3, 5, 7, 9, 11, 13]
    for r in rows:
        assert r["hasse_ok"], r
        assert r["match_ok"], r
    assert [r["brute_checked"] for r in rows] == [7, 31, 127, 511, 2047, 8191]
    _report("quartic-image-exact", rows)


def test_quartic_floor_sharpness():
    # odd m <= 13: some slope attains floor(5q/8 + (2 sqrt(q) + 5)/8)
    rows = quartic.sharpness_sweep(13)
    assert [r["m"] for r in rows] == [1, 3, 5, 7, 9, 11, 13]
    for r in rows:
        assert r["max_size"] == r["bound"], r
    _report("quartic-floor-sharpness", rows)


def test_kakeya_construction_end_to_end():
    # (q, n) in {4, 8, 16} x {2, 3}: block total == geometric-series value,
    # the line check passes, and the total sits below both bounds (at q = 4
    # the two even-case bounds coincide; both comparisons still hold)
    rows = kakeya.construction_sweep(13)
    assert [(r["q"], r["n"]) for r in rows] == [(4, 2), (4, 3), (8, 2), (8, 3), (16, 2), (16, 3)]
    for r in rows:
        assert r["kakeya_verified"], r
        assert r["size"] < r["bound_new"] and r["size"] < r["bound_klss"], r
        assert r["distinct_points"] <= r["size"]
    _report("kakeya-construction", rows)


def test_bound_dominance():
    # new even bound below the prior one for q in {16, 64}, n in 2..6;
    # new odd bound below for q in {8, 32, 128}, n in 1..6; margin > 1e-6
    rows = kakeya.bound_dominance_rows()
    assert len(rows) == 28
    for r in rows:
        assert r["new_bound"] < r["klss_bound"], r
        assert (r["klss_bound"] - r["new_bound"]) / r["klss_bound"] > 1e-6, r
    _report("bound-dominance", rows)


def test_floor_bound_integer_path():
    # integer-only floor vs 50-digit float evaluation for all odd m <= 31
    mpmath.mp.dps = 50
    rows = []
    for m in range(1, 32, 2):
        q = 1 << m
        ref = int(mpmath.floor(mpmath.mpf(5) * q / 8 + (2 * mpmath.sqrt(q) + 5) / 8))
        rows.append({"m": m, "ok": quartic_floor_bound(m) == ref})
    _report("floor-bound-integer-path (mpmath)", rows)
    rows = quartic.floor_bound_consistency()
    assert [r["m"] for r in rows] == list(range(1, 32, 2))
    _report("floor-bound-integer-path (decimal)", rows)


def test_deterministic_reports_across_workers():
    # the full sweep, fixed config and seed: byte-identical output twice at
    # one worker, once at two and twice at eight
    cmd = [sys.executable, "-m", "kakeyagf.cli", "all", "--m-max", "5",
           "--seed", "0", "--format", "json"]
    outputs = []
    for workers in ("1", "1", "2", "8", "8"):
        r = subprocess.run(cmd + ["-j", workers], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3] == outputs[4]
    assert json.loads(outputs[0])["ok"] is True
    print("PASS deterministic-reports (5 runs compared)")
