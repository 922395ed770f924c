"""Fiber formulas, curve pair counts, exact image sizes, the integer cap."""

import mpmath
import numpy as np
import pytest

from kakeyagf.field import make_field
from kakeyagf.fiber import Quartic, fiber_distribution, image_sizes_all, image_values
from kakeyagf.quartic import (_curve_counts_all, _size_from_count, curve_point_count,
                              fiber_formula_case, floor_bound_consistency,
                              omega0_distribution, omega1_formula, omega3_formula,
                              quartic_floor_bound, sharpness_search)

from kakeyagf import quartic
from helpers_naive import (elements, full_sweep_fiber_bad, kernel_curve_counts, naive_curve_pairs,
                           naive_image, naive_irreducibles, naive_largest_irreducible)


def test_omega1_frozen():
    assert omega1_formula(3, 0) == 3
    assert omega1_formula(3, 1) == 4
    assert omega1_formula(4, 1) == 6
    assert omega1_formula(4, 0) == 5
    with pytest.raises(ValueError):
        omega1_formula(3, 2)


def test_omega3():
    assert omega3_formula(0) == 1
    assert omega3_formula(1) == 0
    # cross-check: any trace-0 slope over GF(8) has one triple fiber
    f8 = make_field(3)
    t = next(t for t in range(1, 8) if f8.trace_abs(t) == 0)
    assert fiber_distribution(f8, Quartic(), t).omega.get(3, 0) == 1


def test_omega0_frozen():
    assert omega0_distribution(3).omega == {0: 4, 2: 4}
    assert omega0_distribution(4).omega == {0: 4, 1: 10, 2: 1, 4: 1}
    assert omega0_distribution(2).omega == {0: 1, 1: 2, 2: 1, 4: 0}


@pytest.mark.parametrize("m", range(1, 9))
def test_omega0_matches_measured(m):
    measured = fiber_distribution(make_field(m), Quartic(), 0)
    assert measured.nonzero() == omega0_distribution(m).nonzero()


@pytest.mark.parametrize("m", range(1, 8))
def test_fiber_formulas_all_slopes(m):
    assert fiber_formula_case(make_field(m))["ok"]


@pytest.mark.parametrize("m", range(1, 12))
def test_class_histograms_match_single_slope_routes(m):
    # row t is the single-slope histogram of t at every slope, not only at
    # the swept least slope of each class, and q - omega_0 is the bitmap
    # sweep's image size
    for modulus in naive_irreducibles(m, limit=2):
        field = make_field(m, modulus)
        omega = quartic.class_histograms(field)
        assert omega.shape == (field.q, 6)
        assert np.array_equal(field.q - omega[:, 0], image_sizes_all(field, Quartic()))
        for t, row in enumerate(omega.tolist()):
            assert row[5] == 0
            assert {k: c for k, c in enumerate(row[:5]) if c} == \
                fiber_distribution(field, Quartic(), t).omega, t


@pytest.mark.parametrize("m", range(1, 11))
def test_fiber_formula_case_matches_full_sweep(m):
    for modulus in naive_irreducibles(m, limit=2):
        field = make_field(m, modulus)
        bad = full_sweep_fiber_bad(field)
        assert bad == []   # the closed forms hold at every slope
        assert fiber_formula_case(field) == {"m": m, "ok": True, "bad_t": []}


@pytest.mark.parametrize("m", [4, 5, 6])
def test_fiber_formula_case_expands_failing_classes(m, monkeypatch):
    # a wrong formula for Tr(t) = 1 fails every such slope, and `bad_t`
    # lists the first eight of them in encoding order
    formula = quartic.omega1_formula
    monkeypatch.setattr(quartic, "omega1_formula",
                        lambda m, tr_t: formula(m, tr_t) + tr_t)
    for modulus in naive_irreducibles(m, limit=2):
        field = make_field(m, modulus)
        bad = full_sweep_fiber_bad(field)
        assert bad == [t for t in range(1, field.q) if field.trace_abs(t)]
        assert fiber_formula_case(field) == {"m": m, "ok": False, "bad_t": bad[:8]}


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_curve_count_matches_pair_enumeration(m):
    field = make_field(m)
    for t in range(1, field.q):
        assert curve_point_count(field, t).v == naive_curve_pairs(field, t)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_all_slope_curve_counts_second_modulus(m):
    field = make_field(m, naive_irreducibles(m)[1])
    expected = [naive_curve_pairs(field, t) for t in elements(field)]
    assert kernel_curve_counts(field, elements(field)).tolist() == expected
    assert _curve_counts_all(field).tolist() == expected


@pytest.mark.parametrize("m", range(1, 14))
def test_transform_counts_match_kernel(m):
    # every slope, and under the largest-encoding modulus at m = 7, 9, 11;
    # the single-slope count, which builds its own map, at three slopes
    moduli = [None] + ([naive_largest_irreducible(m)] if m in (7, 9, 11) else [])
    for modulus in moduli:
        field = make_field(m, modulus)
        counts = _curve_counts_all(field)
        assert np.array_equal(counts, kernel_curve_counts(field, elements(field)))
        for t in {1, field.q // 2, field.q - 1}:
            assert curve_point_count(field, t).v == counts[t], t


def test_curve_count_gf2():
    field = make_field(1)
    c = curve_point_count(field, 1)
    assert c.v == naive_curve_pairs(field, 1)
    assert c.v in (1, 2, 3)


def _exact_size(field, t):
    c = curve_point_count(field, t)
    return _size_from_count(field.q, c.v, c.delta)


def test_image_exact_frozen_gf8():
    # sizes derived by per-element image scans: [5,5,6,5,6,5,6] for t=1..7
    field = make_field(3)
    expected = [5, 5, 6, 5, 6, 5, 6]
    for t in range(1, 8):
        size = _exact_size(field, t)
        assert size == expected[t - 1] == len(image_values(field, Quartic(), t))
        assert size <= quartic_floor_bound(3) == 6


@pytest.mark.parametrize("m", [1, 3, 5])
def test_image_exact_matches_scan(m):
    field = make_field(m)
    for t in range(1, field.q):
        assert _exact_size(field, t) == len(naive_image(field, Quartic(), t))


def test_hasse_window_small():
    for m in (1, 3, 5, 7, 9):
        field = make_field(m)
        for t in range(1, field.q):
            v = curve_point_count(field, t).v
            assert (v - field.q) ** 2 <= 4 * field.q


def test_floor_bound_frozen():
    assert quartic_floor_bound(1) == 2
    assert quartic_floor_bound(3) == 6
    assert quartic_floor_bound(5) == 22
    assert quartic_floor_bound(7) == 83
    assert quartic_floor_bound(13) == 5143
    with pytest.raises(ValueError):
        quartic_floor_bound(4)


def test_floor_bound_vs_highprec():
    mpmath.mp.dps = 50
    for m in range(1, 32, 2):
        q = 1 << m
        ref = int(mpmath.floor(mpmath.mpf(5) * q / 8 + (2 * mpmath.sqrt(q) + 5) / 8))
        assert quartic_floor_bound(m) == ref
    assert all(r["ok"] for r in floor_bound_consistency())


def test_sharpness_small():
    r = sharpness_search(make_field(1))
    assert (r["max_size"], r["bound"], r["ok"], r["witnesses"]) == (2, 2, True, [1])
    r = sharpness_search(make_field(3))
    assert (r["max_size"], r["bound"], r["ok"]) == (6, 6, True)
    assert r["witnesses"] == sorted(r["witnesses"]) == [3, 5, 7]
    r = sharpness_search(make_field(5))
    assert (r["max_size"], r["bound"], r["ok"]) == (22, 22, True)
    with pytest.raises(ValueError):
        sharpness_search(make_field(4))
