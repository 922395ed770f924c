"""Image sets and fiber distributions against per-element scan oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kakeyagf.field import Field, make_field, smallest_irreducible
from kakeyagf.fiber import (Gold, Quartic, fiber_distribution, function_label, image_sizes_all,
                            image_values, values_all)
from kakeyagf.quartic import curve_point_count, fiber_formula_case

from helpers_naive import (SparseExponentSum, elements, evaluate, full_sweep_image_sizes,
                           naive_fiber, naive_image, naive_irreducibles, total_preimages,
                           total_values)


def test_evaluate_frozen():
    # the scalar oracle every scan below rests on
    f4 = make_field(2)
    assert evaluate(f4, Quartic(), 0) == 0
    assert evaluate(f4, Quartic(), 1) == 0  # 1 + 1
    assert evaluate(f4, Gold(1), 2) == 1    # w^3
    f8 = make_field(3)
    assert evaluate(f8, SparseExponentSum(((6, 1), (2, 1))), 1) == 0  # x^(q-2) + x^2 at 1


def test_gold_index_validated():
    f4 = make_field(2)
    with pytest.raises(ValueError):
        values_all(f4, Gold(2))
    with pytest.raises(ValueError):
        values_all(f4, Gold(-1))
    with pytest.raises(ValueError):   # the single-slope path checks it too
        image_values(f4, Gold(2), 1)


def test_single_slope_queries_make_no_pow_all(monkeypatch):
    # a query builds its map in the kernel's order, with no encoding-order powers
    calls = []
    pow_all = Field.pow_all

    def counting(self, e):
        calls.append((self.m, e))
        return pow_all(self, e)

    monkeypatch.setattr(Field, "pow_all", counting)
    f16 = Field(16)
    fiber_distribution(f16, Quartic(), 3)
    image_values(f16, Gold(8), 3)
    curve_point_count(Field(17), 3)
    assert calls == []
    exp, exp2, _ = f16._tables()
    assert np.shares_memory(exp, exp2)   # exp is stored once, as exp2's first half


def test_full_slope_checks_sweep_one_slope_per_class(monkeypatch):
    # the slopes of a Frobenius class share their sweep; a return to one
    # sweep per slope asks for every t and fails here
    asked = []
    sweep = Field.slope_sweep

    def counting(self, p, ts):
        ts = list(ts)
        asked.extend(ts)
        return sweep(self, p, ts)

    monkeypatch.setattr(Field, "slope_sweep", counting)
    field = Field(9)
    reps = sorted(set(field.frobenius_classes().tolist()))
    assert len(reps) == 60
    for fn in (Gold(2), Quartic()):
        asked.clear()
        image_sizes_all(field, fn)
        assert sorted(asked) == reps
    asked.clear()
    fiber_formula_case(field)
    assert sorted(asked) == reps   # t = 0 among them, swept with the other classes


@pytest.mark.parametrize("m", range(1, 11))
def test_image_sizes_match_full_sweep(m):
    for modulus in naive_irreducibles(m, limit=2):
        field = make_field(m, modulus)
        for fn in [Quartic()] + [Gold(i) for i in range(m)]:
            assert np.array_equal(image_sizes_all(field, fn), full_sweep_image_sizes(field, fn))


def test_image_values_frozen():
    f4, f8 = make_field(2), make_field(3)
    assert len(image_values(f4, Gold(1), 0)) == 2
    assert len(image_values(f4, Gold(1), 1)) == 3
    assert len(image_values(f8, Quartic(), 0)) == 4
    vals = image_values(f4, Gold(1), 1)
    assert vals.dtype == np.int64 and vals.tolist() == [0, 2, 3]


def test_fiber_distribution_frozen():
    assert fiber_distribution(make_field(3), Quartic(), 0).omega == {0: 4, 2: 4}
    assert fiber_distribution(make_field(2), Quartic(), 0).omega == {0: 1, 1: 2, 2: 1}


FNS = [Gold(1), Quartic()]


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("fn", FNS, ids=function_label)
def test_against_scan_oracle(m, fn):
    for modulus in naive_irreducibles(m)[:2]:
        field = make_field(m, modulus)
        sizes = image_sizes_all(field, fn)
        for t in elements(field):
            ref_image = naive_image(field, fn, t)
            assert sizes[t] == len(ref_image)
            assert set(image_values(field, fn, t)) == ref_image
            assert fiber_distribution(field, fn, t).nonzero() == naive_fiber(field, fn, t)


@pytest.mark.parametrize("m", range(1, 11))
def test_sum_identities_and_image_size(m):
    field = make_field(m)
    fns = [Quartic()] + ([Gold(1)] if m >= 2 else [])
    for fn in fns:
        sizes = image_sizes_all(field, fn)
        for t in elements(field):
            dist = fiber_distribution(field, fn, t)
            assert total_values(dist) == field.q
            assert total_preimages(dist) == field.q
            assert dist.image_size() == sizes[t]
            assert 1 <= sizes[t] <= field.q


@pytest.mark.parametrize("m", [11, 12, 13])
def test_sum_identities_large_fields_spot(m):
    field = make_field(m)
    for fn in (Quartic(), Gold(1), Gold(m // 2)):
        for t in (0, 1, field.q - 1, field.q // 3):
            dist = fiber_distribution(field, fn, t)
            assert total_values(dist) == field.q
            assert total_preimages(dist) == field.q
            assert dist.image_size() == len(image_values(field, fn, t))


@pytest.mark.parametrize("m", [4, 6])
def test_modulus_invariance(m):
    # image-size multisets over t are a field invariant, not a modulus artifact
    default = make_field(m)
    alt_mod = next(p for p in range(default.modulus + 2, 1 << (m + 1), 2)
                   if p != default.modulus and make_field_ok(m, p))
    alt = make_field(m, alt_mod)
    for fn in [Quartic()] + [Gold(i) for i in range(1, m)]:
        assert sorted(image_sizes_all(default, fn)) == sorted(image_sizes_all(alt, fn))


def make_field_ok(m, p):
    try:
        make_field(m, p)
        return True
    except ValueError:
        return False


@settings(max_examples=60)
@given(st.integers(1, 8), st.data())
def test_fiber_identities_property(m, data):
    field = make_field(m)
    i = data.draw(st.integers(0, m - 1))
    fn = data.draw(st.sampled_from([Quartic(), Gold(i)]))
    t = data.draw(st.integers(0, field.q - 1))
    dist = fiber_distribution(field, fn, t)
    assert total_values(dist) == field.q
    assert total_preimages(dist) == field.q
    if isinstance(fn, Quartic):
        assert max(dist.omega) <= 4
