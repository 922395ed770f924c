"""No-root counts: closed form vs the definitional scan."""

import math

import pytest

from kakeyagf.bluher import agreement_sweep, bluher_bruteforce, bluher_formula
from kakeyagf.field import make_field

from helpers_naive import kernel_bluher, naive_bluher, naive_irreducibles


def test_formula_frozen():
    # derived by the scalar scan oracle below
    assert bluher_formula(3, 1) == 3
    assert bluher_formula(4, 2) == 6
    assert bluher_formula(2, 1) == 1
    assert bluher_formula(4, 0) == 8  # d = m, the m/d = 1 boundary


def test_bruteforce_frozen():
    assert bluher_bruteforce(make_field(3), 1) == 3
    assert bluher_bruteforce(make_field(2), 1) == 1
    assert bluher_bruteforce(make_field(4), 0) == 8


def test_index_range_rejected():
    with pytest.raises(ValueError):
        bluher_formula(4, 4)
    with pytest.raises(ValueError):
        bluher_formula(4, -1)
    with pytest.raises(ValueError):
        bluher_bruteforce(make_field(4), 5)


@pytest.mark.parametrize("m", range(2, 6))
def test_bruteforce_matches_scalar_oracle(m):
    for modulus in naive_irreducibles(m)[:2]:
        field = make_field(m, modulus)
        for i in range(m):
            assert bluher_bruteforce(field, i) == naive_bluher(field, i)


@pytest.mark.parametrize("m", range(2, 12))
def test_bruteforce_matches_kernel_scan(m):
    # the O(q^2) scan over every (b, x), under a second modulus up to m = 9
    moduli = [None] + (naive_irreducibles(m, 2)[1:] if m <= 9 else [])
    for modulus in moduli:
        field = make_field(m, modulus)
        for i in range(m):
            assert bluher_bruteforce(field, i) == kernel_bluher(field, i)


def test_symmetry_in_i():
    for m in range(2, 17):
        for i in range(1, m):
            assert bluher_formula(m, i) == bluher_formula(m, m - i)


def test_formula_always_integral():
    # exact_div would raise otherwise; also sanity the count stays below q-1
    for m in range(1, 17):
        for i in range(m):
            n0 = bluher_formula(m, i)
            assert 0 <= n0 < (1 << m)
            d = math.gcd(i, m)
            assert n0 * 2 * ((1 << d) + 1) == (1 << d) * ((1 << m) + (-1 if (m // d) % 2 == 0 else 1))


def test_agreement_sweep_small():
    rows = agreement_sweep(m_max=6)
    assert len(rows) == sum(range(2, 7))  # all (m, i) with 0 <= i < m
    assert all(r["agree"] for r in rows)


def test_agreement_sweep_m16():
    rows = agreement_sweep(m_max=16)
    assert len(rows) == sum(range(2, 17))
    assert all(r["agree"] for r in rows)
