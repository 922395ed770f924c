"""GF(2^m) arithmetic against naive polynomial oracles and field axioms."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kakeyagf.field import (Field, frobenius_class_count, is_irreducible, make_field, poly_mod,
                            smallest_irreducible, stride_pair, xor_span)

from helpers_naive import (elements, kernel_order, naive_irreducibles, naive_is_irreducible,
                           naive_mul, naive_smallest_irreducible)


def test_smallest_irreducible_frozen():
    # x^2+x+1 is the unique irreducible quadratic; the rest were derived by
    # exhaustively scanning all factor pairs (see naive oracle below)
    assert smallest_irreducible(2) == 0b111
    assert smallest_irreducible(3) == 0b1011
    assert smallest_irreducible(4) == 0b10011


@pytest.mark.parametrize("m", range(1, 7))
def test_smallest_irreducible_matches_oracle(m):
    assert smallest_irreducible(m) == naive_smallest_irreducible(m)


@pytest.mark.parametrize("m", range(2, 7))
def test_is_irreducible_matches_oracle(m):
    for p in range(1 << m, 1 << (m + 1)):
        assert is_irreducible(p) == naive_is_irreducible(p), f"{p:b}"


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(0)
    with pytest.raises(ValueError):
        make_field(21)
    with pytest.raises(ValueError):
        Field(4, modulus=0b10101)  # (x^2+x+1)^2
    with pytest.raises(ValueError):
        Field(4, modulus=0b1011)  # degree 3, not 4
    with pytest.raises(ValueError):
        Field(4, modulus=0b10010)  # zero constant term


def test_make_field_override_accepted():
    f = make_field(4, modulus=0b11001)  # x^4+x^3+1
    assert f.q == 16
    assert f.mul(1, 9) == 9


def test_mul_frozen_examples():
    assert make_field(2).mul(2, 2) == 3  # x*x = x+1 mod x^2+x+1
    assert make_field(3).mul(2, 4) == 3  # x*x^2 = x+1 mod x^3+x+1
    f = make_field(3)
    assert all(f.mul(1, a) == a for a in elements(f))


@pytest.mark.parametrize("m", range(1, 7))
def test_mul_matches_naive(m):
    f = make_field(m)
    for a in elements(f):
        for b in elements(f):
            assert f.mul(a, b) == naive_mul(f.modulus, a, b)


def test_pow_frozen_examples():
    f4, f8 = make_field(2), make_field(3)
    assert f4.pow(2, 3) == 1
    assert f8.pow(2, 7) == 1
    assert f4.pow(0, 0) == 1
    assert f8.pow(5, 1) == 5
    with pytest.raises(ValueError):
        f4.pow(2, -1)


@pytest.mark.parametrize("m", range(1, 9))
def test_inv_roundtrip_exhaustive(m):
    # a^(q-2) is the inverse of every unit a
    f = make_field(m)
    for a in range(1, f.q):
        assert f.mul(a, f.pow(a, f.q - 2)) == 1


@pytest.mark.parametrize("m", range(1, 9))
def test_mul_commutative_all_pairs(m):
    f = make_field(m)
    x = np.arange(f.q, dtype=np.int64)
    prod = f.mul_arrays(x[:, None], x[None, :])
    assert np.array_equal(prod, prod.T)
    rng = np.random.default_rng(m)
    a, b, c = (rng.integers(0, f.q, size=10_000) for _ in range(3))
    assert np.array_equal(f.mul_arrays(f.mul_arrays(a, b), c),
                          f.mul_arrays(a, f.mul_arrays(b, c)))


@pytest.mark.parametrize("m", range(9, 13))
def test_mul_axioms_randomized(m):
    # 1e5 random triples: commutativity, associativity, inverse roundtrip
    f = make_field(m)
    rng = np.random.default_rng(m)
    a, b, c = (rng.integers(0, f.q, size=100_000) for _ in range(3))
    ab = f.mul_arrays(a, b)
    assert np.array_equal(ab, f.mul_arrays(b, a))
    assert np.array_equal(f.mul_arrays(ab, c), f.mul_arrays(a, f.mul_arrays(b, c)))
    nz = a[a != 0][:1000]
    inv = np.array([f.pow(int(v), f.q - 2) for v in nz], dtype=np.int64)
    assert np.all(f.mul_arrays(nz, inv) == 1)


def test_mul_arrays_matches_scalar():
    f = make_field(5)
    x = np.arange(f.q, dtype=np.int64)
    prod = f.mul_arrays(x[:, None], x[None, :])
    for a in elements(f):
        for b in elements(f):
            assert prod[a, b] == f.mul(a, b)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_pow_all_matches_scalar(m):
    f = make_field(m)
    for e in (0, 1, 2, 3, (1 << (m // 2)) + 1, f.q - 2):
        assert np.array_equal(f.pow_all(e),
                              np.array([f.pow(x, e) for x in elements(f)]))


@pytest.mark.parametrize("m", range(1, 13))
def test_power_sum_matches_pow_all(m):
    # power_sum and pow_all against powers built apart from both, x^e as
    # x^(e-1)*x. m <= 6, two moduli, schoolbook products: every exponent
    # 0..2q-1, alone and in pairs, both constants; that takes in 0^0 = 1,
    # e = q - 1 and every e = 0 mod q - 1 (x^e = 1 on the units). m = 7..12,
    # one modulus, table products: every e in [0, q - 1) alone, so every
    # stride pair of the field
    if m > 6:
        f = make_field(m)
        x = np.arange(f.q, dtype=np.int64)
        power = np.ones(f.q, dtype=np.int64)
        for e in range(f.q - 1):
            assert np.array_equal(f.power_sum([e]), kernel_order(f, power)), e
            assert np.array_equal(f.pow_all(e), power), e
            power = f.mul_arrays(power, x)
        return
    for modulus in naive_irreducibles(m, limit=2):
        f = Field(m, modulus)
        exps = range(2 * f.q)
        powers = [[1] * f.q]
        for e in exps[1:]:
            powers.append([naive_mul(modulus, p, x) for x, p in enumerate(powers[-1])])
        powers = [np.array(p, dtype=np.int64) for p in powers]
        for e in exps:
            assert np.array_equal(f.power_sum([e]), kernel_order(f, powers[e])), (modulus, e)
            for e2 in exps[e:]:   # e2 = 0 pairs are a constant term
                assert np.array_equal(f.power_sum([e, e2]),
                                      kernel_order(f, powers[e] ^ powers[e2]))
        for e in exps:
            assert np.array_equal(f.pow_all(e), powers[e]), (modulus, e)


@pytest.mark.parametrize("m", range(17, 21))
def test_power_sum_callers_exponents_match_pow_all(m):
    # the maps that fiber and quartic build, at the degrees no sweep reaches,
    # against scalar square-and-multiply at sampled points: entry 1 + k of
    # power_sum is the value at g^k, pow_all's entry x the value at x
    f = Field(m)
    q = f.q
    g = f._find_generator()
    rng = np.random.default_rng(m)
    ks = rng.integers(0, q - 1, size=24).tolist()
    xs = [f.pow(g, k) for k in ks]
    t = int(rng.integers(1, q))
    for e in [3, 4, q // 2 - 1, q - 1, 2 * q + 5] + [(1 << i) + 1 for i in range(m)]:
        p, enc = f.power_sum([e]), f.pow_all(e)
        assert p[0] == enc[0] == 0, e
        for k, x in zip(ks, xs):
            assert p[1 + k] == enc[x] == f.pow(x, e), (e, k)
    p = f.power_sum([4, 3], slope=t)   # a quartic query's map
    for k, x in zip(ks, xs):
        assert p[1 + k] == f.pow(x, 4) ^ f.pow(x, 3) ^ f.mul(t, x), k
    p = f.power_sum([q // 2 - 1, 0], slope=t)   # a curve count's map
    assert p[0] == 1
    for k, x in zip(ks, xs):
        assert p[1 + k] == f.pow(x, q // 2 - 1) ^ 1 ^ f.mul(t, x), k


@pytest.mark.parametrize("m", range(1, 9))
def test_power_sum_slope_matches_sweep(m):
    # the one-buffer map of a single-slope query is the row the kernel gives
    # that slope, for every t, the callers' maps and both moduli
    for modulus in naive_irreducibles(m, limit=2):
        f = Field(m, modulus)
        maps = [(4, 3), (f.q // 2 - 1, 0)] + [((1 << i) + 1,) for i in range(m)]
        for exps in maps:
            p = f.power_sum(exps)
            for t, row in f.slope_sweep(p, elements(f)):
                assert np.array_equal(f.power_sum(exps, slope=t), row), (modulus, exps, t)


@pytest.mark.parametrize("m", range(0, 7))
def test_xor_span_matches_bitwise_sum(m):
    rng = np.random.default_rng(m)
    basis = rng.integers(0, 1 << 20, size=m).tolist()
    out = xor_span(basis, np.full(1 << m, -1, dtype=np.int64))
    for x in range(1 << m):
        want = 0
        for k in range(m):
            if x >> k & 1:
                want ^= basis[k]
        assert out[x] == want, x
    bits = xor_span([bool(b & 1) for b in basis], np.ones(1 << m, dtype=bool))
    assert bits.dtype == bool and np.array_equal(bits, out & 1)


@pytest.mark.parametrize("m", range(1, 13))
def test_stride_pair(m):
    units = (1 << m) - 1
    bound = 2 * math.isqrt(units - 1) + 3   # 2 * ceil(sqrt(units)) + 1
    for e in range(units):
        a, b = stride_pair(e, units)
        assert b >= 1 and -units < 2 * a <= units and (a - e * b) % units == 0, (e, a, b)
        assert abs(a) + b <= bound, (e, a, b)
        if m <= 6:   # least over every b, against a literal scan
            costs = [abs((e * c + units // 2) % units - units // 2) + c for c in range(1, units + 1)]
            assert abs(a) + b == min(costs), (e, a, b)


def test_power_sum_edge_cases():
    f2, f4 = make_field(1), make_field(2)
    assert f2.power_sum([0]).tolist() == [1, 1]          # q = 2: 0^0 = 1
    assert f2.power_sum([5, 0]).tolist() == [1, 0]
    assert f4.power_sum([3]).tolist() == [0, 1, 1, 1]    # Gold(1) at m = 2: x^3 = 1 on the units
    assert f4.power_sum([3, 0]).tolist() == [1, 0, 0, 0]    # x^3 + x^0, 0^0 = 1
    g = f4._find_generator()
    assert f4.power_sum([1]).tolist() == [0, 1, g, f4.mul(g, g)]   # entry 1 + k is g^k
    with pytest.raises(ValueError):
        f4.power_sum([-1])
    with pytest.raises(ValueError):
        f4.pow_all(-1)


@pytest.mark.parametrize("m", range(1, 15))
def test_tables_match_scalar_walk(m):
    # the walk exp[k] = exp[k-1]*g on scalar mul is the oracle for the doubling
    for modulus in naive_irreducibles(m, limit=2):
        f = Field(m, modulus)
        exp, exp2, log = f._tables()
        g = f._find_generator() if f.q > 2 else 1
        walk = [1]
        for _ in range(f.q - 2):
            walk.append(f.mul(walk[-1], g))
        assert exp.tolist() == walk
        assert np.array_equal(exp2, np.concatenate([exp, exp]))
        assert np.array_equal(log[exp], np.arange(f.q - 1))


def test_tables_large_field_spot():
    # every degree above the exhaustive walk, so both the odd-m and the
    # even-m split of the doubling's half tables are checked at sampled points
    for m in range(15, 21):
        f = make_field(m)
        exp, exp2, log = f._tables()
        g = f._find_generator()
        assert np.array_equal(exp2[f.q - 1:], exp)
        for k in np.random.default_rng(m).integers(0, f.q - 1, size=256).tolist():
            assert exp[k] == f.pow(g, k)
            assert log[exp[k]] == k


@pytest.mark.parametrize("m", [3, 4, 8])
def test_tables_reject_short_generator_walk(m, monkeypatch):
    f = Field(m)
    fakes = [1]
    if m % 2 == 0:  # 3 divides q - 1: add a cube root of unity
        fakes.append(f.pow(f._find_generator(), (f.q - 1) // 3))
    for fake in fakes:
        monkeypatch.setattr(Field, "_find_generator", lambda self, g=fake: g)
        with pytest.raises(ArithmeticError, match="did not cover the unit group"):
            f._tables()


def _necklaces(m):
    """(1/m) * sum over d | m of phi(d) * 2^(m/d), phi counted by gcd."""
    phi = [sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) for d in range(m + 1)]
    return sum(phi[d] << (m // d) for d in range(1, m + 1) if m % d == 0) // m


@pytest.mark.parametrize("m", range(1, 11))
def test_frobenius_classes(m):
    for modulus in naive_irreducibles(m, limit=2):
        f = make_field(m, modulus)
        rep = f.frobenius_classes()
        assert rep is f.frobenius_classes()   # cached
        t = np.arange(f.q)
        squares = [naive_mul(modulus, a, a) for a in elements(f)]
        assert np.array_equal(rep[rep], rep)
        assert np.array_equal(rep[squares], rep)
        assert np.all(rep <= t)
        sizes = np.bincount(rep)[np.flatnonzero(rep == t)]
        assert all(m % int(s) == 0 for s in sizes)
        assert sizes.size == _necklaces(m)


def test_frobenius_class_count():
    assert [frobenius_class_count(m) for m in (12, 13)] == [352, 632]
    assert all(frobenius_class_count(m) == _necklaces(m) for m in range(1, 21))


@pytest.mark.parametrize("m", [4, 5, 8])
def test_frobenius_classes_reject_swapped_exp_entries(m):
    f = Field(m)
    exp, exp2, log = f._tables()
    units = f.q - 1
    exp[[1, 2]] = exp[[2, 1]]   # still covers the units once, so only additivity can see it
    exp2[units:] = exp
    log[exp] = np.arange(units)
    with pytest.raises(ArithmeticError, match="not GF\\(2\\)-additive"):
        f.frobenius_classes()


def test_trace_abs_frozen():
    f4 = make_field(2)
    assert [f4.trace_abs(a) for a in elements(f4)] == [0, 0, 1, 1]
    assert make_field(3).trace_abs(1) == 1
    assert make_field(5).trace_abs(0) == 0


@pytest.mark.parametrize("m", [3, 4, 7])
def test_trace_table_matches_scalar(m):
    for modulus in naive_irreducibles(m)[:2]:
        f = make_field(m, modulus)
        tr = f.trace_table()
        assert tr.dtype == bool
        assert tr.tolist() == [bool(f.trace_abs(a)) for a in elements(f)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_slope_sweep_matches_scalar(m):
    # every row is the multiset {p(x) + t*x}, p(x) = x^3, on schoolbook products
    for modulus in naive_irreducibles(m)[:2]:
        f = make_field(m, modulus)
        p = [naive_mul(f.modulus, x, naive_mul(f.modulus, x, x)) for x in elements(f)]
        sweep = f.slope_sweep(kernel_order(f, p), elements(f))
        rows = {t: Counter(vals.tolist()) for t, vals in sweep}
        assert sorted(rows) == list(elements(f))
        for t, got in rows.items():
            assert got == Counter(p[x] ^ naive_mul(f.modulus, t, x) for x in elements(f))


@pytest.mark.parametrize("m", range(1, 14))
def test_trace_zero_count(m):
    f = make_field(m)
    tr = f.trace_table()
    assert int(np.count_nonzero(tr == 0)) == 1 << (m - 1)


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
def test_trace_rel_image_is_subfield(m):
    # the relative trace a^s + a, s = sqrt(q), as the half-gold check reads it
    # off pow_all: onto the fixed points of u -> u^s, and linear over them
    f = make_field(m)
    s = 1 << (m // 2)
    x = np.arange(f.q, dtype=np.int64)
    rel = f.pow_all(s) ^ x
    subfield = {u for u in elements(f) if f.pow(u, s) == u}
    assert set(rel.tolist()) == subfield
    for u in sorted(subfield)[:4]:
        assert np.array_equal(rel[f.mul_arrays(u, x)], f.mul_arrays(u, rel))


@given(st.integers(1, 10), st.data())
def test_field_axioms_property(m, data):
    f = make_field(m)
    elt = st.integers(0, f.q - 1)
    a, b, c = data.draw(elt), data.draw(elt), data.draw(elt)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    if a:
        assert f.mul(a, f.pow(a, f.q - 2)) == 1
    assert f.trace_abs(a ^ b) == f.trace_abs(a) ^ f.trace_abs(b)
