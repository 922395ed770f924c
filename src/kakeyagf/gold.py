"""Closed-form image-set sizes for the power maps x -> x^(2^i + 1).

The size of I(t) = {x^(2^i+1) + t*x} depends only on whether m/d is even
or odd, d = gcd(i, m). The t = 0 size is 1 + (q-1)/gcd(q-1, 2^i+1), and
gcd(q-1, 2^i+1) is 2^d+1 in the even case and 1 in the odd case; that
dichotomy is asserted numerically on every call rather than taken on
faith. The halfway index i = m/2 (m even) is special: there the map
x -> x^(sqrt(q)+1) lands exactly on the subfield GF(sqrt(q)), and
g(x) = x^(sqrt(q)+1) + x is injective on the relative-trace-1 elements
and 2-to-1 everywhere else, which pins |I(t != 0)| to (q + sqrt(q))/2.
`verify_half_gold_structure` measures each of those facts by exhaustive
enumeration, and `half_gold_case` holds them to the closed forms.

The index i = 0 would give x -> x^2, which is GF(2)-linear and therefore
useless for the line constructions downstream; `gold_profile` rejects it
(the fiber module can still profile it).
"""

from __future__ import annotations

import math

import numpy as np

from .field import Field, exact_div, frobenius_class_count, make_field
from .fiber import Gold, image_sizes_all


def gold_profile(m: int, i: int) -> dict:
    """Exact |I(0)| and |I(t != 0)| for x -> x^(2^i+1) on GF(2^m): the `gold` verb's row.

    `parity_case` is the parity of m/d, "even" or "odd".
    """
    if not 1 <= i < m:
        raise ValueError(f"need 1 <= i < m (i = 0 is the linear map x -> x^2), got i={i}, m={m}")
    d = math.gcd(i, m)
    q = 1 << m
    block = (1 << d) + 1
    if (m // d) % 2 == 0:
        gcd_expected = block
        size_nonzero = exact_div((q + 1) * block + q - 1, 2 * block)
        parity = "even"
    else:
        gcd_expected = 1
        size_nonzero = exact_div((q - 1) * block + q + 1, 2 * block)
        parity = "odd"
    if math.gcd(q - 1, (1 << i) + 1) != gcd_expected:
        raise ArithmeticError(f"gcd(2^{m}-1, 2^{i}+1) dichotomy failed")
    size_zero = 1 + exact_div(q - 1, gcd_expected)
    return {"m": m, "i": i, "d": d, "q": q, "parity_case": parity,
            "size_at_zero": size_zero, "size_at_nonzero": size_nonzero}


def verify_half_gold_structure(field: Field) -> dict:
    """The four facts of g(x) = x^(sqrt(q)+1) + x by enumeration; no closed form is read."""
    if field.m % 2:
        raise ValueError("the halfway index needs an even extension degree")
    q = field.q
    s = 1 << (field.m // 2)
    x = np.arange(q, dtype=np.int64)
    powmap = field.pow_all(s + 1)
    frob = field.pow_all(s)
    subfield_mask = frob == x  # fixed points of u -> u^sqrt(q)
    image_mask = np.zeros(q, dtype=bool)
    image_mask[powmap] = True

    g = powmap ^ x
    trace_one = (frob ^ x) == 1
    g_on = g[trace_one]
    rest_counts = np.bincount(g[~trace_one], minlength=q)
    return {"image_is_subfield": bool(np.array_equal(image_mask, subfield_mask)),
            "injective_on_trace_one": bool(np.bincount(g_on, minlength=q).max() <= 1),
            "two_to_one_elsewhere": bool(np.all(rest_counts[rest_counts > 0] == 2)),
            "image_size_at_one": int(np.count_nonzero(np.bincount(g, minlength=q)))}


def profile_case(field: Field, i: int) -> dict:
    """Brute-force image sizes of one map against its closed-form profile.

    `scale_invariant` says whether |I(t)| is the same for every t != 0,
    read off the same sweep.
    """
    prof = gold_profile(field.m, i)
    sizes = image_sizes_all(field, Gold(i))
    zero, nonzero = prof["size_at_zero"], prof["size_at_nonzero"]
    ok = int(sizes[0]) == zero and bool(np.all(sizes[1:] == nonzero))
    return {"m": field.m, "i": i, "size_at_zero": zero, "size_at_nonzero": nonzero,
            "scale_invariant": bool(np.all(sizes[1:] == sizes[1])), "ok": ok}


def profile_cases(m_max: int) -> list[tuple]:
    """One brute-force case for every 2 <= m <= min(12, m_max) and 1 <= i < m, costed
    q per Frobenius class."""
    return [(frobenius_class_count(m) << m, profile_case, (make_field(m), i))
            for m in range(2, min(12, m_max) + 1) for i in range(1, m)]


def image_profile_sweep(m_max: int) -> list[dict]:
    return [fn(*args) for _, fn, args in profile_cases(m_max)]


def half_gold_case(field: Field) -> dict:
    """The halfway structure by enumeration, judged here with the closed forms.

    `structure_ok` holds the three facts of `verify_half_gold_structure`
    and its |I(1)| = (q + sqrt(q))/2; `sizes_ok` holds `gold_profile` at
    i = m/2. `all` and `gold --verify` both read this row. The sizes'
    brute-force check is the i = m/2 row of `image_profile_sweep`.
    """
    s = 1 << (field.m // 2)
    half = (field.q + s) // 2
    facts = verify_half_gold_structure(field)
    structure_ok = (facts["image_is_subfield"] and facts["injective_on_trace_one"]
                    and facts["two_to_one_elsewhere"] and facts["image_size_at_one"] == half)
    prof = gold_profile(field.m, field.m // 2)
    sizes_ok = prof["size_at_zero"] == s and prof["size_at_nonzero"] == half
    return {"m": field.m, **facts, "structure_ok": structure_ok, "sizes_ok": sizes_ok,
            "ok": structure_ok and sizes_ok}


def half_gold_cases(m_max: int) -> list[tuple]:
    """One O(q) case for every even m <= min(12, m_max)."""
    return [(1 << m, half_gold_case, (make_field(m),)) for m in range(2, min(12, m_max) + 1, 2)]


def half_gold_sweep(m_max: int) -> list[dict]:
    return [fn(*args) for _, fn, args in half_gold_cases(m_max)]
