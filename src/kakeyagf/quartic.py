"""Fiber counts and exact image sizes for x -> x^4 + x^3 + t*x.

The preimage histogram of this degree-4 map is rigid: for t != 0 the
number of single-preimage values depends only on m's parity and Tr(t),
only t^2 can have three preimages (iff Tr(t) = 0), nothing has five or
more, and the t = 0 histogram is fully determined by m's parity.

For odd m and t != 0, those facts turn the image size into
|I(t)| = (6q + 1 - v + 4*Tr(t)) / 8, where v counts the pairs (x, z) with
x^2 + z*x = z^3 + z^2 + t. The z = 0 column always contributes one pair,
and each z != 0 contributes 2 or 0 by the trace criterion for the
quadratic in x, Tr((z^3 + z^2 + t)/z^2) = 0. With w = z^-2, a bijection of
the units, that argument is p(w) + t*w with p(w) = w^(q/2-1) + 1, so v(t)
counts the w with Tr(p(w) + t*w) = 0. There are two routes to it:

- one slope at a time, the map p(w) + t*w from `Field.power_sum` plus a
  trace lookup, O(q) per slope (`curve_point_count`);
- every slope at once, one integer Walsh-Hadamard transform of
  (-1)^Tr(p(w)), O(q log q) for the whole field (`sharpness_search` and
  the formula path of `image_exact_case`). Tr(t*w) is the parity of
  w & L(t), where bit k of L(t) is Tr(t*2^k), so the character sum
  sum_w (-1)^Tr(p(w) + t*w) is the transform read at L(t).

|v - q| <= 2*sqrt(q) holds for this cubic curve (checked, not assumed, by
every sweep here), which caps |I(t)| by floor(5q/8 + (2*sqrt(q) + 5)/8);
`sharpness_search` reports the slopes that reach the cap.

The brute-force side reads no closed form. `class_histograms` sweeps the
map once per Frobenius class of slopes, t = 0 among them, and returns the
whole preimage histogram of every slope, one row per t; both full-slope
checks read those rows: `fiber_formula_case` the t = 0 row whole and the
omega_1, omega_3 and 5-or-more columns of the others, and
`image_exact_case` the image sizes q - omega_0. The histograms and the
all-slope curve counts are computed once per field and kept in
`Field.derived`, each with the table array it came from; `Field` itself
names no map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, localcontext

import numpy as np

from .field import Field, exact_div, frobenius_class_count, make_field, xor_span
from .fiber import FiberDistribution, Quartic, slope_values


def omega1_formula(m: int, tr_t: int) -> int:
    """#values with exactly one preimage, for any slope t != 0 with Tr(t) = tr_t."""
    if m < 1:
        raise ValueError("need m >= 1")
    if tr_t not in (0, 1):
        raise ValueError("trace bit must be 0 or 1")
    q = 1 << m
    if m % 2:
        num = q + 1 if tr_t == 0 else q + 4
    else:
        num = q - 1 if tr_t == 0 else q + 2
    return exact_div(num, 3)


def omega3_formula(tr_t: int) -> int:
    """#values with exactly three preimages, t != 0: one iff Tr(t) = 0."""
    if tr_t not in (0, 1):
        raise ValueError("trace bit must be 0 or 1")
    return 1 - tr_t


def omega0_distribution(m: int) -> FiberDistribution:
    """Complete preimage histogram of the slope-0 map x -> x^4 + x^3."""
    if m < 1:
        raise ValueError("need m >= 1")
    q = 1 << m
    if m % 2:
        omega = {0: q // 2, 2: q // 2}
    else:
        omega = {0: q // 4, 1: exact_div(2 * (q - 1), 3), 2: 1, 4: exact_div(q - 4, 12)}
    return FiberDistribution(omega)


@dataclass
class CurvePointCount:
    v: int      # pairs (x, z) with x^2 + z*x = z^3 + z^2 + t
    delta: int  # Tr(t)


def _curve_counts_all(field: Field) -> np.ndarray:
    """v(t) for every slope t in encoding order, by one Walsh-Hadamard transform.

    S is the integer transform of (-1)^Tr(p(w)): m in-place butterfly
    passes. The count of w with Tr(p(w) + t*w) = 0 is (q + S[L(t)]) / 2,
    where L(t) has bit k = Tr(t*2^k); L is GF(2)-linear, so `xor_span`
    extends it from the basis values Tr(2^j*2^k), read from the trace
    table. As in `curve_point_count`, w = 0 stands for no z and is taken
    back out.
    """
    m, q = field.m, field.q
    tr = field.trace_table()
    p = field.encoding_order(field.power_sum([q // 2 - 1, 0]))   # w^(q/2-1) + 1
    s = 1 - 2 * tr[p]                   # (-1)^Tr(p(w)); bool promotes to int64
    for k in range(m):
        pairs = s.reshape(-1, 2, 1 << k)  # axis 1 is bit k of the index
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi
        hi *= -2
        hi += lo                          # (lo + hi) - 2*hi = lo - hi
    basis = [sum(int(tr[field.mul(1 << j, 1 << k)]) << k for k in range(m)) for j in range(m)]
    lin = xor_span(basis, np.empty(q, dtype=np.int64))
    zeros = exact_div(q + s[lin], 2)
    return 1 + 2 * (zeros - int(not tr[p[0]]))


def _shared_curve_counts(field: Field) -> np.ndarray:
    """`_curve_counts_all`, once per field for `image_exact_case` and `sharpness_search`.

    Kept with the log table: the transform reads no Frobenius class, so it
    does not pay for the squaring check, which at m = 19 takes about twice
    as long as the transform itself.
    """
    return field.derived(_curve_counts_all, field.log_table())


def _size_from_count(q: int, v, delta):
    """(6q + 1 - v + 4*Tr(t)) / 8 for ints or arrays; the division must be exact."""
    return exact_div(6 * q + 1 - v + 4 * delta, 8)


def curve_point_count(field: Field, t: int) -> CurvePointCount:
    """O(q) pair count; identical to enumerating all q^2 pairs directly.

    t = 0 is allowed for diagnostics, but the curve may degenerate there,
    so no near-q guarantee on v is implied for it.
    """
    tr = field.trace_table()
    p = field.power_sum([field.q // 2 - 1, 0], slope=t)   # w^(q/2-1) + 1 + t*w
    # w = 0 stands for no z: its entry is taken back out of the zero-trace count
    zeros = field.q - int(np.count_nonzero(tr[p])) - int(not tr[p[0]])
    return CurvePointCount(v=1 + 2 * zeros, delta=field.trace_abs(t))


def quartic_floor_bound(m: int) -> int:
    """floor(5q/8 + (2*sqrt(q) + 5)/8) in pure integers, odd m.

    With s = isqrt(4q) = floor(2*sqrt(q)) this equals
    floor((5q + 5 + s) / 8): 2*sqrt(q) is irrational for odd m, so
    dropping its fractional part can never carry the numerator across a
    multiple of 8.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("the floor bound applies to odd m")
    q = 1 << m
    return (5 * q + 5 + math.isqrt(4 * q)) // 8


def sharpness_search(field: Field) -> dict:
    """Exact size of every t != 0 from the all-slope counts, held to the cap.

    The row lists every slope of the largest size as `witnesses`, and
    `ok` says that size is `quartic_floor_bound`.
    """
    if field.m % 2 == 0:
        raise ValueError("the sharpness sweep applies to odd m")
    q = field.q
    bound = quartic_floor_bound(field.m)
    sizes = _size_from_count(q, _shared_curve_counts(field)[1:], field.trace_table()[1:])
    best = int(sizes.max())
    return {"m": field.m, "bound": bound, "max_size": best,
            "witnesses": (np.flatnonzero(sizes == best) + 1).tolist(), "ok": best == bound}


# ----------------------------------------------------------------------
# sweeps used by the verification suite

def _class_histograms(field: Field) -> np.ndarray:
    q = field.q
    classes = field.frobenius_classes()
    omega = np.empty((q, 6), dtype=np.int64)
    for t, vals in slope_values(field, Quartic(), np.flatnonzero(classes == np.arange(q))):
        hist = np.bincount(np.bincount(vals, minlength=q), minlength=6)
        omega[t] = hist[:6]
        if hist.size > 6:   # column 5 counts every value with 5 or more preimages
            omega[t, 5] += hist[6:].sum()
    return omega[classes]


def class_histograms(field: Field) -> np.ndarray:
    """Brute-force preimage histogram of every slope t, row t in encoding order.

    Row t holds the numbers of values with exactly 0, 1, 2, 3 and 4
    preimages under x^4 + x^3 + t*x and with 5 or more. The map is swept
    once per Frobenius class of slopes, t = 0 among them, at the class's
    least slope, and that row is read at every slope of the class: one
    sweep and two `bincount`s per class. Kept by `Field.derived` with the
    `frobenius_classes()` array it came from; that array is fetched on
    every call, so a rebuilt table sweeps again and a corrupted one raises.
    """
    return field.derived(_class_histograms, field.frobenius_classes())


def fiber_formula_case(field: Field) -> dict:
    """All fiber histograms of one field against the closed forms.

    Row 0 of `class_histograms`, t = 0, is held whole to
    `omega0_distribution`, and every other row's omega_1, omega_3 and
    5-or-more columns to the closed forms at its Tr(t); `bad_t` lists the
    first eight failing t in encoding order. The closed forms depend on
    t != 0 only through Tr(t), so they are evaluated once for each trace
    value.
    """
    m = field.m
    omega = class_histograms(field)
    expected = np.array([(omega1_formula(m, d), omega3_formula(d), 0) for d in (0, 1)])
    wrong = np.any(omega[:, [1, 3, 5]] != expected[field.trace_table().astype(np.intp)], axis=1)
    at_zero = {k: int(c) for k, c in enumerate(omega[0]) if c}
    wrong[0] = at_zero != omega0_distribution(m).nonzero()
    return {"m": m, "ok": not wrong.any(), "bad_t": np.flatnonzero(wrong)[:8].tolist()}


def fiber_formula_cases(m_max: int) -> list[tuple]:
    """One brute-force case for every m <= min(13, m_max), costed q per Frobenius class."""
    return [(frobenius_class_count(m) << m, fiber_formula_case, (make_field(m),))
            for m in range(1, min(13, m_max) + 1)]


def fiber_formula_sweep(m_max: int) -> list[dict]:
    return [fn(*args) for _, fn, args in fiber_formula_cases(m_max)]


def image_exact_case(field: Field) -> dict:
    """Formula-path image sizes vs brute force at every t != 0, and the Hasse gate.

    The brute-force size at t is q - omega_0 of row t of `class_histograms`;
    the gate is |v - q| <= 2*sqrt(q) at every t != 0.
    """
    q = field.q
    omega = class_histograms(field)
    v = _shared_curve_counts(field)[1:]
    hasse_ok = bool(np.all((v - q) ** 2 <= 4 * q))
    sizes = _size_from_count(q, v, field.trace_table()[1:])   # slopes 1..q-1
    match_ok = bool(np.array_equal(sizes, q - omega[1:, 0]))
    return {"m": field.m, "hasse_ok": hasse_ok, "match_ok": match_ok,
            "brute_checked": q - 1, "ok": hasse_ok and match_ok}


def image_exact_cases(m_max: int) -> list[tuple]:
    """Every slope by brute force at odd m <= min(13, m_max), costed q per Frobenius class."""
    return [(frobenius_class_count(m) << m, image_exact_case, (make_field(m),))
            for m in range(3, min(13, m_max) + 1, 2)]


def image_exact_sweep(m_max: int) -> list[dict]:
    return [fn(*args) for _, fn, args in image_exact_cases(m_max)]


def sharpness_cases(m_max: int) -> list[tuple]:
    """One O(q*m) transform for every odd m <= min(13, m_max)."""
    return [((1 << m) * m, sharpness_search, (make_field(m),))
            for m in range(1, min(13, m_max) + 1, 2)]


def sharpness_sweep(m_max: int) -> list[dict]:
    return [fn(*args) for _, fn, args in sharpness_cases(m_max)]


def floor_bound_consistency() -> list[dict]:
    """Integer floor bound vs a 60-digit decimal evaluation, odd m <= 31."""
    rows = []
    with localcontext() as ctx:
        ctx.prec = 60
        for m in range(1, 32, 2):
            q = 1 << m
            val = (Decimal(5 * q) + Decimal(4 * q).sqrt() + 5) / 8
            ref = int(val.to_integral_value(rounding=ROUND_FLOOR))
            bound = quartic_floor_bound(m)
            rows.append({"m": m, "bound": bound, "ok": bound == ref})
    return rows
