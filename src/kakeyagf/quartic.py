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

- one slope at a time, a sweep of the field's slope kernel plus a trace
  lookup, O(q) per slope (`curve_point_count`);
- every slope at once, one integer Walsh-Hadamard transform of
  (-1)^Tr(p(w)), O(q log q) for the whole field (`sharpness_search` and
  the formula path of `image_exact_case`). Tr(t*w) is the parity of
  w & L(t), where bit k of L(t) is Tr(t*2^k), so the character sum
  sum_w (-1)^Tr(p(w) + t*w) is the transform read at L(t).

|v - q| <= 2*sqrt(q) holds for this cubic curve (checked, not assumed, by
every sweep here), which caps |I(t)| by floor(5q/8 + (2*sqrt(q) + 5)/8);
`sharpness_search` reports the slopes that reach the cap.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, localcontext

import numpy as np

from .field import Field, exact_div, frobenius_class_count, make_field
from .fiber import (FiberDistribution, Quartic, fiber_distribution, image_sizes_all,
                    image_values, slope_values)
from .parallel import run_cases


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
    return FiberDistribution(t=0, omega=omega)


@dataclass
class CurvePointCount:
    t: int
    v: int      # pairs (x, z) with x^2 + z*x = z^3 + z^2 + t
    delta: int  # Tr(t)


@dataclass
class QuarticImageRecord:
    count: CurvePointCount  # the slope's curve count the size comes from
    exact_size: int
    floor_bound: int
    sharp: bool


@dataclass
class SharpnessResult:
    max_size: int
    witnesses: list[int]
    bound: int
    sharp: bool


def _curve_counts(field: Field, ts) -> np.ndarray:
    """v(t) for each slope in ts: one kernel sweep, then a trace count.

    The sweep runs over w = z^-2, whose w = 0 entry stands for no z and is
    taken back out of each count.
    """
    zero_trace = field.trace_table() == 0
    p = field.power_sum([field.q // 2 - 1], const=1)   # w^(q/2-1) + 1
    skip = int(zero_trace[p[0]])
    return np.array([1 + 2 * (int(np.count_nonzero(zero_trace[vals])) - skip)
                     for _, vals in field.slope_sweep(p, ts)], dtype=np.int64)


def _curve_counts_all(field: Field) -> np.ndarray:
    """v(t) for every slope t in encoding order, by one Walsh-Hadamard transform.

    S is the integer transform of (-1)^Tr(p(w)): m in-place butterfly
    passes. The count of w with Tr(p(w) + t*w) = 0 is (q + S[L(t)]) / 2,
    where L(t) has bit k = Tr(t*2^k); L is GF(2)-linear, so it is extended
    by doubling from the basis values Tr(2^j*2^k), read from the trace
    table. As in `_curve_counts`, w = 0 stands for no z and is taken back
    out.
    """
    m, q = field.m, field.q
    tr = field.trace_table()
    p = field.pow_all(q // 2 - 1) ^ 1   # w^(q/2-1) + 1
    s = 1 - 2 * tr[p]                   # (-1)^Tr(p(w))
    for k in range(m):
        pairs = s.reshape(-1, 2, 1 << k)  # axis 1 is bit k of the index
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi
        hi *= -2
        hi += lo                          # (lo + hi) - 2*hi = lo - hi
    lin = np.zeros(q, dtype=np.int64)
    for j in range(m):
        basis = sum(int(tr[field.mul(1 << j, 1 << k)]) << k for k in range(m))
        lin[1 << j:2 << j] = lin[:1 << j] ^ basis
    zeros = exact_div(q + s[lin], 2)
    return 1 + 2 * (zeros - int(tr[p[0]] == 0))


def _size_from_count(q: int, v, delta):
    """(6q + 1 - v + 4*Tr(t)) / 8 for ints or arrays; the division must be exact."""
    return exact_div(6 * q + 1 - v + 4 * delta, 8)


def curve_point_count(field: Field, t: int) -> CurvePointCount:
    """O(q) pair count; identical to enumerating all q^2 pairs directly.

    t = 0 is allowed for diagnostics, but the curve may degenerate there,
    so no near-q guarantee on v is implied for it.
    """
    v = int(_curve_counts(field, [t])[0])
    return CurvePointCount(t=t, v=v, delta=field.trace_abs(t))


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


def image_record(field: Field, t: int) -> QuarticImageRecord:
    """|{x^4 + x^3 + t*x}| from one curve pair count, against the floor bound.

    Odd m and t != 0 only.
    """
    if field.m % 2 == 0:
        raise ValueError("the exact image-size formula needs odd m")
    if t == 0:
        raise ValueError("the exact image-size formula needs t != 0")
    c = curve_point_count(field, t)
    size = _size_from_count(field.q, c.v, c.delta)
    bound = quartic_floor_bound(field.m)
    return QuarticImageRecord(count=c, exact_size=size, floor_bound=bound, sharp=size == bound)


def sharpness_search(field: Field) -> SharpnessResult:
    """Exact size of every t != 0 from the all-slope counts; collect the argmax ts."""
    if field.m % 2 == 0:
        raise ValueError("the sharpness sweep applies to odd m")
    q = field.q
    bound = quartic_floor_bound(field.m)
    sizes = _size_from_count(q, _curve_counts_all(field)[1:], field.trace_table()[1:])
    best = int(sizes.max())
    witnesses = [int(t) for t in np.flatnonzero(sizes == best) + 1]
    return SharpnessResult(max_size=best, witnesses=witnesses, bound=bound,
                           sharp=best == bound)


# ----------------------------------------------------------------------
# sweeps used by the verification suite

def fiber_formula_case(field: Field) -> dict:
    """All fiber histograms of one field against the closed forms.

    Every slope is covered by one brute-force sweep per Frobenius class:
    the histogram and Tr(t) are the same at every slope of a class, so a
    failing class fails at each of its slopes, and `bad_t` lists the
    first eight failing t in encoding order.
    """
    m, q = field.m, field.q
    tr = field.trace_table()
    rep = field.frobenius_classes()
    bad: list[int] = []
    measured = fiber_distribution(field, Quartic(), 0)
    if measured.nonzero() != omega0_distribution(m).nonzero():
        bad.append(0)
    bad_reps = []
    for t, vals in slope_values(field, Quartic(), np.flatnonzero(rep == np.arange(q))[1:]):
        counts = np.bincount(vals, minlength=q)
        trt = int(tr[t])
        if (int(np.count_nonzero(counts == 1)) != omega1_formula(m, trt)
                or int(np.count_nonzero(counts == 3)) != omega3_formula(trt)
                or int(np.count_nonzero(counts >= 5)) != 0):
            bad_reps.append(t)
    bad += np.flatnonzero(np.isin(rep, bad_reps)).tolist()
    return {"m": m, "ok": not bad, "bad_t": bad[:8]}


def fiber_formula_cases(m_max: int) -> list[tuple]:
    """One brute-force case for every m <= min(13, m_max), costed q per Frobenius class."""
    return [(frobenius_class_count(m) << m, fiber_formula_case, (make_field(m),))
            for m in range(1, min(13, m_max) + 1)]


def fiber_formula_sweep(m_max: int) -> list[dict]:
    return run_cases(fiber_formula_cases(m_max))


def image_exact_case(field: Field, spot: int | None = None, seed: int = 0) -> dict:
    """Formula-path image sizes vs brute force, plus the |v - q| <= 2*sqrt(q) gate.

    spot = None checks every t != 0 against brute force, one sweep per
    Frobenius class (`image_sizes_all`); otherwise brute force runs on
    `spot` slopes sampled with the given seed while the formula path still
    covers every t.
    """
    q = field.q
    v = _curve_counts_all(field)[1:]
    hasse_ok = bool(np.all((v - q) ** 2 <= 4 * q))
    sizes = _size_from_count(q, v, field.trace_table()[1:])   # slopes 1..q-1
    if spot is None:
        brute = image_sizes_all(field, Quartic())
        match_ok = bool(np.array_equal(sizes, brute[1:]))
        checked = q - 1
    else:
        ts = sorted(random.Random(seed).sample(range(1, q), spot))
        match_ok = all([len(image_values(field, Quartic(), t)) == sizes[t - 1] for t in ts])
        checked = len(ts)
    return {"m": field.m, "hasse_ok": hasse_ok, "match_ok": match_ok,
            "brute_checked": checked, "ok": hasse_ok and match_ok}


def image_exact_cases(m_max: int, seed: int) -> list[tuple]:
    """Every slope by brute force at odd m <= min(11, m_max), costed q per Frobenius
    class; 100 slopes at m = 13."""
    cases = [(frobenius_class_count(m) << m, image_exact_case, (make_field(m), None, seed))
             for m in range(3, min(11, m_max) + 1, 2)]
    if m_max >= 13:
        cases.append((100 << 13, image_exact_case, (make_field(13), 100, seed)))
    return cases


def image_exact_sweep(m_max: int, seed: int) -> list[dict]:
    return run_cases(image_exact_cases(m_max, seed))


def sharpness_case(m: int) -> dict:
    r = sharpness_search(make_field(m))
    return {"m": m, "bound": r.bound, "max_size": r.max_size,
            "witnesses": r.witnesses[:4], "ok": r.sharp}


def sharpness_cases(m_max: int) -> list[tuple]:
    """One O(q*m) transform for every odd m <= min(13, m_max)."""
    return [((1 << m) * m, sharpness_case, (m,)) for m in range(1, min(13, m_max) + 1, 2)]


def sharpness_sweep(m_max: int) -> list[dict]:
    return run_cases(sharpness_cases(m_max))


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
