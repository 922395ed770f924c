"""Definitional reference implementations the library is checked against.

Everything here is deliberately slow and simple: schoolbook polynomial
arithmetic on ints, per-element dict/set scans, literal double loops,
a Kakeya verifier that sorts the whole set once per direction, and the
tests' own views of library objects (the elements of a field, one
representative per direction, an array in the slope kernel's order,
packed points, fiber sums).
Nothing imports the library's vectorized paths, except a few helpers for
sizes the scalar loops cannot reach: `sparse_values`, which feeds a
sparse sum of monomials to the library's affinity gate; `kernel_bluher`,
the O(q^2) scan of every (b, x) on the field's slope kernel, kept as the
cross-check of the library's O(q) count; `kernel_curve_counts`, the
curve counts of many slopes from one kernel sweep, which the library's
Walsh-Hadamard counts are held to; and `full_sweep_image_sizes` and
`full_sweep_fiber_bad`, the O(q^2) sweeps of every slope that the
library's one-slope-per-Frobenius-class checks are held to.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import islice, product

import numpy as np

from kakeyagf import quartic
from kakeyagf.fiber import Gold, Quartic, exponents


def pmul(a: int, b: int) -> int:
    """Carry-less polynomial product over GF(2)."""
    r = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            r ^= a << i
        i += 1
    return r


def pmod(a: int, mod: int) -> int:
    dm = mod.bit_length()
    while a.bit_length() >= dm:
        a ^= mod << (a.bit_length() - dm)
    return a


def naive_mul(modulus: int, a: int, b: int) -> int:
    return pmod(pmul(a, b), modulus)


def naive_is_irreducible(p: int) -> bool:
    """p splits iff it is a product of two lower-degree polynomials."""
    deg = p.bit_length() - 1
    for da in range(1, deg):
        db = deg - da
        for a in range(1 << da, 1 << (da + 1)):
            for b in range(1 << db, 1 << (db + 1)):
                if pmul(a, b) == p:
                    return False
    return True


def naive_irreducibles(m: int, limit: int | None = None) -> list[int]:
    """The irreducible polynomials of degree m in encoding order, the first
    `limit` of them if it is given (the scan stops there).

    The first is the library's default modulus; the second, where there is
    one, serves as a non-default modulus.
    """
    found = (p for p in range((1 << m) | 1, 1 << (m + 1), 2) if naive_is_irreducible(p))
    return list(islice(found, limit))


def naive_smallest_irreducible(m: int) -> int:
    return naive_irreducibles(m)[0]


def naive_largest_irreducible(m: int) -> int:
    """The irreducible polynomial of degree m with the largest encoding."""
    return next(p for p in range((2 << m) - 1, 1 << m, -2) if naive_is_irreducible(p))


def elements(field) -> range:
    """Every element of the field, in encoding order."""
    return range(field.q)


def kernel_order(field, values) -> np.ndarray:
    """An array p(x) in encoding order, rearranged into the slope kernel's order.

    That order is x = 0, then g^0, g^1, ..., g^(q-2) for the table
    generator g, so the unit x goes to position 1 + log x.
    """
    values = np.asarray(values, dtype=np.int64)
    out = np.empty_like(values)
    out[0] = values[0]
    out[1 + field.log_table()[1:]] = values[1:]
    return out


@dataclass(frozen=True)
class SparseExponentSum:
    """x -> sum of c * x^e over (exponent, coefficient) terms."""

    terms: tuple[tuple[int, int], ...]


def evaluate(field, fn, x: int) -> int:
    """f(x) by scalar field arithmetic, for Gold, Quartic or SparseExponentSum."""
    if isinstance(fn, Gold):
        return field.pow(x, (1 << fn.i) + 1)
    if isinstance(fn, Quartic):
        x2 = field.mul(x, x)
        return field.mul(x2, x2) ^ field.mul(x2, x)
    acc = 0
    for e, c in fn.terms:
        acc ^= field.mul(c, field.pow(x, e))
    return acc


def sparse_values(field, fn: SparseExponentSum) -> np.ndarray:
    """f(x) for every x in encoding order, from the field's bulk power and product."""
    acc = np.zeros(field.q, dtype=np.int64)
    for e, c in fn.terms:
        acc ^= field.mul_arrays(c, field.pow_all(e))
    return acc


def naive_image(field, fn, t) -> set[int]:
    return {evaluate(field, fn, x) ^ field.mul(t, x) for x in elements(field)}


def naive_fiber(field, fn, t) -> dict[int, int]:
    pre = Counter(evaluate(field, fn, x) ^ field.mul(t, x) for x in elements(field))
    omega = Counter(pre.values())
    missing = field.q - len(pre)
    if missing:
        omega[0] = missing
    return dict(omega)


def naive_curve_pairs(field, t: int) -> int:
    """#{(x, z) : x^2 + z*x = z^3 + z^2 + t} by literal double loop."""
    count = 0
    for z in elements(field):
        z2 = field.mul(z, z)
        rhs = field.mul(z2, z) ^ z2 ^ t
        for x in elements(field):
            if field.mul(x, x) ^ field.mul(z, x) == rhs:
                count += 1
    return count


def naive_bluher(field, i: int) -> int:
    e = (1 << i) + 1
    count = 0
    for b in range(1, field.q):
        if not any(field.pow(x, e) ^ field.mul(b, x) ^ b == 0 for x in elements(field)):
            count += 1
    return count


def kernel_bluher(field, i: int) -> int:
    """Bluher's N0 by scanning every (b, x) with the field's slope kernel.

    b*x + b = b*y with y = x + 1, so each slope b is swept over
    p(y) = (y + 1)^(2^i+1), and a row with no zero is a b without a root.
    The point y = 0 gives p(0) = 1, never a root.
    """
    p = kernel_order(field, field.pow_all((1 << i) + 1)[np.arange(field.q) ^ 1])
    return sum(1 for _, vals in field.slope_sweep(p, range(1, field.q)) if vals.all())


def kernel_curve_counts(field, ts) -> np.ndarray:
    """v(t) for each slope in ts: one sweep of the field's slope kernel, then a
    count of zero traces among w^(q/2-1) + 1 + t*w.

    The sweep runs over w = z^-2, whose w = 0 entry stands for no z and is
    taken back out of each count.
    """
    zero_trace = field.trace_table() == 0
    p = field.power_sum([field.q // 2 - 1, 0])   # w^(q/2-1) + 1
    skip = int(zero_trace[p[0]])
    return np.array([1 + 2 * (int(np.count_nonzero(zero_trace[vals])) - skip)
                     for _, vals in field.slope_sweep(p, ts)], dtype=np.int64)


def full_sweep_image_sizes(field, fn) -> np.ndarray:
    """|I_f(t)| for every t, one sweep of the field's slope kernel per slope."""
    sweep = field.slope_sweep(field.power_sum(exponents(field, fn)), elements(field))
    return np.array([np.unique(vals).size for _, vals in sweep], dtype=np.int64)


def full_sweep_fiber_bad(field) -> list[int]:
    """Every t, in encoding order, whose quartic fiber histogram misses the closed forms.

    One sweep per slope, with Tr(t) from the scalar trace. The formulas are
    looked up in `kakeyagf.quartic` at call time, so a patched formula
    reaches this sweep too.
    """
    m, q = field.m, field.q
    bad = []
    for t, vals in field.slope_sweep(field.power_sum((4, 3)), elements(field)):
        hist = Counter(Counter(vals.tolist()).values())
        if t == 0:
            hist[0] = q - sum(hist.values())
            expected = quartic.omega0_distribution(m).nonzero()
            if {k: c for k, c in hist.items() if c} != expected:
                bad.append(t)
            continue
        tr = field.trace_abs(t)
        if (hist[1] != quartic.omega1_formula(m, tr) or hist[3] != quartic.omega3_formula(tr)
                or any(k >= 5 for k in hist)):
            bad.append(t)
    return bad


def pack_point(coords, m: int) -> int:
    """A point as the library stores it: coordinate k in bits k*m..k*m+m-1."""
    p = 0
    for k, c in enumerate(coords):
        p |= c << (k * m)
    return p


def unpack_point(p: int, m: int, n: int) -> tuple[int, ...]:
    mask = (1 << m) - 1
    return tuple((p >> (k * m)) & mask for k in range(n))


def canonical_directions(q: int, n: int) -> list[tuple[int, ...]]:
    """One representative per direction, first nonzero coordinate scaled to 1."""
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    return [(0,) * lead + (1,) + rest
            for lead in range(n) for rest in product(range(q), repeat=n - 1 - lead)]


def total_values(dist) -> int:
    """A fiber histogram accounts for every y once, so this must equal q."""
    return sum(dist.omega.values())


def total_preimages(dist) -> int:
    """A fiber histogram accounts for every x once, so this must equal q."""
    return sum(k * c for k, c in dist.omega.items())


def naive_kakeya_points(field, n: int, image_values_by_t: dict[int, list[int]]) -> set[tuple[int, ...]]:
    pts = set()
    for t, vals in image_values_by_t.items():
        for j in range(n):
            for combo in product(vals, repeat=j):
                pts.add(combo + (t,) + (0,) * (n - 1 - j))
    return pts


def naive_has_line(field, pts: set[tuple[int, ...]], d: tuple[int, ...]) -> bool:
    for y in pts:
        line_in = all(
            tuple(yc ^ field.mul(s, dc) for yc, dc in zip(y, d)) in pts
            for s in elements(field))
        if line_in:
            return True
    return False


def sort_verify_missing(field, n: int, points: np.ndarray) -> list[tuple[int, ...]]:
    """The directions with no full line in the packed points, one sort per direction.

    For a direction d with lead index L (d_L = 1), p -> p + p_L*d sends each
    point to its line's point with coordinate L zero. With duplicates gone,
    the line lies in the set iff that representative occurs q times: q
    equal representatives in a row once sorted.
    """
    q, m = field.q, field.m
    pts = np.array(sorted(set(points.tolist())), dtype=np.int64)
    scalars = np.arange(q, dtype=np.int64)
    missing = []
    for lead in range(n):
        for rest in product(range(q), repeat=n - 1 - lead):
            d = (0,) * lead + (1,) + rest
            step = np.zeros(q, dtype=np.int64)  # packed s*d for every scalar s
            for k, c in enumerate(d):
                step |= np.array([field.mul(s, c) for s in range(q)], dtype=np.int64) << (k * m)
            reps = np.sort(pts ^ step[(pts >> (lead * m)) & (q - 1)])
            if not np.any(reps[q - 1:] == reps[:1 - q]):
                missing.append(d)
    return sorted(missing)
