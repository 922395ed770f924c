"""Construction and exhaustive verification of Kakeya sets in F_q^n.

A map f with small image sets I_f(t) = {f(x) + t*x} yields a set
containing a line in every direction:

    K = {(x_1, ..., x_j, t, 0, ..., 0) : 0 <= j <= n-1, t in F_q,
         x_1, ..., x_j in I_f(t)}.

For a direction whose last nonzero coordinate sits at position j+1 and is
scaled to 1, say (b_1, ..., b_j, 1, 0, ..., 0), the full line through
(f(b_1), ..., f(b_j), 0, ..., 0) lies inside K, because f(b_i) + t*b_i is
in I_f(t) for every t. The verifier enumerates each direction with its
*first* nonzero coordinate 1 instead, so no scaling is needed; it is
exhaustive either way and is the ground truth for the construction.

Size accounting: the per-(j, t) blocks contain exactly |I_f(t)|^j tuples
each, for a block total of sum_t sum_j |I_f(t)|^j, the geometric-series
value `kakeya_size_from_images` computes. Blocks with different j can
repeat tuples (trailing zeros make a j-block tuple parse as a longer
block's tuple when t and the x_i all land in I_f(0)), so the deduplicated
point set can be slightly smaller; both numbers are recorded, and bound
comparisons use the block total, which only overstates the distinct count.

Points are packed into single ints, coordinate k in bits k*m..k*m+m-1, so
translating a point along a direction is one XOR. The verifier takes all
directions of one lead coordinate at once: every line in such a direction
crosses K's smallest slice along that coordinate, so it starts from the
(direction, slice point) pairs and keeps those whose next point along the
direction is in K, one scalar at a time. It never looks at f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import Field, make_field, xor_span
from .fiber import (FunctionSpec, Gold, Quartic, function_label, image_sets, image_sizes_all,
                    values_all)
from .parallel import run_cases

DEFAULT_MATERIALIZE_CAP = 1 << 24
PACKED_BITS = 62  # packed points are int64
PAIR_BLOCK = 1 << 16  # (direction, anchor) pairs the verifier filters at once


def kakeya_size_from_images(image_sizes, n: int) -> int:
    """sum over t of (s^n - 1)/(s - 1) with s = |I_f(t)|; a size-1 term adds n."""
    if not image_sizes:
        raise ValueError("need at least one image size")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    total = 0
    for s in image_sizes.values():
        if s < 1:
            raise ValueError(f"image sizes must be >= 1, got {s}")
        total += n if s == 1 else (s**n - 1) // (s - 1)
    return total


def is_gf2_affine(field: Field, vals: np.ndarray) -> bool:
    """Does f(x+y) = f(x) + f(y) + f(0) hold for all x, y? Exhaustive, O(q).

    vals holds f(x) for every x in encoding order. f - f(0) is GF(2)-linear
    iff it equals the XOR-extension of its values on the basis elements
    2^k, which `xor_span` builds.
    """
    lin = vals ^ vals[0]
    ext = xor_span(lin[1 << np.arange(field.m)], np.empty_like(lin))
    return bool(np.array_equal(ext, lin))


@dataclass
class KakeyaSet:
    field: Field
    n: int
    fn: FunctionSpec
    image_sizes: dict[int, int]
    size: int                   # block total by the closed form, kakeya_size_from_images
    points: np.ndarray | None   # sorted packed tuples, deduplicated; None above the cap
    block_count: int | None = None  # tuples in the enumerated blocks; None above the cap

    @property
    def distinct_point_count(self) -> int | None:
        return None if self.points is None else int(self.points.size)


class AffineMapError(ValueError):
    """`build_kakeya` was given a GF(2)-affine map, which the construction cannot use."""


def build_kakeya(field: Field, n: int, fn: FunctionSpec,
                 materialize_cap: int = DEFAULT_MATERIALIZE_CAP) -> KakeyaSet:
    """Image sizes always; tuples materialized when the block total fits the cap.

    The sizes come from the one-slope-per-class `image_sizes_all`, the image
    sets from one sweep of every slope; the tuple count of the latter's
    blocks is recorded as `block_count`, for the caller to hold against
    `size`, the closed-form total of the former.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if is_gf2_affine(field, values_all(field, fn)):
        raise AffineMapError(
            f"{function_label(fn)} is GF(2)-affine; the construction needs a non-linear map")
    sizes = image_sizes_all(field, fn)
    image_sizes = {t: int(sizes[t]) for t in range(field.q)}
    size = kakeya_size_from_images(image_sizes, n)
    if size > materialize_cap:
        return KakeyaSet(field, n, fn, image_sizes, size, None)
    m = field.m
    if n * m > PACKED_BITS:
        raise ValueError(f"packed points need n*m <= {PACKED_BITS} bits, got {n * m}")
    blocks = []
    for t, vals in image_sets(field, fn, range(field.q)):
        prefix = np.zeros(1, dtype=np.int64)  # packed x_1..x_j over I_f(t)^j
        for j in range(n):
            if j:
                prefix = (prefix[:, None] | vals << ((j - 1) * m)).ravel()
            blocks.append(prefix | t << (j * m))
    return KakeyaSet(field, n, fn, image_sizes, size, _sorted_distinct(np.concatenate(blocks)),
                     block_count=sum(b.size for b in blocks))


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """np.unique for a 1-d array, without the numpy.ma import np.unique makes."""
    s = np.sort(a)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


@dataclass
class VerificationResult:
    ok: bool
    missing: list[tuple[int, ...]]


def _bitmap_fits(universe: int, count: int) -> bool:
    """Is a bool bitmap over `universe` packed points no bigger than `count` int64s?"""
    return universe <= 8 * count


def _membership(pts: np.ndarray, universe: int):
    """A test `member(cand) -> bool array` for the sorted points: a bitmap
    where `_bitmap_fits`, a binary search otherwise."""
    if _bitmap_fits(universe, pts.size):
        bitmap = np.zeros(universe, dtype=bool)
        bitmap[pts] = True
        return lambda cand: bitmap[cand]
    last = max(pts.size - 1, 0)
    return lambda cand: pts[np.minimum(np.searchsorted(pts, cand), last)] == cand


def verify_kakeya(ks: KakeyaSet) -> VerificationResult:
    """Exhaustively decide, for every direction, whether a full line lies in K.

    Take the directions of one lead index L (d_L = 1) together. Each line
    in such a direction meets the slice K_c = {p in K : p_L = c} exactly
    once, for any fixed c, so the full lines in direction d are those
    through an anchor a in K_c with a + u*d in K for every u != 0. The
    anchors come from K's smallest slice along L, and the (direction,
    anchor) pairs are filtered one scalar u at a time, in blocks of at
    most PAIR_BLOCK pairs; a block holds at least one direction with all
    its anchors, so a slice above PAIR_BLOCK points makes a larger block.
    """
    if ks.points is None:
        raise ValueError("verification needs materialized points")
    field = ks.field
    q, m, n = field.q, field.m, ks.n
    pts = np.sort(ks.points)
    member = _membership(pts, q ** n)
    scalars = np.arange(q, dtype=np.int64)
    missing = []
    for lead in range(n):
        free = n - 1 - lead
        coord = (pts >> (lead * m)) & (q - 1)
        anchors = pts[coord == np.argmin(np.bincount(coord, minlength=q))]
        ndirs = q ** free
        per_block = max(1, PAIR_BLOCK // max(anchors.size, q))
        for start in range(0, ndirs, per_block):
            idx = np.arange(start, min(start + per_block, ndirs), dtype=np.int64)
            rest = (idx[:, None] // q ** np.arange(free)) % q
            step = np.tile((scalars << (lead * m))[:, None], idx.size)
            for j in range(free):  # step[u, i] = packed u*d for the block's i-th direction
                step |= field.mul_arrays(scalars[:, None], rest[:, j]) << ((lead + 1 + j) * m)
            hit = np.flatnonzero(member(step[1][:, None] ^ anchors))
            dirs, base = hit // anchors.size, anchors[hit % anchors.size]
            for u in range(2, q):
                keep = member(base ^ step[u, dirs])
                dirs, base = dirs[keep], base[keep]
                if not dirs.size:
                    break
            covered = np.zeros(idx.size, dtype=bool)
            covered[dirs] = True
            missing.extend((0,) * lead + (1,) + tuple(r) for r in rest[~covered].tolist())
    return VerificationResult(ok=not missing, missing=sorted(missing))


def bound_eval(q: int, n: int) -> tuple[float, float]:
    """The (new, KLSS) size bounds for q = 2^m: one pair for even m, one for odd m.

    Floats with <= 1e-12 relative error: sqrt(q) is exact for even m and
    correctly rounded otherwise.
    """
    m = q.bit_length() - 1
    if q < 2 or (1 << m) != q:
        raise ValueError(f"the bounds need q a power of 2 >= 2, got {q}")
    if n < 1:
        raise ValueError("need n >= 1")
    if m % 2 == 0:
        s = 1 << (m // 2)
        return (2.0 * q / (q + s - 2) * ((q + s) / 2.0) ** n,
                1.5 * q / (q - 1) * ((2 * q + 1) / 3.0) ** n)
    r = math.sqrt(q)
    return (8.0 * q / (5 * q + 2 * r - 3) * ((5 * q + 2 * r + 5) / 8.0) ** n,
            1.5 * (2 * (q + r + 1) / 3.0) ** n)


@dataclass
class BoundReport:
    q: int
    n: int
    f: str
    measured_size: int
    new_bound: float
    klss_bound: float
    new_ok: bool
    klss_ok: bool

    @property
    def ok(self) -> bool:
        return self.new_ok and self.klss_ok


def bound_report(field: Field, n: int, fn: FunctionSpec, size: int) -> BoundReport:
    """Measured size against the parity-appropriate bound pair.

    A bound that exceeds the size by 1e-6 or less aborts instead of
    passing: integer sizes never sit that close to these bounds, so such
    a margin means a float went wrong somewhere.
    """
    new_bound, klss_bound = bound_eval(field.q, n)
    for b in (new_bound, klss_bound):
        if 0.0 < b - size <= 1e-6:
            raise ArithmeticError(f"bound {b} suspiciously close to size {size}")
    return BoundReport(q=field.q, n=n, f=function_label(fn), measured_size=size,
                       new_bound=new_bound, klss_bound=klss_bound,
                       new_ok=size < new_bound, klss_ok=size < klss_bound)


def construction_case(m: int, n: int) -> dict:
    """Build, verify and bound-check one (q, n) with the parity-matched map."""
    field = make_field(m)
    fn = Quartic() if m % 2 else Gold(m // 2)
    ks = build_kakeya(field, n, fn)
    ver = verify_kakeya(ks)
    rep = bound_report(field, n, fn, ks.size)
    ok = (ks.block_count == ks.size
          and ver.ok and rep.ok
          and ks.distinct_point_count <= ks.size)
    return {"q": field.q, "n": n, "f": function_label(fn), "size": ks.size,
            "distinct_points": ks.distinct_point_count,
            "kakeya_verified": ver.ok, "bound_new": rep.new_bound,
            "bound_klss": rep.klss_bound, "ok": ok}


def construction_cases(m_max: int) -> list[tuple]:
    """One case of cost q^n for every 2 <= m <= min(4, m_max) and n in {2, 3}."""
    return [((1 << m) ** n, construction_case, (m, n))
            for m in range(2, min(4, m_max) + 1) for n in (2, 3)]


def construction_sweep(m_max: int) -> list[dict]:
    return run_cases(construction_cases(m_max))


def bound_dominance_rows() -> list[dict]:
    """New bounds vs the prior ones on the ranges where dominance is claimed."""
    rows = []
    for case, qs, ns in (("even", (16, 64), range(2, 7)), ("odd", (8, 32, 128), range(1, 7))):
        for q in qs:
            for n in ns:
                new, old = bound_eval(q, n)
                rows.append({"q": q, "n": n, "case": case, "new_bound": new,
                             "klss_bound": old, "ok": (old - new) / old > 1e-6})
    return rows
