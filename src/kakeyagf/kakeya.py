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
translating a point along a direction is one XOR. A point set lives in a
bool bitmap of F_q^n indexed by the packed point: the blocks are scattered
into one, which deduplicates them, and the verifier tests membership in
one. Every set `build_kakeya` materializes has q^n <= 2^28, so a bitmap
takes at most 256 MB. The verifier takes all
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

DEFAULT_MATERIALIZE_CAP = 1 << 24
PACKED_BITS = 62  # packed points are int64
PAIR_BLOCK = 1 << 16  # (direction, anchor) pairs the verifier filters at once


def kakeya_size_from_images(image_sizes, n: int) -> int:
    """sum over t of (s^n - 1)/(s - 1) with s = |I_f(t)|.

    Any sequence of sizes will do, an int64 array included: the sum runs
    in Python ints, so s^n never wraps.
    """
    sizes = np.asarray(image_sizes).tolist()
    if not sizes:
        raise ValueError("need at least one image size")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if min(sizes) < 2:  # |I(t)| = 1 makes f affine, which build_kakeya refuses
        raise ValueError(f"image sizes must be >= 2, got {min(sizes)}")
    return sum((s**n - 1) // (s - 1) for s in sizes)


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
    image_sizes: np.ndarray     # |I_f(t)| for every t, from image_sizes_all
    size: int                   # block total by the closed form, kakeya_size_from_images
    points: np.ndarray | None   # sorted packed tuples, deduplicated; None if not materialized
    block_count: int | None = None  # tuples in the enumerated blocks; None with the points
    skipped: str | None = None  # why points that were asked for were not materialized

    @property
    def distinct_point_count(self) -> int | None:
        return None if self.points is None else int(self.points.size)


class AffineMapError(ValueError):
    """`build_kakeya` was given a GF(2)-affine map, which the construction cannot use."""


def build_kakeya(field: Field, n: int, fn: FunctionSpec, materialize: bool = True) -> KakeyaSet:
    """Image sizes always; tuples too when asked for and when they fit.

    The sizes come from the one-slope-per-class `image_sizes_all`, and
    `size`, their closed-form total, is known before anything is
    enumerated. Asked-for tuples are skipped, with the reason in
    `skipped`, when they do not pack into PACKED_BITS or when `size` is
    above DEFAULT_MATERIALIZE_CAP; otherwise they come from
    `kakeya_blocks`, whose count is recorded as `block_count` for the
    caller to hold against `size`.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if is_gf2_affine(field, values_all(field, fn)):
        raise AffineMapError(
            f"{function_label(fn)} is GF(2)-affine; the construction needs a non-linear map")
    sizes = image_sizes_all(field, fn)
    size = kakeya_size_from_images(sizes, n)
    if not materialize:
        return KakeyaSet(field, n, fn, sizes, size, None)
    if n * field.m > PACKED_BITS:
        return KakeyaSet(field, n, fn, sizes, size, None,
                         skipped=f"packed points need n*m <= {PACKED_BITS} bits")
    if size > DEFAULT_MATERIALIZE_CAP:
        return KakeyaSet(field, n, fn, sizes, size, None, skipped="materialization cap exceeded")
    return KakeyaSet(field, n, fn, sizes, size, *kakeya_blocks(field, n, fn))


def kakeya_blocks(field: Field, n: int, fn: FunctionSpec) -> tuple[np.ndarray, int]:
    """The sorted distinct packed points of every (j, t) block, and the blocks' tuple count.

    Each block is scattered into a bitmap of F_q^n as it is enumerated,
    which drops the tuples two blocks share. The image sets come from one
    sweep of every slope, and no closed form is read.
    """
    m = field.m
    if n * m > PACKED_BITS:
        raise ValueError(f"packed points need n*m <= {PACKED_BITS} bits, got {n * m}")
    bitmap = np.zeros(field.q ** n, dtype=bool)
    count = 0
    for t, vals in image_sets(field, fn, range(field.q)):
        prefix = np.zeros(1, dtype=np.int64)  # packed x_1..x_j over I_f(t)^j
        for j in range(n):
            if j:
                prefix = (prefix[:, None] | vals << ((j - 1) * m)).ravel()
            bitmap[prefix | t << (j * m)] = True
            count += prefix.size
    return np.flatnonzero(bitmap), count


@dataclass
class VerificationResult:
    ok: bool
    missing: list[tuple[int, ...]]


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
    Membership is one lookup in a bitmap of F_q^n set from `ks.points`, so
    the points may come in any order and repeat.
    """
    if ks.points is None:
        raise ValueError("verification needs materialized points")
    field = ks.field
    q, m, n = field.q, field.m, ks.n
    pts = ks.points
    member = np.zeros(q ** n, dtype=bool)  # member[p]: is packed point p in K?
    member[pts] = True
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
            hit = np.flatnonzero(member[step[1][:, None] ^ anchors])
            dirs, base = hit // anchors.size, anchors[hit % anchors.size]
            for u in range(2, q):
                keep = member[base ^ step[u, dirs]]
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


def paper_map(m: int) -> FunctionSpec:
    """The map whose set the paper's bound is proved for: Gold(m/2) at even m, else the quartic."""
    return Quartic() if m % 2 else Gold(m // 2)


def check_construction(field: Field, n: int, fn: FunctionSpec, materialize: bool = True) -> dict:
    """Build K for f in F_q^n and check it: block count, both bounds, the lines.

    `materialize` goes to `build_kakeya`, and `skipped` is its reason for
    leaving asked-for points out. The row passes when the enumerated
    blocks hold `size` tuples, the distinct points number at most `size`
    and, where points exist, the verifier finds a line in every direction.
    The paper proves the bounds only for `paper_map(m)`, so only that map
    must also have `size` below both; any other map's bounds are reported,
    not held. A bound that exceeds the size by 1e-6 or less aborts instead
    of passing: integer sizes never sit that close to these bounds, so
    such a margin means a float went wrong somewhere.
    """
    bound_new, bound_klss = bound_eval(field.q, n)   # an overflow raises before the build
    ks = build_kakeya(field, n, fn, materialize)
    size = ks.size
    for b in (bound_new, bound_klss):
        if 0.0 < b - size <= 1e-6:
            raise ArithmeticError(f"bound {b} suspiciously close to size {size}")
    verified = None if ks.points is None else verify_kakeya(ks).ok
    distinct = ks.distinct_point_count
    below_bounds = size < bound_new and size < bound_klss
    ok = (ks.block_count in (None, size) and (distinct is None or distinct <= size)
          and (below_bounds or fn != paper_map(field.m)) and verified is not False)
    return {"q": field.q, "n": n, "f": function_label(fn), "size": size,
            "bound_new": bound_new, "bound_klss": bound_klss, "kakeya_verified": verified,
            "distinct_points": distinct, "block_count": ks.block_count, "skipped": ks.skipped,
            "ok": ok}


def construction_case(m: int, n: int) -> dict:
    """`check_construction` of one (q, n) with `paper_map(m)`, which must verify."""
    row = check_construction(make_field(m), n, paper_map(m))
    row["ok"] = row["ok"] and row["kakeya_verified"] is True
    return row


def construction_cases(m_max: int) -> list[tuple]:
    """One case of cost q^n for every 2 <= m <= min(4, m_max) and n in {2, 3}."""
    return [((1 << m) ** n, construction_case, (m, n))
            for m in range(2, min(4, m_max) + 1) for n in (2, 3)]


def construction_sweep(m_max: int) -> list[dict]:
    return [fn(*args) for _, fn, args in construction_cases(m_max)]


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
