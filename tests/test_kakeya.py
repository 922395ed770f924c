"""Construction, direction coverage, the exhaustive line verifier, bounds."""

import dataclasses
import math

import numpy as np
import pytest

from kakeyagf import kakeya
from kakeyagf.field import Field, make_field
from kakeyagf.fiber import Gold, Quartic, image_sizes_all, image_values, values_all
from kakeyagf.kakeya import (AffineMapError, KakeyaSet, bound_dominance_rows, bound_eval,
                             build_kakeya, check_construction, construction_case, is_gf2_affine,
                             kakeya_size_from_images, verify_kakeya)

from helpers_naive import (SparseExponentSum, canonical_directions, elements, evaluate,
                           naive_has_line, naive_image, naive_irreducibles, naive_kakeya_points,
                           pack_point, sort_verify_missing, sparse_values, unpack_point)


def _values(field, fn):
    return sparse_values(field, fn) if isinstance(fn, SparseExponentSum) else values_all(field, fn)


def test_size_from_images_frozen():
    assert kakeya_size_from_images([2, 3, 3, 3], 2) == 15
    assert kakeya_size_from_images([9] * 8, 1) == 8
    # s^n = 2^80 is past int64, which would wrap it to 0: the terms are Python ints
    total = kakeya_size_from_images(np.array([2**20] * 3, dtype=np.int64), 4)
    assert total == 3 * (2**80 - 1) // (2**20 - 1)
    with pytest.raises(ValueError):
        kakeya_size_from_images([], 2)
    with pytest.raises(ValueError):
        kakeya_size_from_images([2], 0)
    with pytest.raises(ValueError):
        kakeya_size_from_images([0], 2)
    with pytest.raises(ValueError):  # |I(t)| = 1 only for an affine map
        kakeya_size_from_images([1] * 4, 3)


@pytest.mark.parametrize("m", range(2, 7))
def test_build_keeps_the_image_sizes_array(m):
    # KakeyaSet.image_sizes is image_sizes_all's array itself, under either modulus
    for modulus in naive_irreducibles(m, limit=2):
        field = Field(m, modulus)
        for fn in (Gold(1), Quartic()):
            ks = build_kakeya(field, 2, fn, materialize=False)
            assert np.array_equal(ks.image_sizes, image_sizes_all(field, fn)), (modulus, fn)


def test_affinity_gate():
    f4 = make_field(2)
    assert is_gf2_affine(f4, values_all(f4, Gold(0)))  # x^2 is linear
    assert not is_gf2_affine(f4, values_all(f4, Gold(1)))
    f8 = make_field(3)
    assert not is_gf2_affine(f8, values_all(f8, Quartic()))
    assert is_gf2_affine(f8, sparse_values(f8, SparseExponentSum(((2, 1), (1, 1), (0, 5)))))
    with pytest.raises(AffineMapError):
        build_kakeya(f4, 2, Gold(0))


def _pairwise_affine(field, fn):
    vals = [evaluate(field, fn, x) for x in elements(field)]
    return all(vals[x ^ y] == vals[x] ^ vals[y] ^ vals[0]
               for x in elements(field) for y in elements(field))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_affinity_gate_matches_pairwise_definition(m):
    field = make_field(m)
    fns = [Gold(i) for i in range(m)] + [Quartic(), SparseExponentSum(((2, 1), (1, 1), (0, 1))),
                                         SparseExponentSum(((4, 1), (3, 1)))]
    for fn in fns:
        assert is_gf2_affine(field, _values(field, fn)) == _pairwise_affine(field, fn)


def test_affinity_gate_exhaustive_large_field():
    # sum of x^k over 1 <= k < q is 1 at x = 1 and 0 elsewhere: it breaks
    # additivity only on the pairs that involve 1
    field = make_field(12)
    linear = SparseExponentSum(((2, 1), (4, 3), (1024, 7), (0, 5)))
    assert is_gf2_affine(field, sparse_values(field, linear))
    spike = SparseExponentSum(tuple((k, 1) for k in range(1, field.q)))
    assert not is_gf2_affine(field, sparse_values(field, spike))


def test_build_gf4_gold1():
    f4 = make_field(2)
    ks = build_kakeya(f4, 2, Gold(1))
    assert ks.size == kakeya_size_from_images(ks.image_sizes, 2) == 15
    # trailing-zero overlaps between blocks: the distinct set is smaller
    assert ks.distinct_point_count == 13
    ref = naive_kakeya_points(f4, 2, {t: image_values(f4, Gold(1), t) for t in range(4)})
    assert set(ks.points.tolist()) == {pack_point(p, 2) for p in ref}
    assert verify_kakeya(ks).ok


@pytest.mark.parametrize("m,n", [(4, 2), (5, 2), (6, 2)])
def test_build_reads_every_image_set_from_one_sweep(m, n, monkeypatch):
    # one map for the affine gate's values, one for the class-reduced sizes and
    # one for the sweep of every slope's image set: three maps per set, not
    # one per slope
    maps = []
    power_sum = Field.power_sum

    def counting(self, exponents, slope=0):
        maps.append(tuple(exponents))
        return power_sum(self, exponents, slope)

    monkeypatch.setattr(Field, "power_sum", counting)
    field = make_field(m)
    fn = _parity_map(m)
    ks = build_kakeya(field, n, fn)
    assert len(maps) == 3
    ref = naive_kakeya_points(field, n, {t: naive_image(field, fn, t) for t in range(field.q)})
    assert set(ks.points.tolist()) == {pack_point(p, m) for p in ref}


def test_build_dimension_one():
    f4 = make_field(2)
    ks = build_kakeya(f4, 1, Quartic())
    assert ks.size == 4
    assert ks.points.tolist() == [0, 1, 2, 3]  # the whole line
    assert verify_kakeya(ks).ok


def test_build_cap(monkeypatch):
    monkeypatch.setattr(kakeya, "DEFAULT_MATERIALIZE_CAP", 10)
    ks = build_kakeya(make_field(2), 2, Gold(1))
    assert ks.points is None and ks.block_count is None and ks.size == 15
    assert ks.skipped == "materialization cap exceeded"
    with pytest.raises(ValueError):
        verify_kakeya(ks)


def test_pack_unpack_roundtrip():
    for coords in [(0, 0, 0), (3, 1, 2), (7, 0, 5)]:
        assert unpack_point(pack_point(coords, 3), 3, 3) == coords


def test_canonical_directions_counts():
    assert len(canonical_directions(2, 2)) == 3
    assert len(canonical_directions(4, 2)) == 5
    assert len(canonical_directions(8, 3)) == 73
    for q, n in [(2, 2), (4, 2), (8, 3), (16, 2), (4, 4)]:
        dirs = canonical_directions(q, n)
        assert len(dirs) == ((q**n) - 1) // (q - 1)
        for d in dirs:
            nz = [c for c in d if c]
            assert nz and d[[k for k, c in enumerate(d) if c][0]] == 1


@pytest.mark.parametrize("q,n", [(16, 3), (16, 4), (2, 16), (4, 8)])
def test_directions_normal_form_larger_spaces(q, n):
    # exhaustive enumeration stays exact up to q^n = 2^16
    dirs = canonical_directions(q, n)
    assert len(dirs) == (q**n - 1) // (q - 1)
    assert len(set(dirs)) == len(dirs)
    for d in dirs:
        lead = next(k for k, c in enumerate(d) if c)
        assert d[lead] == 1


@pytest.mark.parametrize("q,n", [(2, 3), (4, 2), (8, 2)])
def test_directions_cover_every_vector_once(q, n):
    field = make_field(q.bit_length() - 1)
    covered = {}
    for d in canonical_directions(q, n):
        for s in range(1, q):
            v = tuple(field.mul(s, c) for c in d)
            assert v not in covered, "two representatives are proportional"
            covered[v] = d
    assert len(covered) == q**n - 1


def test_verify_full_space():
    f4 = make_field(2)
    pts = np.arange(16, dtype=np.int64)
    ks = KakeyaSet(field=f4, n=2, fn=Gold(1), image_sizes=np.full(4, 4),
                   size=16, points=pts)
    assert verify_kakeya(ks).ok


def test_verify_reports_missing_direction():
    f4 = make_field(2)
    ks = build_kakeya(f4, 2, Gold(1))
    # dropping (w, 0) kills the only full line in direction (1, 0) and
    # nothing else (cross-checked with the naive verifier)
    broken = set(ks.points.tolist()) - {pack_point((2, 0), 2)}
    ks2 = KakeyaSet(field=f4, n=2, fn=ks.fn, image_sizes=ks.image_sizes,
                    size=ks.size, points=np.array(sorted(broken), dtype=np.int64))
    res = verify_kakeya(ks2)
    assert not res.ok
    assert res.missing == [(1, 0)]
    tuples = {unpack_point(p, 2, 2) for p in broken}
    for d in canonical_directions(4, 2):
        assert naive_has_line(f4, tuples, d) == (d not in res.missing)


def test_bound_eval_frozen():
    new, klss = bound_eval(4, 2)
    assert new == 18.0
    assert abs(klss - 18.0) <= 1e-12 * 18.0
    new, klss = bound_eval(8, 1)
    # 64/(37 + 4*sqrt(2)) * (45 + 4*sqrt(2))/8, evaluated at high precision
    assert abs(new - 9.500345047144718) <= 1e-12 * 9.5
    assert abs(klss - 11.82842712474619) <= 1e-12 * 11.8


def test_bound_eval_validation():
    for q in (0, 1, 12):  # not a power of 2 above 1
        with pytest.raises(ValueError):
            bound_eval(q, 2)
    with pytest.raises(ValueError):
        bound_eval(4, 0)


def test_check_construction_gf4():
    f4 = make_field(2)
    row = check_construction(f4, 2, Gold(1))
    assert row["ok"] and row["size"] == 15
    assert (row["bound_new"], row["bound_klss"]) == bound_eval(4, 2)
    assert row["bound_new"] == 18.0
    assert (row["block_count"], row["distinct_points"]) == (15, 13)
    assert row["kakeya_verified"] is True and row["skipped"] is None
    # points not asked for: nothing is verified, and nothing counts as skipped
    row = check_construction(f4, 2, Gold(1), materialize=False)
    assert row["ok"] and row["size"] == 15
    assert row["kakeya_verified"] is row["distinct_points"] is row["skipped"] is None


def test_bound_dominance_rows():
    rows = bound_dominance_rows()
    assert len(rows) == 2 * 5 + 3 * 6
    assert all(r["ok"] for r in rows)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_gold1_constructions_verify(m, n):
    # the i = 1 map also yields verifiable sets at every desk-scale (q, n),
    # including odd m where |I(0)| = q
    field = make_field(m)
    ks = build_kakeya(field, n, Gold(1))
    assert verify_kakeya(ks).ok
    assert ks.size == kakeya_size_from_images(ks.image_sizes, n) == ks.block_count
    assert ks.distinct_point_count <= ks.size


def test_construction_case_rows():
    row = construction_case(3, 2)
    assert row["q"] == 8 and row["f"] == "quartic"
    assert row["ok"] and row["kakeya_verified"]
    assert row["distinct_points"] <= row["size"]


def test_materialization_bit_guard():
    # 5 * 13 = 65 bits: the build reports the skip, and the block enumeration refuses
    field = make_field(13)
    ks = build_kakeya(field, 5, Quartic())
    assert ks.points is None and ks.block_count is None
    assert ks.skipped == "packed points need n*m <= 62 bits"
    with pytest.raises(ValueError):
        kakeya.kakeya_blocks(field, 5, Quartic())


def _parity_map(m):
    return Quartic() if m % 2 else Gold(m // 2)


def _moduli(m):
    # GF(4) has a single irreducible modulus; larger fields get a second one
    return naive_irreducibles(m)[:2]


def _naive_missing(field, n, points):
    tuples = {unpack_point(int(p), field.m, n) for p in points}
    return sorted(d for d in canonical_directions(field.q, n)
                  if not naive_has_line(field, tuples, d))


@pytest.mark.parametrize("m,n,modulus",
                         [(m, n, p) for m, n in [(2, 2), (2, 3), (3, 2), (4, 2)]
                          for p in _moduli(m)])
def test_verify_matches_naive_every_direction(m, n, modulus):
    field = make_field(m, modulus)
    ks = build_kakeya(field, n, _parity_map(m))
    rng = np.random.default_rng([m, n, modulus])
    drop_one = np.delete(ks.points, rng.integers(ks.points.size))
    c = int(rng.integers(field.q))
    drop_plane = ks.points[((ks.points >> ((n - 1) * m)) & (field.q - 1)) != c]
    for points in (ks.points, drop_one, drop_plane):
        res = verify_kakeya(dataclasses.replace(ks, points=points))
        missing = _naive_missing(field, n, points)
        assert res.missing == missing and res.ok == (not missing)
    # res is drop_plane's: every line with a nonzero last coordinate meets the plane
    assert len(res.missing) >= field.q ** (n - 1)


def test_verify_ignores_order_and_duplicates():
    field = make_field(3)
    ks = build_kakeya(field, 2, Quartic())
    broken = ks.points[ks.points != ks.points[5]]
    for points in (ks.points, broken):
        expected = verify_kakeya(dataclasses.replace(ks, points=points))
        for variant in (points[::-1], np.concatenate([points, points[::3]]),
                        np.repeat(points, 2)[::-1]):
            res = verify_kakeya(dataclasses.replace(ks, points=variant))
            assert (res.ok, res.missing) == (expected.ok, expected.missing)
    assert expected.missing  # the broken set's, so the variants were compared on a failure too


@pytest.mark.parametrize("m,n", [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_build_matches_naive_second_modulus(m, n):
    field = make_field(m, naive_irreducibles(m)[1])
    fn = _parity_map(m)
    ks = build_kakeya(field, n, fn)
    images = {t: sorted(naive_image(field, fn, t)) for t in elements(field)}
    ref = naive_kakeya_points(field, n, images)
    assert ks.points.tolist() == sorted(pack_point(p, m) for p in ref)
    assert ks.size == sum(len(v) ** j for v in images.values() for j in range(n))


@pytest.mark.parametrize("m,n", [(5, 3), (4, 4), (6, 3)])
def test_larger_constructions_verify(m, n):
    # q = 32, n = 3, q = 16, n = 4 and q = 64, n = 3: out of the verification sweep's ranges
    row = construction_case(m, n)
    assert row["ok"] and row["kakeya_verified"]
    assert row["distinct_points"] <= row["size"]


def _variants(ks, rng):
    """The built set, and subsets of it that miss some or many directions."""
    q, m, n = ks.field.q, ks.field.m, ks.n
    pts = ks.points
    last = (pts >> ((n - 1) * m)) & (q - 1)
    return {"built": pts,
            "drop_one": np.delete(pts, rng.integers(pts.size)),
            "drop_plane": pts[last != rng.integers(q)],
            "random": pts[rng.random(pts.size) < 0.8]}


@pytest.mark.parametrize("m,n,modulus",
                         [(m, n, p) for m in (2, 3, 4) for n in (1, 2, 3) for p in _moduli(m)]
                         + [(2, 4, p) for p in _moduli(2)])
def test_verify_matches_sort_reference(m, n, modulus):
    field = make_field(m, modulus)
    ks = build_kakeya(field, n, _parity_map(m))
    for name, points in _variants(ks, np.random.default_rng([m, n, modulus])).items():
        res = verify_kakeya(dataclasses.replace(ks, points=points))
        missing = sort_verify_missing(field, n, points)
        assert (res.ok, res.missing) == (not missing, missing), name


def _line(field, n, base, d):
    return np.array([pack_point([b ^ field.mul(u, c) for b, c in zip(base, d)], field.m)
                     for u in elements(field)], dtype=np.int64)


@pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (2, 2), (3, 3), (2, 4)])
def test_verify_edge_sets(m, n):
    field = make_field(m)
    q = field.q
    every = sorted(canonical_directions(q, n))
    empty = np.zeros(0, dtype=np.int64)
    d = every[-1]
    line = _line(field, n, [1] * n, d)
    cases = [(empty, every), (np.arange(q ** n, dtype=np.int64), []),
             (line, [e for e in every if e != d])]
    for points, missing in cases:
        res = verify_kakeya(KakeyaSet(field=field, n=n, fn=Gold(1), image_sizes=np.empty(0),
                                      size=points.size, points=points))
        assert (res.ok, res.missing) == (not missing, missing)
        assert res.missing == sort_verify_missing(field, n, points)


def test_membership_routes(monkeypatch):
    field = make_field(2)
    full = np.arange(4 ** 4, dtype=np.int64)
    line = _line(field, 4, [3, 0, 1, 2], (0, 1, 2, 3))
    assert kakeya._bitmap_fits(full.size, full.size)
    assert not kakeya._bitmap_fits(4 ** 4, line.size)
    assert kakeya._bitmap_fits(800, 100) and not kakeya._bitmap_fits(801, 100)
    ks = build_kakeya(field, 3, Gold(1))
    sets = [(4, full), (4, line)] + [(3, p) for p in _variants(ks, np.random.default_rng(0)).values()]
    expected = [verify_kakeya(dataclasses.replace(ks, n=n, points=p)) for n, p in sets]
    assert expected[0].ok and len(expected[1].missing) == len(canonical_directions(4, 4)) - 1
    for forced in (True, False):
        monkeypatch.setattr(kakeya, "_bitmap_fits", lambda universe, count: forced)
        for (n, p), want in zip(sets, expected):
            assert verify_kakeya(dataclasses.replace(ks, n=n, points=p)) == want


@pytest.mark.parametrize("pair_block", [1, 16, 40, 700])
def test_verify_pair_block_sizes(monkeypatch, pair_block):
    # 1 and 16 give one direction per block, 16 being below the anchor
    # slices of the q = 16 sets (45 points or more where not empty); 40 and
    # 700 put several directions in a block, but not all of a lead's
    sets = []
    for m, n in [(3, 3), (4, 3), (2, 4)]:
        ks = build_kakeya(make_field(m), n, _parity_map(m))
        sets += [dataclasses.replace(ks, points=p)
                 for p in _variants(ks, np.random.default_rng([m, n])).values()]
    expected = [verify_kakeya(ks) for ks in sets]
    assert any(not r.ok for r in expected)
    monkeypatch.setattr(kakeya, "PAIR_BLOCK", pair_block)
    assert [verify_kakeya(ks) for ks in sets] == expected
