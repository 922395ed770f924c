"""Gold-map image profiles and the halfway-index structure."""

import math

import pytest

from kakeyagf import gold
from kakeyagf.field import make_field
from kakeyagf.fiber import Gold, image_sizes_all
from kakeyagf.gold import (gold_profile, half_gold_sweep, image_profile_sweep, profile_case,
                           verify_half_gold_structure)


def test_profile_frozen():
    # sizes derived by exhaustive image scans over GF(4), GF(16), GF(8)
    p = gold_profile(2, 1)
    assert (p["size_at_zero"], p["size_at_nonzero"], p["parity_case"]) == (2, 3, "even")
    p = gold_profile(4, 2)
    assert (p["size_at_zero"], p["size_at_nonzero"]) == (4, 10)
    p = gold_profile(3, 1)
    assert (p["size_at_zero"], p["size_at_nonzero"], p["parity_case"]) == (8, 5, "odd")


def test_profile_rejects_bad_index():
    with pytest.raises(ValueError):
        gold_profile(4, 0)  # linear map excluded
    with pytest.raises(ValueError):
        gold_profile(4, 4)


def test_gcd_dichotomy():
    # 2^d + 1 divides 2^m - 1 exactly when m/d is even
    for m in range(2, 11):
        for i in range(1, m):
            d = math.gcd(i, m)
            expected = (1 << d) + 1 if (m // d) % 2 == 0 else 1
            assert math.gcd((1 << m) - 1, (1 << i) + 1) == expected


@pytest.mark.parametrize("m", range(2, 9))
def test_profile_matches_bruteforce(m):
    for i in range(1, m):
        assert profile_case(make_field(m), i)["ok"], (m, i)


def test_half_gold_structure_frozen():
    # |I(1)| = (q + sqrt(q))/2: 3, 10, 36 for m = 2, 4, 6
    for m, expected in [(2, 3), (4, 10), (6, 36)]:
        # the brute-force record holds the measured facts only: no expected size, no verdict
        assert verify_half_gold_structure(make_field(m)) == {
            "image_is_subfield": True, "injective_on_trace_one": True,
            "two_to_one_elsewhere": True, "image_size_at_one": expected}


def test_half_gold_rejects_odd_degree():
    with pytest.raises(ValueError):
        verify_half_gold_structure(make_field(3))


@pytest.mark.parametrize("m", [2, 4, 6])
def test_scale_invariance(m):
    # |I(t)| is the same for every t != 0, read off the profile's own sweep
    assert profile_case(make_field(m), m // 2)["scale_invariant"]


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
def test_halfway_index_minimizes_nonzero_size(m):
    best = gold_profile(m, m // 2)["size_at_nonzero"]
    q = 1 << m
    assert best == (q + (1 << (m // 2))) // 2
    for i in range(1, m):
        assert gold_profile(m, i)["size_at_nonzero"] >= best


def test_sweeps_small():
    assert all(r["ok"] for r in image_profile_sweep(m_max=6))
    assert all(r["ok"] for r in half_gold_sweep(m_max=6))


def test_nonzero_size_matches_bluher_complement():
    # q - |I(t != 0)| must equal the no-root count for the same (m, i)
    from kakeyagf.bluher import bluher_formula
    for m in range(2, 13):
        for i in range(1, m):
            assert gold_profile(m, i)["size_at_nonzero"] == (1 << m) - bluher_formula(m, i)


def test_half_gold_sweep_makes_no_image_sweep(monkeypatch):
    # the every-t sizes of Gold(m/2) are checked by brute force in image_profile_sweep
    swept = []
    image_sizes_all = gold.image_sizes_all

    def recording(field, fn):
        swept.append((field.m, fn))
        return image_sizes_all(field, fn)

    monkeypatch.setattr(gold, "image_sizes_all", recording)
    rows = half_gold_sweep(m_max=8)
    assert [r["m"] for r in rows] == [2, 4, 6, 8]
    assert all(r["sizes_ok"] and r["ok"] for r in rows)
    assert swept == []
