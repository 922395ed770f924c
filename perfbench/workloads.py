"""The three workloads: seeded inputs, and checks of the program's outputs.

This module runs in the benchmark's own process and never imports
kakeyagf; every expected value comes from `gf2ref` or from the paper's
closed forms restated here. `cases.py` holds the matching program calls,
which run in a fresh interpreter per timed execution.

A workload is a `Workload` with
  make_inputs(seed, small)   the inputs handed to the program,
  ops(inputs)                the operations one execution attempts,
  check(inputs, outputs)     a list of failed checks, empty when correct.
`small` selects reduced sizes for the benchmark's own tests.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gf2ref as ref


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, bool], dict]
    ops: Callable[[dict], int]
    check: Callable[[dict, dict], list[str]]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


# ----------------------------------------------------------------------
# verify-all: `kakeyagf all`, the paper's whole check

VERIFY_CHECKS = ("bluher-agreement", "gold-image-profile", "half-gold-structure",
                 "quartic-fiber-formulas", "quartic-image-exact",
                 "quartic-floor-sharpness", "kakeya-construction", "bound-dominance",
                 "floor-bound-integer-path")


def expected_case_counts(m_max: int) -> dict[str, int]:
    """Case count of each check, derived from the ranges `all` documents."""
    odd_exact = [m for m in (3, 5, 7, 9, 11) if m <= m_max]
    return {
        "bluher-agreement": sum(m for m in range(2, min(12, m_max) + 1)),
        "gold-image-profile": sum(m - 1 for m in range(2, min(12, m_max) + 1)),
        "half-gold-structure": len(range(2, min(12, m_max) + 1, 2)),
        "quartic-fiber-formulas": min(13, m_max),
        "quartic-image-exact": len(odd_exact) + (m_max >= 13),
        "quartic-floor-sharpness": len([m for m in range(1, 14, 2) if m <= m_max]),
        "kakeya-construction": 2 * len([m for m in (2, 3, 4) if m <= m_max]),
        "bound-dominance": 2 * 5 + 3 * 6,
        "floor-bound-integer-path": len(range(1, 32, 2)),
    }


def _verify_inputs(seed: int, small: bool) -> dict:
    return {"m_max": 5 if small else 13, "seed": seed}


def _verify_check(inputs: dict, outputs: dict) -> list[str]:
    errors = []
    if outputs["exit"] != 0:
        errors.append(f"all exited {outputs['exit']}")
    try:
        report = json.loads(outputs["report"])
    except json.JSONDecodeError as exc:
        return errors + [f"report is not JSON: {exc}"]
    want = expected_case_counts(inputs["m_max"])
    got = {c["name"]: c for c in report.get("checks", [])}
    if list(got) != list(VERIFY_CHECKS):
        errors.append(f"checks {list(got)} are not the nine of `all`")
    for name, count in want.items():
        c = got.get(name)
        if c is None:
            continue
        if c["ok"] is not True:
            errors.append(f"{name} is not ok")
        if c["cases"] != count:
            errors.append(f"{name} ran {c['cases']} cases, its range gives {count}")
    if report.get("ok") is not True or report.get("seed") != inputs["seed"] \
            or report.get("m_max") != inputs["m_max"]:
        errors.append("report header disagrees with the request")
    return errors


VERIFY_ALL = Workload("verify-all", _verify_inputs, lambda inputs: len(VERIFY_CHECKS),
                      _verify_check)


# ----------------------------------------------------------------------
# big-field-probe: fresh large fields, single-slope queries

PAIRS = 4096
SECOND_MODULUS_M = 17


def _slopes(field: ref.RefField, rng: np.random.Generator) -> list[int]:
    """One nonzero slope of trace 0 and one of trace 1."""
    out = []
    for want in (0, 1):
        while True:
            t = int(rng.integers(1, field.q))
            if field.trace(t) == want:
                out.append(t)
                break
    return out


def _probe_inputs(seed: int, small: bool) -> dict:
    ms = range(8, 11) if small else range(16, 21)
    second_m = 9 if small else SECOND_MODULUS_M
    fields = []
    for m in ms:
        rf = ref.RefField(ref.smallest_irreducible(m))
        rng = _rng(seed, m)
        a = rng.integers(0, rf.q, PAIRS)
        b = rng.integers(0, rf.q, PAIRS)
        a[0], b[1] = 0, 0
        fields.append({"m": m, "modulus": None, "a": a, "b": b, "slopes": _slopes(rf, rng)})
    base = next(f for f in fields if f["m"] == second_m)
    second = ref.RefField(ref.largest_irreducible(second_m))
    phi = second.isomorphism_from(ref.smallest_irreducible(second_m))
    rng = _rng(seed, second_m, 2)
    fields.append({"m": second_m, "modulus": second.modulus,
                   "a": rng.integers(0, second.q, PAIRS), "b": rng.integers(0, second.q, PAIRS),
                   "slopes": [phi(t) for t in base["slopes"]]})
    return {"fields": fields}


def _probe_ops(inputs: dict) -> int:
    # per field: the products, the trace table, and two queries per slope
    return sum(2 + 2 * len(f["slopes"]) for f in inputs["fields"])


def _check_field(spec: dict, out: dict) -> list[str]:
    m = spec["m"]
    tag = f"m={m}" + (f" modulus {spec['modulus']:x}" if spec["modulus"] else "")
    want_mod = spec["modulus"] or ref.smallest_irreducible(m)
    if out["m"] != m or out["modulus"] != want_mod:
        return [f"{tag}: field is m={out['m']} modulus {out['modulus']:x}"]
    rf = ref.RefField(want_mod)
    q = rf.q
    errors = []
    if not np.array_equal(out["products"], rf.mul(spec["a"], spec["b"])):
        errors.append(f"{tag}: mul_arrays disagrees with the schoolbook product")

    tr = np.asarray(out["trace"], dtype=np.int64)
    x = rf.elements()
    if tr.shape != (q,) or ((tr >> 1) != 0).any():
        errors.append(f"{tag}: trace table is not q values in {{0, 1}}")
    else:
        mask = sum(int(tr[1 << k]) << k for k in range(m))
        if not np.array_equal(tr, ref.parity(x & mask)):
            errors.append(f"{tag}: trace is not GF(2)-linear")
        if int(np.count_nonzero(tr == 0)) != q // 2:
            errors.append(f"{tag}: {int(np.count_nonzero(tr == 0))} elements of trace 0, not q/2")
        sample = x[_rng(m, q).integers(0, q, 64)]
        if not np.array_equal(tr[sample], rf.trace(sample)):
            errors.append(f"{tag}: trace values disagree with x + x^2 + ... + x^(2^(m-1))")

    quartic = rf.quartic_values()
    gold = rf.gold_values(m // 2) if m % 2 == 0 else None
    s = math.isqrt(q)
    for t, qo in zip(spec["slopes"], out["queries"]):
        tr_t = rf.trace(t)
        omega = {int(k): int(c) for k, c in qo["omega"].items() if c}
        images = rf.images(quartic, t)
        ref_omega = ref.fiber_histogram(images, q)
        if sum(omega.values()) != q or sum(k * c for k, c in omega.items()) != q:
            errors.append(f"{tag} t={t:x}: fiber histogram does not account for q values")
        if omega.get(1, 0) != ref.quartic_omega1(m, tr_t) \
                or omega.get(3, 0) != ref.quartic_omega3(tr_t) or max(omega) >= 5:
            errors.append(f"{tag} t={t:x}: omega_1/omega_3 differ from the closed forms")
        if omega != ref_omega:
            errors.append(f"{tag} t={t:x}: fiber histogram differs from brute force")
        image_size = q - ref_omega.get(0, 0)
        if m % 2:
            v = qo["v"]
            if qo["delta"] != tr_t:
                errors.append(f"{tag} t={t:x}: curve count reports Tr(t)={qo['delta']}")
            if (v - q) ** 2 > 4 * q:
                errors.append(f"{tag} t={t:x}: |v - q| > 2 sqrt(q) for v={v}")
            num = 6 * q + 1 - v + 4 * tr_t
            if num % 8 or num // 8 != image_size:
                errors.append(f"{tag} t={t:x}: (6q+1-v+4Tr t)/8 = {num / 8} "
                              f"but |I(t)| = {image_size}")
        else:
            image = np.asarray(qo["gold_image"], dtype=np.int64)
            if image.size != (q + s) // 2:
                errors.append(f"{tag} t={t:x}: |I(t)| = {image.size} for Gold(m/2), "
                              f"not (q + sqrt q)/2")
            if not np.array_equal(image, ref.value_set(rf.images(gold, t), q)):
                errors.append(f"{tag} t={t:x}: Gold(m/2) image differs from brute force")
    return errors


def _probe_check(inputs: dict, outputs: dict) -> list[str]:
    fields, outs = inputs["fields"], outputs["fields"]
    if len(outs) != len(fields):
        return [f"{len(outs)} field results for {len(fields)} fields"]
    errors = []
    for spec, out in zip(fields, outs):
        errors += _check_field(spec, out)
    # the last field repeats an earlier degree under another modulus, queried
    # at the images of that field's slopes under the isomorphism
    second = fields[-1]
    base = next(i for i, f in enumerate(fields) if f["m"] == second["m"])
    for qa, qb in zip(outs[base]["queries"], outs[-1]["queries"]):
        sizes_a = (qa["omega"], qa.get("v"), len(qa.get("gold_image", ())))
        sizes_b = (qb["omega"], qb.get("v"), len(qb.get("gold_image", ())))
        if sizes_a != sizes_b:
            errors.append(f"m={second['m']}: sizes change under modulus "
                          f"{second['modulus']:x}")
    return errors


BIG_FIELD_PROBE = Workload("big-field-probe", _probe_inputs, _probe_ops, _probe_check)


# ----------------------------------------------------------------------
# kakeya-lines: build and verify Kakeya sets, with negative controls

KAKEYA_CASES = ((4, 3), (3, 4), (6, 2), (5, 2))    # (m, n): q = 16, 8, 64, 32
KAKEYA_CASES_SMALL = ((2, 3), (3, 2))
WITNESS_SAMPLE = 64


def _pack(coords, m: int) -> int:
    return sum(c << (k * m) for k, c in enumerate(coords))


def _map_values(rf: ref.RefField) -> np.ndarray:
    """The construction's map: Gold(m/2) for even m, x^4 + x^3 for odd m."""
    return rf.quartic_values() if rf.m % 2 else rf.gold_values(rf.m // 2)


def reference_kakeya(m: int, n: int) -> tuple[np.ndarray, list[int]]:
    """The layered point set built from brute-force image sets, and |I(t)| per t."""
    rf = ref.RefField(ref.smallest_irreducible(m))
    f = _map_values(rf)
    points, sizes = set(), []
    for t in range(rf.q):
        image = sorted(set(rf.images(f, t).tolist()))
        sizes.append(len(image))
        for j in range(n):
            for combo in itertools.product(image, repeat=j):
                points.add(_pack(combo + (t,), m))
    return np.array(sorted(points), dtype=np.int64), sizes


def _negative_control(points: np.ndarray, m: int, n: int, rng) -> tuple[np.ndarray, str]:
    """A subset of the set that provably holds no line in some direction.

    n >= 3: drop every point whose last coordinate is c. A line whose
    direction has a nonzero last coordinate meets that hyperplane, so
    all q^(n-1) such directions must fail.
    n = 2: keep q(q+1)/2 - 1 points. q+1 lines meeting pairwise in at
    most one point cover at least q + (q-1) + ... + 1 = q(q+1)/2 points,
    so no direction set of a Kakeya set fits.
    """
    q = 1 << m
    if n >= 3:
        c = int(rng.integers(0, q))
        keep = ((points >> ((n - 1) * m)) & (q - 1)) != c
        return points[keep], "hyperplane"
    budget = q * (q + 1) // 2 - 1
    if points.size <= budget:
        raise ValueError("the set is already too small to be Kakeya")
    keep = np.sort(rng.choice(points.size, budget, replace=False))
    return points[keep], "count"


def _kakeya_inputs(seed: int, small: bool) -> dict:
    cases = []
    for m, n in (KAKEYA_CASES_SMALL if small else KAKEYA_CASES):
        points, _ = reference_kakeya(m, n)
        neg, kind = _negative_control(points, m, n, _rng(seed, m, n))
        cases.append({"m": m, "n": n, "neg_points": neg, "neg_kind": kind,
                      "witness_seed": [seed, m, n, 1]})
    return {"cases": cases}


def _canonical(d: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1, as the program lists directions."""
    q = 1 << (modulus.bit_length() - 1)
    lead = next(c for c in d if c)
    inv = 1
    for _ in range(q - 2):
        inv = ref.pmulmod(inv, lead, modulus)
    return tuple(ref.pmulmod(inv, c, modulus) for c in d)


def _check_kakeya_case(spec: dict, out: dict) -> list[str]:
    m, n = spec["m"], spec["n"]
    q = 1 << m
    tag = f"q={q} n={n}"
    if out["modulus"] != ref.smallest_irreducible(m):
        return [f"{tag}: unexpected modulus {out['modulus']:x}"]
    rf = ref.RefField(out["modulus"])
    errors = []
    ref_points, sizes = reference_kakeya(m, n)
    points = np.asarray(out["points"], dtype=np.int64)
    if not np.array_equal(points, ref_points):
        errors.append(f"{tag}: point set differs from the layered construction")
    if out["size"] != ref.block_total(sizes, n):
        errors.append(f"{tag}: block total {out['size']} != {ref.block_total(sizes, n)}")
    if m % 2 == 0:
        s = math.isqrt(q)
        paper = ref.block_total([s] + [(q + s) // 2] * (q - 1), n)
        if out["size"] != paper:
            errors.append(f"{tag}: block total {out['size']} != paper's {paper}")
    if not all(ref.below_bounds(out["size"], q, n)):
        errors.append(f"{tag}: size {out['size']} is not below both bounds")

    # the paper's witness: (f(b_1), ..., f(b_j), 0, ...) + s*(b_1, ..., b_j, 1, 0, ...)
    f = _map_values(rf)
    member = set(points.tolist())
    rng = np.random.default_rng(spec["witness_seed"])
    for _ in range(WITNESS_SAMPLE):
        j = int(rng.integers(0, n))
        b = [int(v) for v in rng.integers(0, q, j)]
        line = [_pack([int(f[bi]) ^ ref.pmulmod(s, bi, rf.modulus) for bi in b] + [s], m)
                for s in range(q)]
        if not member.issuperset(line):
            errors.append(f"{tag}: witness line for direction {b + [1]} is not in the set")
            break

    if out["pos_ok"] is not True or out["pos_missing"]:
        errors.append(f"{tag}: verifier rejects the built set")
    if out["neg_ok"] is not False:
        errors.append(f"{tag}: verifier accepts the {spec['neg_kind']} negative control")
    if spec["neg_kind"] == "hyperplane":
        missing = {tuple(d) for d in out["neg_missing"]}
        certified = {_canonical(d, rf.modulus)
                     for d in itertools.product(range(q), repeat=n) if d[-1]}
        if not certified <= missing:
            errors.append(f"{tag}: verifier finds lines in "
                          f"{len(certified - missing)} directions that cross the "
                          f"removed hyperplane")
    elif spec["neg_points"].size >= q * (q + 1) // 2:
        errors.append(f"{tag}: count control has {spec['neg_points'].size} points")
    return errors


def _kakeya_check(inputs: dict, outputs: dict) -> list[str]:
    if len(outputs["cases"]) != len(inputs["cases"]):
        return ["wrong number of case results"]
    errors = []
    for spec, out in zip(inputs["cases"], outputs["cases"]):
        errors += _check_kakeya_case(spec, out)
    return errors


KAKEYA_LINES = Workload("kakeya-lines", _kakeya_inputs,
                        lambda inputs: 3 * len(inputs["cases"]), _kakeya_check)


WORKLOADS = {w.name: w for w in (VERIFY_ALL, BIG_FIELD_PROBE, KAKEYA_LINES)}
