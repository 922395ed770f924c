"""Fault table: one closed form perturbed at a time must show as FAIL rows of `all`.

Each row patches one closed form where its module looks it up, runs
`all --m-max 9` in this process at one and two workers (forked workers
inherit the patch), and pins the exact set of checks that fail. Together
the rows make every one of the nine checks fail at least once, so none of
them compares a formula only with itself.
"""

import dataclasses
import json

import pytest

from kakeyagf import bluher, gold, kakeya, quartic
from kakeyagf.cli import main


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


def _nonzero_size_plus_one(fn):
    def perturbed(m, i):
        prof = fn(m, i)
        return dataclasses.replace(prof, size_at_nonzero=prof.size_at_nonzero + 1)
    return perturbed


def _pair_swapped(fn):
    return lambda q, n: fn(q, n)[::-1]


FAULTS = [
    (bluher, "bluher_formula", _plus_one, {"bluher-agreement"}),
    (quartic, "omega1_formula", _plus_one, {"quartic-fiber-formulas"}),
    (quartic, "omega3_formula", _plus_one, {"quartic-fiber-formulas"}),
    (gold, "gold_profile", _nonzero_size_plus_one,
     {"gold-image-profile", "half-gold-structure"}),
    (quartic, "quartic_floor_bound", _plus_one,
     {"quartic-floor-sharpness", "floor-bound-integer-path"}),
    (quartic, "_size_from_count", _plus_one,
     {"quartic-image-exact", "quartic-floor-sharpness"}),
    (kakeya, "bound_eval", _pair_swapped, {"bound-dominance"}),
    (kakeya, "kakeya_size_from_images", _plus_one, {"kakeya-construction"}),
]


def _failing_checks(capsys, workers):
    code = main(["all", "--m-max", "9", "--format", "json", "-j", workers])
    checks = json.loads(capsys.readouterr().out)["checks"]
    return code, {c["name"] for c in checks if not c["ok"]}, {c["name"] for c in checks}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("module, name, perturb, failing", FAULTS,
                         ids=[name for _, name, _, _ in FAULTS])
def test_perturbed_closed_form_fails_its_checks(module, name, perturb, failing, workers,
                                               monkeypatch, capsys):
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    code, failed, _ = _failing_checks(capsys, workers)
    assert (code, failed) == (1, failing)


def test_every_check_has_a_fault(capsys):
    code, failed, names = _failing_checks(capsys, "1")
    assert (code, failed) == (0, set())
    assert len(names) == 9
    assert set().union(*(failing for *_, failing in FAULTS)) == names
