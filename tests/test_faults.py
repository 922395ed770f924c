"""Fault table: one closed form perturbed at a time must show as FAIL rows of `all`.

Each row patches one closed form where its module looks it up, runs
`all --m-max 9` in this process at one and two workers (forked workers
inherit the patch), and pins the exact set of checks that fail. Together
the rows make every one of the nine checks fail at least once, so none of
them compares a formula only with itself.

Two more faults sit outside the closed forms. A corrupted antilog table
is a library fault that `all` raises, not a FAIL row, even where the
quartic's class histograms were kept from the intact tables. And with every
closed form patched to raise, the brute-force routes still run to the
same results, so none of them goes through a formula.
"""

import dataclasses
import json

import pytest

import kakeyagf
from kakeyagf import bluher, cli, fiber, gold, kakeya, quartic
from kakeyagf.cli import main
from kakeyagf.field import Field, make_field
from kakeyagf.fiber import Gold, Quartic


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


def _nonzero_size_plus_one(fn):
    def perturbed(m, i):
        prof = fn(m, i)
        return {**prof, "size_at_nonzero": prof["size_at_nonzero"] + 1}
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


def _swapped_antilog(field, k):
    """Copies of the field's (exp2, log) with g^k and g^(k+1) swapped.

    exp and log stay inverse to each other, but the product they define is
    no longer the field's.
    """
    units = field.q - 1
    exp2 = field._tables()[1].copy()
    exp2[[k, k + 1, units + k, units + k + 1]] = exp2[[k + 1, k, units + k + 1, units + k]]
    log = field.log_table().copy()
    log[exp2[[k, k + 1]]] = [k, k + 1]
    return exp2, log


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("m, k", [(5, 7), (7, 5), (7, 60), (8, 100), (9, 3)])
def test_swapped_antilog_entries_are_a_library_fault(m, k, workers, monkeypatch, capsys):
    # patched on the shared instance, and undone after
    field = make_field(m)
    exp2, log = _swapped_antilog(field, k)
    monkeypatch.setattr(field, "_exp2", exp2)
    monkeypatch.setattr(field, "_exp", exp2[:field.q - 1])
    monkeypatch.setattr(field, "_log", log)
    with pytest.raises(ArithmeticError,
                       match=r"^squaring is not GF\(2\)-additive in the field tables$"):
        main(["all", "--m-max", "9", "--format", "json", "-j", workers])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("case", [quartic.fiber_formula_case, quartic.image_exact_case],
                         ids=["fiber_formula_case", "image_exact_case"])
def test_kept_histograms_are_not_read_from_corrupted_tables(case):
    # the class histograms and curve counts of intact tables are kept; after
    # the swap of the test above, each case must raise, not read them
    field = Field(7)
    assert case(field)["ok"]
    exp2, log = _swapped_antilog(field, 5)
    field._exp2, field._exp, field._log = exp2, exp2[:field.q - 1], log
    with pytest.raises(ArithmeticError,
                       match=r"^squaring is not GF\(2\)-additive in the field tables$"):
        case(field)


def test_swapped_tables_rebuild_every_kept_array():
    # with every derived array kept from the intact tables and nothing reset
    # by hand, the classes and both quartic cases are built again from the
    # swapped tables and raise
    field = Field(7)
    assert quartic.fiber_formula_case(field)["ok"] and quartic.image_exact_case(field)["ok"]
    exp2, log = _swapped_antilog(field, 5)
    field._exp2, field._exp, field._log = exp2, exp2[:field.q - 1], log
    for fn in (Field.frobenius_classes, quartic.fiber_formula_case, quartic.image_exact_case):
        with pytest.raises(ArithmeticError,
                           match=r"^squaring is not GF\(2\)-additive in the field tables$"):
            fn(field)


CLOSED_FORMS = [
    (bluher, "bluher_formula"), (gold, "gold_profile"), (quartic, "omega0_distribution"),
    (quartic, "omega1_formula"), (quartic, "omega3_formula"), (quartic, "_size_from_count"),
    (quartic, "quartic_floor_bound"), (kakeya, "kakeya_size_from_images"),
    (kakeya, "bound_eval"),
]


class _ClosedFormCalled(Exception):
    pass


def _brute_force_routes(kakeya_sets) -> list:
    out = []
    for m in range(2, 10):
        field = make_field(m)
        fns = [Gold(i) for i in range(1, m)] + [Quartic()]
        out.append([fiber.image_sizes_all(field, fn).tolist() for fn in fns])
        out.append([(fiber.fiber_distribution(field, fn, t),
                     fiber.image_values(field, fn, t).tolist())
                    for fn in fns for t in (0, 1, field.q - 1)])
        out.append([bluher.bluher_bruteforce(field, i) for i in range(m)])
        out.append(quartic.class_histograms(field).tolist())
        if m % 2 == 0:
            out.append(gold.verify_half_gold_structure(field))
    out.append([kakeya.verify_kakeya(ks) for ks in kakeya_sets])
    # each built set is followed by its copy missing a point, whose blocks are the same
    blocks = [kakeya.kakeya_blocks(ks.field, ks.n, ks.fn) for ks in kakeya_sets[::2]]
    out.append([(points.tolist(), count) for points, count in blocks])
    return out


def test_brute_force_routes_call_no_closed_form(monkeypatch):
    kakeya_sets = []
    for m in (2, 3, 4):
        fn = Quartic() if m % 2 else Gold(m // 2)
        for n in (2, 3):
            ks = kakeya.build_kakeya(make_field(m), n, fn)
            # a set missing one point, so the verifier has a direction to find
            kakeya_sets += [ks, dataclasses.replace(ks, points=ks.points[1:])]
    expected = _brute_force_routes(kakeya_sets)
    assert not all(r.ok for r in expected[-2])
    assert expected[-1] == [(ks.points.tolist(), ks.size) for ks in kakeya_sets[::2]]

    def raising(*args, **kwargs):
        raise _ClosedFormCalled
    modules = (kakeyagf, bluher, cli, fiber, gold, kakeya, quartic)
    for module, name in CLOSED_FORMS:
        orig = getattr(module, name)
        for binder in modules:
            for key, value in list(vars(binder).items()):
                if value is orig:
                    monkeypatch.setattr(binder, key, raising)

    with pytest.raises(_ClosedFormCalled):   # the formula side of each check is patched
        quartic.image_exact_case(make_field(5))
    # histograms kept from the first run would hide a closed form in their route
    for m in range(2, 10):
        monkeypatch.setattr(make_field(m), "_derived", {})
    assert _brute_force_routes(kakeya_sets) == expected
