"""Command-line front end: sweeps, reports and the full verification run.

Pure orchestration; all mathematics lives in the library modules. Output
is deterministic for a fixed configuration and seed regardless of the
worker count: `all` runs its seven sweeps as the seven cases of one
`run_cases` call and `verify-bluher` its (m, i) cases, costliest first
with more than one worker and returned in case order, and every
collection is emitted sorted. JSON is the machine format of record; csv
and text are renderings of the same report object. Every verb takes
`--format`; only `all` and `verify-bluher` take `-j`. Every verdict is
exhaustive, so no sweep takes a seed; `all` still takes `--seed` and
echoes it in its report.

Exit codes: 0 all verdicts pass, 1 any verification failure, 2 usage
error. argparse checks each option on its own through its `type=`; a verb
checks only the rules between its inputs and the sweep budget, and
`bounds` and `kakeya` refuse the inputs whose bounds overflow a float. So exit 2
means bad input and nothing else; any other exception raised inside the
library is a fault and propagates.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import bluher, gold, kakeya, quartic
from .field import MAX_DEGREE, make_field
from .fiber import Gold, Quartic, fiber_distribution
from .parallel import run_cases

USAGE_ERROR = 2
# a brute-force sweep of every slope's image is one O(q) pass per Frobenius
# class, about q^2/m in all and near 4x per degree: on two cores
# `gold --m 18 --i 1 --verify` takes 12-13 s and `quartic --m 18` 21-22 s, so
# m = 20 would run for five minutes or more
SWEEP_MAX_M = 18


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_hex(s: str) -> int:
    try:
        return int(s, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hex value: {s!r}")


def _int_in(lo: int, hi: int | None = None):
    def parse(s: str) -> int:
        v = int(s)
        if v < lo or hi is not None and v > hi:
            raise argparse.ArgumentTypeError(f"must be >= {lo}" if hi is None
                                             else f"must be in {lo}..{hi}")
        return v
    parse.__name__ = "int"  # a non-integer reads "invalid int value", as with type=int
    return parse


def _parse_range(s: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, s.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a range like 2..6, got {s!r}")
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"need 1 <= lo <= hi, got {s!r}")
    return lo, hi


def _parse_function(s: str):
    if s == "quartic":
        return Quartic()
    if s.startswith("gold:"):
        try:
            return Gold(int(s.split(":", 1)[1]))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"unknown function {s!r}; use gold:I or quartic")


def _field_for(args: argparse.Namespace):
    try:
        return make_field(args.m, args.modulus)
    except ValueError as exc:  # argparse checked --m, so --modulus is bad
        raise UsageError(str(exc))


def _check_sweep_budget(args: argparse.Namespace, cheaper: str) -> None:
    if args.m > SWEEP_MAX_M:
        raise UsageError(f"{args.verb} --m {args.m} sweeps every slope, which is out of reach "
                         f"above m = {SWEEP_MAX_M}; {cheaper}")


# ----------------------------------------------------------------------
# rendering

def _text_table(rows: list[dict]) -> str:
    if not rows:
        return ""
    cols = list(rows[0].keys())
    cells = [[str(r[c]) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[k]) for row in cells)) for k, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _emit(payload: dict, rows: list[dict] | None, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        out_rows = rows if rows is not None else [payload]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(out_rows[0].keys()))
        writer.writeheader()
        writer.writerows(out_rows)
        print(buf.getvalue(), end="")
    else:
        if rows is not None:
            print(_text_table(rows))
            extras = {k: v for k, v in payload.items() if not isinstance(v, list)}
            if extras:
                print(" ".join(f"{k}={v}" for k, v in extras.items()))
        else:
            for k, v in payload.items():
                print(f"{k}={v}")


# ----------------------------------------------------------------------
# verbs

def _run_verify_bluher(args: argparse.Namespace) -> int:
    rows = run_cases(bluher.agreement_cases(args.m_max), args.parallelism)
    ok = all(r["agree"] for r in rows)
    _emit({"rows": rows, "ok": ok}, rows, args.format)
    return 0 if ok else 1


def _run_gold(args: argparse.Namespace) -> int:
    if not 1 <= args.i < args.m:
        raise UsageError(f"--i must satisfy 1 <= i < m = {args.m}")
    if args.verify:
        _check_sweep_budget(args, "drop --verify for the closed form alone")
    field = _field_for(args)
    payload = gold.gold_profile(args.m, args.i)
    ok = True
    if args.verify:
        case = gold.profile_case(field, args.i)
        payload["profile_matches_bruteforce"] = case["ok"]
        ok = case["ok"]
        if field.m % 2 == 0 and args.i == field.m // 2:
            half = gold.half_gold_case(field)
            payload.update({k: half[k] for k in ("image_is_subfield", "injective_on_trace_one",
                                                 "two_to_one_elsewhere", "image_size_at_one")})
            payload["scale_invariant"] = case["scale_invariant"]
            ok = ok and half["ok"] and payload["scale_invariant"]
    _emit(payload, None, args.format)
    return 0 if ok else 1


def _run_quartic(args: argparse.Namespace) -> int:
    if args.t is None:
        _check_sweep_budget(args, "query one slope with --t")
    field = _field_for(args)
    m = field.m
    if args.t is not None:
        t = args.t
        if not 0 <= t < field.q:
            raise UsageError(f"t={t:x} outside the field")
        dist = fiber_distribution(field, Quartic(), t)
        payload = {"m": m, "q": field.q, "t": f"{t:x}",
                   "tr_t": field.trace_abs(t), "omega": dist.omega,
                   "image_size": dist.image_size()}
        ok = True
        if m % 2 == 1 and t != 0:
            c = quartic.curve_point_count(field, t)
            size = quartic._size_from_count(field.q, c.v, c.delta)
            bound = quartic.quartic_floor_bound(m)
            ok = size == dist.image_size()
            payload.update({"v": c.v, "delta": c.delta, "image_size_exact": size,
                            "floor_bound": bound, "sharp": size == bound,
                            "formula_matches_bruteforce": ok})
        _emit(payload, None, args.format)
        return 0 if ok else 1
    payload = {"m": m, "q": field.q}
    fib = quartic.fiber_formula_case(field)
    payload["fiber_formulas_ok"] = fib["ok"]
    ok = fib["ok"]
    if m % 2 == 1:
        case = quartic.image_exact_case(field)
        payload["image_exact_ok"] = case["match_ok"]
        payload["hasse_ok"] = case["hasse_ok"]
        payload["floor_bound"] = quartic.quartic_floor_bound(m)
        ok = ok and case["ok"]
    _emit(payload, None, args.format)
    return 0 if ok else 1


def _run_sharpness(args: argparse.Namespace) -> int:
    if args.m % 2 == 0:
        raise UsageError("m must be odd")
    field = _field_for(args)
    row = quartic.sharpness_search(field)
    payload = {"m": field.m, "q": field.q, "bound": row["bound"],
               "max_size": row["max_size"], "sharp": row["ok"],
               "witnesses": [f"{t:x}" for t in row["witnesses"]]}
    _emit(payload, None, args.format)
    return 0 if row["ok"] else 1


def _run_kakeya(args: argparse.Namespace) -> int:
    _check_sweep_budget(args, "bounds compares the bounds at any m")
    field = _field_for(args)
    if isinstance(args.f, Gold) and not 0 <= args.f.i < field.m:
        raise UsageError(f"gold index {args.f.i} outside 0..{field.m - 1}")
    try:  # before the build, whose block total can take minutes at such n
        kakeya.bound_eval(field.q, args.n)
    except OverflowError:
        raise UsageError(f"--m {args.m} with --n {args.n} gives bounds past the float range")
    try:  # only the line check uses the points
        row = kakeya.check_construction(field, args.n, args.f, materialize=args.check)
    except kakeya.AffineMapError as exc:
        raise UsageError(str(exc))
    if row["block_count"] not in (None, row["size"]):
        print(f"block enumeration counts {row['block_count']} tuples, the closed form "
              f"{row['size']}", file=sys.stderr)
    if row["skipped"]:
        print(f"{row['skipped']}; line check skipped", file=sys.stderr)
    _emit({k: row[k] for k in ("q", "n", "f", "size", "bound_new", "bound_klss",
                               "kakeya_verified")}, None, args.format)
    return 0 if row["ok"] else 1


def _run_bounds(args: argparse.Namespace) -> int:
    rows = []
    for m in range(args.m_range[0], args.m_range[1] + 1):
        q = 1 << m
        for n in range(args.n_range[0], args.n_range[1] + 1):
            try:
                new, old = kakeya.bound_eval(q, n)
            except OverflowError:
                raise UsageError(
                    f"--m-range {args.m_range[0]}..{args.m_range[1]} with --n-range "
                    f"{args.n_range[0]}..{args.n_range[1]} reaches q = 2^{m}, n = {n}, "
                    f"whose bounds are past the float range")
            rows.append({"q": q, "n": n, "bound_new": new, "bound_klss": old,
                         "new_below_klss": new < old})
    _emit({"rows": rows}, rows, args.format)
    return 0


def _stage_rows(m_max: int, workers: int) -> list[tuple[str, list]]:
    """Each check of `all` with its rows, in report order.

    The seven sweeps are the seven cases of one `run_cases` call, each
    costed by the sum of its own cases' estimates. One worker runs them in
    turn in this process. More fork one set of workers, which inherit the
    sweeps, claim them costliest first and pickle each sweep's rows into a
    temporary file of their own. The two closed-form checks run here.
    """
    swept = [
        ("bluher-agreement", bluher.agreement_sweep, bluher.agreement_cases, min(12, m_max)),
        ("gold-image-profile", gold.image_profile_sweep, gold.profile_cases, m_max),
        ("half-gold-structure", gold.half_gold_sweep, gold.half_gold_cases, m_max),
        ("quartic-fiber-formulas", quartic.fiber_formula_sweep, quartic.fiber_formula_cases,
         m_max),
        ("quartic-image-exact", quartic.image_exact_sweep, quartic.image_exact_cases, m_max),
        ("quartic-floor-sharpness", quartic.sharpness_sweep, quartic.sharpness_cases, m_max),
        ("kakeya-construction", kakeya.construction_sweep, kakeya.construction_cases, m_max),
    ]
    rows = run_cases([(sum(cost for cost, _, _ in cases(top)), sweep, (top,))
                      for _, sweep, cases, top in swept], workers)
    return [(name, r) for (name, *_), r in zip(swept, rows)] + [
        ("bound-dominance", kakeya.bound_dominance_rows()),
        ("floor-bound-integer-path", quartic.floor_bound_consistency())]


def _run_all(args: argparse.Namespace) -> int:
    m_max = args.m_max
    checks = []
    for name, rows in _stage_rows(m_max, args.parallelism):
        ok = all(r["agree" if name == "bluher-agreement" else "ok"] for r in rows)
        checks.append({"name": name, "ok": ok, "cases": len(rows)})
    ok = all(c["ok"] for c in checks)
    payload = {"m_max": m_max, "seed": args.seed, "checks": checks, "ok": ok}
    if args.format == "text":
        for c in checks:
            print(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']} ({c['cases']} cases)")
        print("all checks passed" if ok else "FAILURES present")
    else:
        _emit(payload, checks, args.format)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")

    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--parallelism", "-j", type=_int_in(1), default=1)

    field_opts = argparse.ArgumentParser(add_help=False)
    field_opts.add_argument("--modulus", type=_parse_hex, default=None,
                            help="hex-encoded irreducible modulus override")
    field_opts.add_argument("--m", type=_int_in(1, MAX_DEGREE), required=True)

    parser = _Parser(
        prog="kakeyagf",
        description="Kakeya sets over binary fields: constructions, exact counts, verification")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify-bluher", parents=[common, workers],
                       help="no-root counts: closed form vs brute force")
    p.set_defaults(handler=_run_verify_bluher)
    p.add_argument("--m-max", type=_int_in(2, MAX_DEGREE), default=12)

    p = sub.add_parser("gold", parents=[common, field_opts],
                       help="image-set profile of x^(2^i+1)")
    p.set_defaults(handler=_run_gold)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("quartic", parents=[common, field_opts],
                       help="fiber and image statistics of x^4+x^3+tx")
    p.set_defaults(handler=_run_quartic)
    p.add_argument("--t", type=_parse_hex, default=None, help="slope, hex")

    p = sub.add_parser("sharpness", parents=[common, field_opts],
                       help="slopes attaining the image-size cap (odd m)")
    p.set_defaults(handler=_run_sharpness)

    p = sub.add_parser("kakeya", parents=[common, field_opts],
                       help="build a Kakeya set and compare bounds")
    p.set_defaults(handler=_run_kakeya)
    p.add_argument("--n", type=_int_in(1), required=True)
    p.add_argument("--f", type=_parse_function, required=True, help="gold:I or quartic")
    p.add_argument("--check", action="store_true",
                   help="exhaustively verify the line-in-every-direction property")

    p = sub.add_parser("bounds", parents=[common], help="bound comparison table")
    p.set_defaults(handler=_run_bounds)
    p.add_argument("--m-range", type=_parse_range, required=True, help="like 3..7")
    p.add_argument("--n-range", type=_parse_range, required=True, help="like 1..6")

    p = sub.add_parser("all", parents=[common, workers], help="full verification sweep")
    p.set_defaults(handler=_run_all)
    p.add_argument("--m-max", type=_int_in(2, 13), default=13)
    p.add_argument("--seed", type=int, default=0, help="echoed in the report; selects nothing")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
