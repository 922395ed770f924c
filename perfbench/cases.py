"""The program calls each workload makes; runs inside the timed child.

Independent cases go through `kakeyagf.parallel.parallel_map`, looked up
at call time so that a traced run sees it. Case functions live at module
level because a worker pool pickles them by name.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io

from kakeyagf import cli, parallel
from kakeyagf.fiber import Gold, Quartic, fiber_distribution, image_values
from kakeyagf.field import make_field
from kakeyagf.kakeya import build_kakeya, verify_kakeya
from kakeyagf.quartic import curve_point_count


def verify_all(inputs: dict, workers: int) -> dict:
    argv = ["all", "--format", "json", "--m-max", str(inputs["m_max"]),
            "--seed", str(inputs["seed"]), "-j", str(workers)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"exit": code, "report": buf.getvalue()}


def probe_field(spec: dict) -> dict:
    field = make_field(spec["m"], spec["modulus"])
    out = {"m": field.m, "modulus": field.modulus,
           "products": field.mul_arrays(spec["a"], spec["b"]),
           "trace": field.trace_table().astype("int8")}
    queries = []
    for t in spec["slopes"]:
        query = {"t": t, "omega": fiber_distribution(field, Quartic(), t).omega}
        if field.m % 2:
            count = curve_point_count(field, t)
            query["v"], query["delta"] = count.v, count.delta
        else:
            query["gold_image"] = image_values(field, Gold(field.m // 2), t)
        queries.append(query)
    out["queries"] = queries
    return out


def big_field_probe(inputs: dict, workers: int) -> dict:
    return {"fields": parallel.parallel_map(probe_field, inputs["fields"], workers)}


def kakeya_case(spec: dict) -> dict:
    m, n = spec["m"], spec["n"]
    field = make_field(m)
    ks = build_kakeya(field, n, Quartic() if m % 2 else Gold(m // 2))
    pos = verify_kakeya(ks)
    neg = verify_kakeya(dataclasses.replace(ks, points=spec["neg_points"]))
    return {"modulus": field.modulus, "size": ks.size, "points": ks.points,
            "pos_ok": pos.ok, "pos_missing": pos.missing,
            "neg_ok": neg.ok, "neg_missing": neg.missing}


def kakeya_lines(inputs: dict, workers: int) -> dict:
    return {"cases": parallel.parallel_map(kakeya_case, inputs["cases"], workers)}


EXECUTE = {"verify-all": verify_all, "big-field-probe": big_field_probe,
           "kakeya-lines": kakeya_lines}
