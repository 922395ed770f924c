"""Spans around the calls into kakeyagf's public functions, from outside it.

`install_spans` replaces each traced function, in every kakeyagf module
that binds it, by a wrapper that records a span (name, start, end, parent)
and the counters named below; the library itself is not edited. Spans stay
in memory until `summary`, which reduces them to per-name call counts,
inclusive time and self time (a span minus the time its child spans
cover). In a worker pool only the parent's spans are kept: forked workers
inherit the wrappers but their spans end with them.

`install_mul_counter` only counts the calls of the scalar `Field.mul`.
The exp-table walk makes millions of them, so counting them costs about a
third of a table build; it runs in an execution of its own, which records
no spans, so that no span time holds the counting.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# span name -> (module, attribute); Field methods are patched on the class
FUNCTIONS = {
    "fiber.values_all": ("fiber", "values_all"),
    "fiber.image_sizes_all": ("fiber", "image_sizes_all"),
    "fiber.fiber_distribution": ("fiber", "fiber_distribution"),
    "fiber.image_values": ("fiber", "image_values"),
    "bluher.bruteforce": ("bluher", "bluher_bruteforce"),
    "gold.profile_case": ("gold", "profile_case"),
    "gold.half_gold_case": ("gold", "half_gold_case"),
    "quartic.fiber_formula_case": ("quartic", "fiber_formula_case"),
    "quartic.image_exact_case": ("quartic", "image_exact_case"),
    "quartic.sharpness_search": ("quartic", "sharpness_search"),
    "quartic.curve_point_count": ("quartic", "curve_point_count"),
    "kakeya.build": ("kakeya", "build_kakeya"),
    "kakeya.affine_check": ("kakeya", "is_gf2_affine"),
    "kakeya.verify": ("kakeya", "verify_kakeya"),
}

# the sweep function each check of `kakeyagf all` calls
STAGES = {
    "stage.bluher-agreement": ("bluher", "agreement_sweep"),
    "stage.gold-image-profile": ("gold", "image_profile_sweep"),
    "stage.half-gold-structure": ("gold", "half_gold_sweep"),
    "stage.quartic-fiber-formulas": ("quartic", "fiber_formula_sweep"),
    "stage.quartic-image-exact": ("quartic", "image_exact_sweep"),
    "stage.quartic-floor-sharpness": ("quartic", "sharpness_sweep"),
    "stage.kakeya-construction": ("kakeya", "construction_sweep"),
    "stage.bound-dominance": ("kakeya", "bound_dominance_rows"),
    "stage.floor-bound-integer-path": ("quartic", "floor_bound_consistency"),
}


def _slopes_swept(args, result) -> int:
    return args[0].q - 1


# span name -> (counter, amount taken from the call's arguments and result)
COUNTERS = {
    "field.mul_arrays": ("field.mul_arrays_elems", lambda args, r: int(r.size)),
    "fiber.image_sizes_all": ("fiber.image_sizes_all_slopes", lambda args, r: args[0].q),
    "bluher.bruteforce": ("bluher.bruteforce_slopes", _slopes_swept),
    "quartic.fiber_formula_case": ("quartic.sweep_slopes", _slopes_swept),
    "quartic.image_exact_case": ("quartic.sweep_slopes", _slopes_swept),
    "quartic.sharpness_search": ("quartic.sweep_slopes", _slopes_swept),
    "kakeya.build": ("kakeya.points", lambda args, r: r.distinct_point_count or 0),
    "kakeya.verify": ("kakeya.directions",
                      lambda args, r: (args[0].field.q ** args[0].n - 1) // (args[0].field.q - 1)),
}


FIELD_SPANS = ("field.init", "field.tables", "field.trace_table", "field.mul_arrays",
               "field.pow_all")
SPANS = FIELD_SPANS + tuple(FUNCTIONS)
COUNT_NAMES = tuple(sorted({c for c, _ in COUNTERS.values()} | {"parallel.items"}))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()
        counter = COUNTERS.get(name)
        if counter:
            self.counts[counter[0]] += counter[1](args, result)
        return result

    def summary(self) -> dict:
        """{"spans": {name: {calls, total_s, self_s}}, "counts": {...}, "coarse": [...]}."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        spans: dict[str, dict] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child
        # the spans of a second or more, with their parents, for the trace file
        coarse = [{"name": n, "start": s, "end": e, "parent": p}
                  for n, s, e, p in self.spans if e - s >= 1.0]
        return {"spans": spans, "counts": dict(self.counts), "coarse": coarse}


def _replace(modules, orig, wrapper) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapper)


def install_spans(tracer: Tracer) -> None:
    import kakeyagf
    from kakeyagf import bluher, cli, fiber, field, gold, kakeya, parallel, quartic

    modules = (kakeyagf, bluher, cli, fiber, field, gold, kakeya, parallel, quartic)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

    def traced(name, orig):
        # a named function, so that a worker pool can still pickle it by name
        @functools.wraps(orig)
        def function(*args, **kwargs):
            return tracer.call(name, orig, *args, **kwargs)
        return function

    for name, (mod, attr) in {**FUNCTIONS, **STAGES}.items():
        orig = getattr(by_name[mod], attr)
        _replace(modules, orig, traced(name, orig))

    cls = field.Field
    cls.__init__ = traced("field.init", cls.__init__)
    cls.mul_arrays = traced("field.mul_arrays", cls.mul_arrays)
    cls.pow_all = traced("field.pow_all", cls.pow_all)

    def first_call_only(name, orig, attr):
        # later calls return a cached table; only the build is a span
        @functools.wraps(orig)
        def method(self):
            if getattr(self, attr) is None:
                return tracer.call(name, orig, self)
            return orig(self)
        return method

    cls._tables = first_call_only("field.tables", cls._tables, "_exp")
    cls.trace_table = first_call_only("field.trace_table", cls.trace_table, "_trace")

    orig_map = parallel.parallel_map

    @functools.wraps(orig_map)
    def parallel_map(fn, items, workers=1):
        items = list(items)
        tracer.counts["parallel.items"] += len(items)
        if workers <= 1 or len(items) <= 1:
            # runs in this process, so each item can be timed
            fn = functools.partial(tracer.call, "parallel.item", fn)
        return tracer.call("parallel.map", orig_map, fn, items, workers)
    _replace(modules, orig_map, parallel_map)



def install_mul_counter(tracer: Tracer) -> None:
    from kakeyagf import field

    scalar_mul = field.Field.mul

    @functools.wraps(scalar_mul)
    def mul(self, a, b):
        tracer.counts["field.mul_calls"] += 1
        return scalar_mul(self, a, b)
    field.Field.mul = mul
