"""Function families on GF(2^m) and the statistics of x -> f(x) + t*x.

For a map f and slope t, the image set I_f(t) = {f(x) + t*x : x in F_q}
and the fiber histogram omega_t(k) = #{y : exactly k preimages} are the
raw material every closed-form count in this package is checked against.
Each map is a sum of powers of x, and `exponents` names them once. For
one slope, `image_values` and `fiber_distribution` have `Field.power_sum`
build f(x) + t*x in the kernel's order in one buffer; for many,
`Field.slope_sweep` adds t*x to the map it built without a slope. Per
slope the values are reduced to a q-slot bitmap or count array, so a
single slope costs O(q) time and space. Both families sum powers of x
with coefficients in GF(2), so every slope of a Frobenius class
{t, t^2, t^4, ...} has the same image size (`Field.frobenius_classes`
checks the squaring this rests on), and the sizes of all t cost one O(q)
pass per class: about q^2/m in all. `values_all` gives f in encoding
order, for the callers that index it by x, by one scatter of the map
(`Field.encoding_order`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import Field


@dataclass(frozen=True)
class Gold:
    """Power map x -> x^(2^i + 1)."""

    i: int


@dataclass(frozen=True)
class Quartic:
    """The fixed map x -> x^4 + x^3."""


FunctionSpec = Gold | Quartic


def function_label(fn: FunctionSpec) -> str:
    return f"gold:{fn.i}" if isinstance(fn, Gold) else "quartic"


def exponents(field: Field, fn: FunctionSpec) -> tuple[int, ...]:
    """The exponents whose powers sum to f: (4, 3) or (2^i + 1,)."""
    if isinstance(fn, Quartic):
        return 4, 3
    if not 0 <= fn.i < field.m:
        raise ValueError(f"gold index {fn.i} outside 0..{field.m - 1}")
    return (1 << fn.i) + 1,


def values_all(field: Field, fn: FunctionSpec) -> np.ndarray:
    """f(x) for every x in encoding order: one map, one scatter."""
    return field.encoding_order(field.power_sum(exponents(field, fn)))


def slope_values(field: Field, fn: FunctionSpec, ts):
    """`Field.slope_sweep` of f, whose map is built in the kernel's order."""
    return field.slope_sweep(field.power_sum(exponents(field, fn)), ts)


@dataclass
class FiberDistribution:
    """Histogram of preimage multiplicities under x -> f(x) + t*x."""

    omega: dict[int, int]

    def image_size(self) -> int:
        return sum(c for k, c in self.omega.items() if k >= 1)

    def nonzero(self) -> dict[int, int]:
        """omega with zero-count entries dropped, for comparisons."""
        return {k: c for k, c in self.omega.items() if c}


def image_sets(field: Field, fn: FunctionSpec, ts):
    """Yield (t, sorted values of x -> f(x) + t*x) for each t in ts, from one sweep."""
    seen = np.empty(field.q, dtype=bool)
    for t, vals in slope_values(field, fn, ts):
        seen[:] = False
        seen[vals] = True
        yield t, np.flatnonzero(seen)


def image_values(field: Field, fn: FunctionSpec, t: int) -> np.ndarray:
    """Sorted values of x -> f(x) + t*x, as an int64 array."""
    seen = np.zeros(field.q, dtype=bool)
    seen[field.power_sum(exponents(field, fn), slope=t)] = True
    return np.flatnonzero(seen)


def fiber_distribution(field: Field, fn: FunctionSpec, t: int) -> FiberDistribution:
    """Exact histogram of preimage counts over all y, k = 0 included."""
    counts = np.bincount(field.power_sum(exponents(field, fn), slope=t), minlength=field.q)
    hist = np.bincount(counts)
    omega = {int(k): int(c) for k, c in enumerate(hist) if c}
    return FiberDistribution(omega)


def image_sizes_all(field: Field, fn: FunctionSpec) -> np.ndarray:
    """|I_f(t)| for every t: one O(q) bitmap pass per Frobenius class."""
    q = field.q
    rep = field.frobenius_classes()
    sizes = np.empty(q, dtype=np.int64)
    seen = np.empty(q, dtype=bool)
    for t, vals in slope_values(field, fn, np.flatnonzero(rep == np.arange(q))):
        seen[:] = False
        seen[vals] = True
        sizes[t] = np.count_nonzero(seen)
    return sizes[rep]
