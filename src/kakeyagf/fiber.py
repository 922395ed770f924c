"""Function families on GF(2^m) and the statistics of x -> f(x) + t*x.

For a map f and slope t, the image set I_f(t) = {f(x) + t*x : x in F_q}
and the fiber histogram omega_t(k) = #{y : exactly k preimages} are the
raw material every closed-form count in this package is checked against.
The values f(x) + t*x come from `Field.slope_sweep`; per slope they are
reduced to a q-slot bitmap or count array, so a sweep over all t costs
O(q^2) time and O(q) space.
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


def values_all(field: Field, fn: FunctionSpec) -> np.ndarray:
    """f(x) for every x in encoding order."""
    if isinstance(fn, Quartic):
        return field.pow_all(4) ^ field.pow_all(3)
    if not 0 <= fn.i < field.m:
        raise ValueError(f"gold index {fn.i} outside 0..{field.m - 1}")
    return field.pow_all((1 << fn.i) + 1)


@dataclass
class FiberDistribution:
    """Histogram of preimage multiplicities under x -> f(x) + t*x."""

    t: int
    omega: dict[int, int]

    def image_size(self) -> int:
        return sum(c for k, c in self.omega.items() if k >= 1)

    def nonzero(self) -> dict[int, int]:
        """omega with zero-count entries dropped, for comparisons."""
        return {k: c for k, c in self.omega.items() if c}


def _g_values(field: Field, fn: FunctionSpec, t: int) -> np.ndarray:
    """f(x) + t*x for every x, in the kernel's order."""
    (_, vals), = field.slope_sweep(values_all(field, fn), [t])
    return vals


def image_values(field: Field, fn: FunctionSpec, t: int) -> list[int]:
    """Sorted values of x -> f(x) + t*x."""
    seen = np.zeros(field.q, dtype=bool)
    seen[_g_values(field, fn, t)] = True
    return np.flatnonzero(seen).tolist()


def fiber_distribution(field: Field, fn: FunctionSpec, t: int) -> FiberDistribution:
    """Exact histogram of preimage counts over all y, k = 0 included."""
    counts = np.bincount(_g_values(field, fn, t), minlength=field.q)
    hist = np.bincount(counts)
    omega = {int(k): int(c) for k, c in enumerate(hist) if c}
    return FiberDistribution(t=t, omega=omega)


def image_sizes_all(field: Field, fn: FunctionSpec) -> np.ndarray:
    """|I_f(t)| for every t: one O(q) bitmap pass per slope."""
    q = field.q
    sizes = np.empty(q, dtype=np.int64)
    seen = np.empty(q, dtype=bool)
    for t, vals in field.slope_sweep(values_all(field, fn), range(q)):
        seen[:] = False
        seen[vals] = True
        sizes[t] = np.count_nonzero(seen)
    return sizes
