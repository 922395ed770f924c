"""Kakeya sets over binary fields: constructions, exact counts, verification."""

import os
import sys

if "numpy" not in sys.modules:
    # Nothing here calls BLAS, yet OpenBLAS starts a thread per extra core as numpy
    # loads, and each busy-waits about 0.1 s for work before it sleeps, on cores the
    # checks could use. 4 (2^4 cycles, its least) lets them sleep at once; results
    # and thread counts do not change, and a value set beforehand is kept.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .bluher import bluher_bruteforce, bluher_formula
from .field import Field, is_irreducible, make_field, smallest_irreducible
from .fiber import (FiberDistribution, FunctionSpec, Gold, Quartic, fiber_distribution,
                    image_sizes_all, image_values)
from .gold import gold_profile, verify_half_gold_structure
from .kakeya import (KakeyaSet, VerificationResult, bound_eval, build_kakeya,
                     check_construction, kakeya_size_from_images, verify_kakeya)
from .quartic import (CurvePointCount, curve_point_count, omega0_distribution, omega1_formula,
                      omega3_formula, quartic_floor_bound, sharpness_search)

__version__ = "0.1.0"

__all__ = [
    "CurvePointCount", "FiberDistribution", "Field",
    "FunctionSpec", "Gold", "KakeyaSet", "Quartic",
    "VerificationResult", "bluher_bruteforce", "bluher_formula", "bound_eval",
    "build_kakeya", "check_construction", "curve_point_count",
    "fiber_distribution", "gold_profile", "image_sizes_all", "image_values",
    "is_irreducible", "kakeya_size_from_images", "make_field", "omega0_distribution",
    "omega1_formula", "omega3_formula", "quartic_floor_bound",
    "sharpness_search", "smallest_irreducible",
    "verify_half_gold_structure", "verify_kakeya",
]
