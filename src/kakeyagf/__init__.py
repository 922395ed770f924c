"""Kakeya sets over binary fields: constructions, exact counts, verification."""

from .bluher import BluherCount, bluher_bruteforce, bluher_formula
from .field import Field, is_irreducible, make_field, smallest_irreducible
from .fiber import (FiberDistribution, FunctionSpec, Gold, Quartic, fiber_distribution,
                    image_sizes_all, image_values)
from .gold import GoldImageProfile, HalfGoldStructure, gold_profile, verify_half_gold_structure
from .kakeya import (BoundReport, KakeyaSet, VerificationResult, bound_eval,
                     bound_report, build_kakeya, kakeya_size_from_images, verify_kakeya)
from .quartic import (CurvePointCount, QuarticImageRecord, SharpnessResult,
                      curve_point_count, image_record, omega0_distribution,
                      omega1_formula, omega3_formula, quartic_floor_bound, sharpness_search)

__version__ = "0.1.0"

__all__ = [
    "BluherCount", "BoundReport", "CurvePointCount", "FiberDistribution", "Field",
    "FunctionSpec", "Gold", "GoldImageProfile", "HalfGoldStructure", "KakeyaSet",
    "Quartic", "QuarticImageRecord", "SharpnessResult",
    "VerificationResult", "bluher_bruteforce", "bluher_formula", "bound_eval",
    "bound_report", "build_kakeya", "curve_point_count",
    "fiber_distribution", "gold_profile", "image_record", "image_sizes_all", "image_values",
    "is_irreducible", "kakeya_size_from_images", "make_field", "omega0_distribution",
    "omega1_formula", "omega3_formula", "quartic_floor_bound",
    "sharpness_search", "smallest_irreducible",
    "verify_half_gold_structure", "verify_kakeya",
]
