"""Kakeya sets over binary fields: constructions, exact counts, verification."""

from .bluher import BluherCount, bluher_bruteforce, bluher_formula
from .field import Field, is_irreducible, make_field, smallest_irreducible
from .fiber import (FiberDistribution, FunctionSpec, Gold, Quartic, SparseExponentSum,
                    evaluate, fiber_distribution, image_sizes_all, image_values)
from .gold import (GoldImageProfile, HalfGoldStructure, gold_profile,
                   scale_invariance_check, verify_half_gold_structure)
from .kakeya import (BoundReport, KakeyaSet, VerificationResult, bound_eval,
                     bound_report, build_kakeya, canonical_directions,
                     kakeya_size_from_images, verify_kakeya)
from .quartic import (CurvePointCount, QuarticImageRecord, SharpnessResult,
                      curve_point_count, omega0_distribution, omega1_formula,
                      omega3_formula, quartic_floor_bound, quartic_image_exact,
                      sharpness_search)

__version__ = "0.1.0"

__all__ = [
    "BluherCount", "BoundReport", "CurvePointCount", "FiberDistribution", "Field",
    "FunctionSpec", "Gold", "GoldImageProfile", "HalfGoldStructure", "KakeyaSet",
    "Quartic", "QuarticImageRecord", "SharpnessResult", "SparseExponentSum",
    "VerificationResult", "bluher_bruteforce", "bluher_formula", "bound_eval",
    "bound_report", "build_kakeya", "canonical_directions", "curve_point_count",
    "evaluate", "fiber_distribution", "gold_profile", "image_sizes_all", "image_values",
    "is_irreducible", "kakeya_size_from_images", "make_field", "omega0_distribution",
    "omega1_formula", "omega3_formula", "quartic_floor_bound", "quartic_image_exact",
    "scale_invariance_check", "sharpness_search", "smallest_irreducible",
    "verify_half_gold_structure", "verify_kakeya",
]
