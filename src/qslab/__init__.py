"""Exact verification toolkit for semidirect 2-group actions on product curves."""

from .builtin import build_g32_27
from .characters import (
    CharacterTable,
    CharacterTableError,
    ClassFunction,
    ExactScalar,
    align_to_reference,
    compute_character_table,
    decompose,
    inner_product,
    load_reference_table,
)
from .groups import (
    ConjugacyClass,
    FiniteGroup,
    GroupElement,
    GroupSpec,
    GroupSpecError,
    GroupTooLargeError,
    Subgroup,
    build_group,
)
from .ramification import (
    SphericalSystem,
    SphericalSystemError,
    canonical_character,
    curve_genus,
    fiber_orbit_structure,
    fixed_point_count,
    is_disjoint,
    quotient_genus,
    stabilizer_set,
    validate_spherical,
)
from .search import search_all_pairs
from .verify import render_report, verify_paper

__all__ = [
    "CharacterTable",
    "CharacterTableError",
    "ClassFunction",
    "ConjugacyClass",
    "ExactScalar",
    "FiniteGroup",
    "GroupElement",
    "GroupSpec",
    "GroupSpecError",
    "GroupTooLargeError",
    "SphericalSystem",
    "SphericalSystemError",
    "Subgroup",
    "align_to_reference",
    "build_g32_27",
    "build_group",
    "canonical_character",
    "compute_character_table",
    "curve_genus",
    "decompose",
    "fiber_orbit_structure",
    "fixed_point_count",
    "inner_product",
    "is_disjoint",
    "load_reference_table",
    "quotient_genus",
    "render_report",
    "search_all_pairs",
    "stabilizer_set",
    "validate_spherical",
    "verify_paper",
]

__version__ = "0.3.0"
