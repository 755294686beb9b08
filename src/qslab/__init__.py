"""Exact verification toolkit for semidirect 2-group actions on product curves.

The package namespace is lazy (PEP 562): ``import qslab`` loads no
submodule, and each public name imports its module on first access.
"""

import importlib

__version__ = "0.9.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "build_g32_27": "builtin",
    "CharacterTable": "characters",
    "CharacterTableError": "characters",
    "ClassFunction": "characters",
    "ExactScalar": "characters",
    "align_to_reference": "characters",
    "compute_character_table": "characters",
    "decompose": "characters",
    "inner_product": "characters",
    "load_reference_table": "characters",
    "ConjugacyClass": "groups",
    "FiniteGroup": "groups",
    "GroupElement": "groups",
    "GroupSpec": "groups",
    "GroupSpecError": "groups",
    "GroupTooLargeError": "groups",
    "Subgroup": "groups",
    "build_group": "groups",
    "SphericalSystem": "ramification",
    "SphericalSystemError": "ramification",
    "canonical_character": "ramification",
    "curve_genus": "ramification",
    "fiber_orbit_structure": "ramification",
    "fixed_point_count": "ramification",
    "is_disjoint": "ramification",
    "quotient_genus": "ramification",
    "stabilizer_set": "ramification",
    "validate_spherical": "ramification",
    "search_all_pairs": "search",
    "render_report": "verify",
    "verify_paper": "verify",
}

# Submodules that an eager ``import qslab`` used to bind as attributes.
_SUBMODULES = ("alg", "builtin", "characters", "groups", "ramification", "search", "verify")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # The result is looked up afresh on each access and never stored here:
    # a value cached in this namespace would outlive a later rebinding of
    # the name in its defining module.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
