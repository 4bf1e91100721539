"""orbicalc: exact finite-group invariants of classifying objects.

Multiplication-table groups, exact character tables, real irreducible
representation data, homomorphism groupoids, stable bundle and framing
bookkeeping, stable map groups via framed points, nerve homology of the
terminal model, localization of finite categories, and linear
transversality certificates.  All core arithmetic is exact.

Importing the package loads none of its modules: each public name below
is imported from its module on first access (PEP 562), so a command or a
script pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names it defines.
_MODULE_EXPORTS = {
    "groups": """FiniteGroup SubgroupClass are_isomorphic centralizer conjugacy_classes
        group_from_generators group_from_json quotient_group subgroup_as_group
        subgroup_classes trivial_group""",
    "characters": "CharacterTable character_table frobenius_schur",
    "realreps": """MatrixRep RealIrrep RealIrrepTable isotypic_decomposition
        min_faithful_tensor_power real_irreps restriction_multiplicities""",
    "homs": "HomClass enumerate_homs hom_classes pi1 rep_hom_classes",
    "bundles": """CoarseStableBundle Framing StableBundle aut_group framings involution
        restrict_bundle transport_framing""",
    "stablemaps": """MapGenerator MapGroupPresentation cross_check_abstract_enumeration
        enumerate_generators map_group""",
    "rstar": "build_quotient_category cell_census nerve_chain_complex rstar_homology",
    "snf": "ChainComplex homology smith_normal_form",
    "localize": """FiniteCategory check_right_multiplicative localize_hom
        verify_universal_property""",
    "transversality": "LinearChart derived_class_detector fixed_subspace isotypic_surjectivity",
    "corpus": "corpus_group corpus_names load_group",
    "errors": "InternalCheckError OrbicalcError ValidationError",
}
_EXPORTS = {name: mod for mod, names in _MODULE_EXPORTS.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
