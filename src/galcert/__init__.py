"""Exact splitting fields for small rational polynomials, with a fully
certified subgroup/subfield correspondence."""

from .arith import ComplexBall, Dyadic, Rational, ball_disjoint
from .cli import AnalysisConfig, analyze, parse_poly
from .correspondence import (
    CorrespondenceReport,
    Subfield,
    averaging_check,
    correspondence_lattice,
    field_from_subgroup,
    fields_equal,
    fixed_field,
    primitive_independence_check,
)
from .errors import CertificationError, InputError, TheoremError
from .groups import (
    Arrangement,
    ArrangementGroup,
    PermGroup,
    Permutation,
    all_subgroups,
    arrangement_array,
    closure,
    substitution_group,
    symmetric_group,
)
from .numberfield import (
    NumberField,
    NumberFieldElement,
    SplittingField,
    automorphism_table,
    express_roots,
)
from .poly import MultiPoly, UniPoly, gcd
from .resolvent import (
    GaloisData,
    ResolventSpec,
    certify_distinct_values,
    identify_galois,
    resolvent_poly,
    search_resolvent,
)
from .roots import RootSystem, isolate_roots, reconstruct_rational
from .sympoly import (
    ElementarySymmetricExpression,
    decompose,
    eval_elementary,
    expand_elementary,
    is_symmetric,
    substitute_elementary,
)

__all__ = [
    "AnalysisConfig",
    "Arrangement",
    "ArrangementGroup",
    "CertificationError",
    "ComplexBall",
    "CorrespondenceReport",
    "Dyadic",
    "ElementarySymmetricExpression",
    "GaloisData",
    "InputError",
    "MultiPoly",
    "NumberField",
    "NumberFieldElement",
    "PermGroup",
    "Permutation",
    "Rational",
    "ResolventSpec",
    "RootSystem",
    "SplittingField",
    "Subfield",
    "TheoremError",
    "UniPoly",
    "all_subgroups",
    "analyze",
    "arrangement_array",
    "automorphism_table",
    "averaging_check",
    "ball_disjoint",
    "certify_distinct_values",
    "closure",
    "correspondence_lattice",
    "decompose",
    "eval_elementary",
    "expand_elementary",
    "express_roots",
    "field_from_subgroup",
    "fields_equal",
    "fixed_field",
    "gcd",
    "identify_galois",
    "is_symmetric",
    "isolate_roots",
    "parse_poly",
    "primitive_independence_check",
    "reconstruct_rational",
    "resolvent_poly",
    "search_resolvent",
    "substitute_elementary",
    "substitution_group",
    "symmetric_group",
]
