"""Exact splitting fields for small rational polynomials, with a fully
certified subgroup/subfield correspondence.

The package exports the pipeline entry point and the stage functions
named in the README; every other name is imported from its submodule.
The command-line module is imported on first use of its names, so that
``python -m galcert.cli`` runs it only once, as ``__main__``.
"""

from .correspondence import correspondence_lattice
from .errors import CertificationError, InputError, TheoremError
from .groups import all_subgroups, arrangement_array, substitution_group
from .numberfield import automorphism_table, express_roots
from .resolvent import identify_galois, resolvent_poly, search_resolvent
from .roots import isolate_roots
from .sympoly import decompose, expand_elementary, substitute_elementary

__all__ = [
    "CertificationError",
    "InputError",
    "TheoremError",
    "all_subgroups",
    "analyze",
    "arrangement_array",
    "automorphism_table",
    "correspondence_lattice",
    "decompose",
    "expand_elementary",
    "express_roots",
    "identify_galois",
    "isolate_roots",
    "resolvent_poly",
    "search_resolvent",
    "substitute_elementary",
    "substitution_group",
]


def __getattr__(name):
    if name == "analyze":
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
