"""Exact-arithmetic invariants and projective models for circle subgroups of
torus actions on connected sums of complex projective planes.

The pipeline: a weight sequence (k_2, ..., k_{n+2}) encodes a circle subgroup
of a torus acting on nCP^2; one validated analysis record per sequence holds,
in closed form, the basic invariant m of the decrement procedure and a
distinguished divisor whose multiplicity vector drives the explicit
quadratic model of the minitwistor space, its singularities, the
discriminant loci of the conic-bundle models, the deformability criterion
n + r - s > 0, and the enumeration of all such actions up to equivalence.
The package exports the paths through that record; the decrement simulation
that tests its closed forms is not exported and is imported from
:mod:`minitwistor.invariants`.

Importing the package imports none of its modules.  Each exported name
resolves on first access, by importing the module that defines it, so
``import minitwistor.cli`` for a sequence command never loads the
circle-action enumeration in :mod:`minitwistor.catalog`.  A resolved name is
not stored in the package: every access looks it up in its module again.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each exported name, under the module that defines it.
_EXPORTS = {
    "catalog": (
        "CatalogClass", "DeltaRow", "FIBONACCI_TABLE", "KNOWN_DELTA", "enumerate_marked",
        "family_fibonacci", "family_involutive", "family_lebrun", "growth_report",
        "u1_classes", "u1_key",
    ),
    "conic_bundle": (
        "BlowUpSchedule", "BlowUpStage", "DiscriminantReport", "blow_up_schedule",
        "discriminant_deformed", "discriminant_joyce",
    ),
    "errors": (
        "InternalInvariantError", "InvalidFanError", "InvalidParameterError",
        "InvalidSequenceError",
    ),
    "exact": ("INF", "Infinity", "format_scalar", "parse_scalar"),
    "fans": (
        "HalfFan", "fan_from_sequence", "self_intersections", "sequence_from_fan",
        "validate_sequence",
    ),
    "invariants": (
        "ReductionTrace", "SequenceAnalysis", "analyze_sequence", "is_lebrun",
        "restriction_multiplicities", "sequence_summary",
    ),
    "model": (
        "BinaryForm", "MinitwistorModel", "QuadraticForm", "SingularityRecord",
        "default_lambdas", "minitwistor_model", "quadratic_split", "rhs_polynomial",
        "validate_lambdas",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # PEP 562: called only for a name the package namespace does not hold
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
