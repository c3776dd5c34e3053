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
"""

from .catalog import (
    CatalogClass,
    DeltaRow,
    FIBONACCI_TABLE,
    KNOWN_DELTA,
    enumerate_marked,
    family_fibonacci,
    family_involutive,
    family_lebrun,
    growth_report,
    u1_classes,
    u1_key,
)
from .conic_bundle import (
    BlowUpSchedule,
    BlowUpStage,
    DiscriminantReport,
    blow_up_schedule,
    discriminant_deformed,
    discriminant_joyce,
)
from .errors import (
    InternalInvariantError,
    InvalidFanError,
    InvalidParameterError,
    InvalidSequenceError,
)
from .exact import INF, Infinity, format_scalar, parse_scalar
from .fans import (
    HalfFan,
    fan_from_sequence,
    self_intersections,
    sequence_from_fan,
    validate_sequence,
)
from .invariants import (
    ReductionTrace,
    SequenceAnalysis,
    analyze_sequence,
    is_lebrun,
    restriction_multiplicities,
    sequence_summary,
)
from .model import (
    BinaryForm,
    MinitwistorModel,
    QuadraticForm,
    SingularityRecord,
    default_lambdas,
    minitwistor_model,
    quadratic_split,
    rhs_polynomial,
    validate_lambdas,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "BlowUpSchedule",
    "BlowUpStage",
    "CatalogClass",
    "DeltaRow",
    "DiscriminantReport",
    "FIBONACCI_TABLE",
    "HalfFan",
    "INF",
    "Infinity",
    "InternalInvariantError",
    "InvalidFanError",
    "InvalidParameterError",
    "InvalidSequenceError",
    "KNOWN_DELTA",
    "MinitwistorModel",
    "QuadraticForm",
    "ReductionTrace",
    "SequenceAnalysis",
    "SingularityRecord",
    "analyze_sequence",
    "blow_up_schedule",
    "default_lambdas",
    "discriminant_deformed",
    "discriminant_joyce",
    "enumerate_marked",
    "family_fibonacci",
    "family_involutive",
    "family_lebrun",
    "fan_from_sequence",
    "format_scalar",
    "growth_report",
    "is_lebrun",
    "minitwistor_model",
    "parse_scalar",
    "quadratic_split",
    "restriction_multiplicities",
    "rhs_polynomial",
    "self_intersections",
    "sequence_from_fan",
    "sequence_summary",
    "u1_classes",
    "u1_key",
    "validate_lambdas",
    "validate_sequence",
]
