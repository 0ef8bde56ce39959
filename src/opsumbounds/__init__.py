"""Norm bounds for weighted sums of bounded operators on C^d.

The package computes the exact operator norm of a weighted sum
sum_i z_i A_i, certifies the positive-semidefinite gap that controls
it, and evaluates a catalog of closed-form upper bounds driven by
Holder-exponent choices, together with rank-one specializations that
work directly from a Gram matrix.  A seeded harness generates instance
ensembles and checks every bound against the exact value; a CLI wraps
evaluation, verification, and slack sweeps with deterministic file
output.
"""

from .bounds import (
    BoundReport,
    catalog_reports,
    probe_checks,
    tightest_report,
)
from .cbs import (
    OperatorFamily,
    PsdGapResult,
    as_weights,
    cbs_operator_gap,
)
from .errors import (
    DimensionMismatch,
    InvalidExponent,
    InvalidSpec,
    NoConvergence,
    NotHermitian,
    ParseError,
    SchemaError,
    ZeroVector,
)
from .harness import (
    CSV_HEADER,
    KINDS,
    CheckRecord,
    InstanceSpec,
    VerificationResult,
    generate,
    slack_sweep,
    verify_instance,
    write_slack_csv,
)
from .linalg import (
    hermitian_eigenvalues,
    spectral_norms,
)
from .problemio import (
    ProblemFile,
    emit_problem,
    format_float,
    load_problem,
    loads_problem,
    write_problem,
)
from .rng import PortableRng, derive_seed
from .vectors import VectorFamily, bessel_weighting

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CSV_HEADER",
    "CheckRecord",
    "DimensionMismatch",
    "InstanceSpec",
    "InvalidExponent",
    "InvalidSpec",
    "KINDS",
    "NoConvergence",
    "NotHermitian",
    "OperatorFamily",
    "ParseError",
    "ProblemFile",
    "PsdGapResult",
    "SchemaError",
    "VectorFamily",
    "VerificationResult",
    "ZeroVector",
    "PortableRng",
    "as_weights",
    "bessel_weighting",
    "catalog_reports",
    "cbs_operator_gap",
    "derive_seed",
    "emit_problem",
    "format_float",
    "generate",
    "hermitian_eigenvalues",
    "load_problem",
    "loads_problem",
    "probe_checks",
    "slack_sweep",
    "spectral_norms",
    "tightest_report",
    "verify_instance",
    "write_problem",
    "write_slack_csv",
]
