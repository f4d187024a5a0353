"""Exact spectral computations for Bochner differential operators.

Everything is computed over Gaussian rationals with no rounding: the direct
problem (eigenvalues and monic eigenpolynomials through the triangular delta
table), recurrence fitting and bandwidth detection for the bispectral
problem, and the inverse problem of recovering a finite-order operator from
prescribed eigen-data.
"""

from .errors import (
    BochnerError,
    DegenerateSpectrum,
    DomainError,
    InsufficientData,
    InvalidEigenSystem,
    InvalidOperator,
    NoFiniteOrderOperator,
    ParseError,
    VerificationError,
)
from .identities import lemma_residual
from .inverse import (
    delta_rows,
    deltas_from_eigendata_det,
    deltas_from_eigendata_rec,
    reconstruct,
)
from .operators import (
    BochnerOperator,
    DeltaTable,
    deltas_from_operator,
    hermite_operator,
    jacobi_operator,
    laguerre_operator,
    normalize,
    operator_from_deltas,
)
from .polynomials import Poly, apply_operator, is_eigenpair
from .recurrence import RecurrenceCoeffs, bandwidth, fit_recurrence
from .scalars import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    format_scalar,
    parse_scalar,
    scalar,
)
from .shapiro import (
    ShapiroOperator,
    shapiro_alpha,
    shapiro_delta1,
    shapiro_delta1_column,
    to_bochner,
    verify_shapiro_recurrence,
)
from .spectral import (
    EigenSystem,
    delta_extend,
    eigenpoly_coeff_det,
    eigenpoly_recursive,
    eigenpolys,
    eigensystem,
    lambda_via_N2_identity,
)

__version__ = "0.1.0"

__all__ = [
    "BochnerError",
    "BochnerOperator",
    "DegenerateSpectrum",
    "DeltaTable",
    "DomainError",
    "EigenSystem",
    "GaussianRational",
    "I",
    "InsufficientData",
    "InvalidEigenSystem",
    "InvalidOperator",
    "NoFiniteOrderOperator",
    "ONE",
    "ParseError",
    "Poly",
    "RecurrenceCoeffs",
    "ShapiroOperator",
    "VerificationError",
    "ZERO",
    "apply_operator",
    "bandwidth",
    "delta_extend",
    "delta_rows",
    "deltas_from_eigendata_det",
    "deltas_from_eigendata_rec",
    "deltas_from_operator",
    "eigenpoly_coeff_det",
    "eigenpoly_recursive",
    "eigenpolys",
    "eigensystem",
    "fit_recurrence",
    "format_scalar",
    "hermite_operator",
    "is_eigenpair",
    "jacobi_operator",
    "laguerre_operator",
    "lambda_via_N2_identity",
    "lemma_residual",
    "normalize",
    "operator_from_deltas",
    "parse_scalar",
    "reconstruct",
    "scalar",
    "shapiro_alpha",
    "shapiro_delta1",
    "shapiro_delta1_column",
    "to_bochner",
    "verify_shapiro_recurrence",
]
