"""Exact arithmetic for bi-periodic Fibonacci and Lucas numbers, their 2x2
matrix sequences, and machine verification of the identities relating them.

Every value is an exact rational (a Binet coefficient is read off the two
integers of a power x + y*sqrt(r) on its way); no floats, no tolerances.
"""

from .exact import Mat2, Rational
from .identities import (
    GRID_VALUES,
    ExpectedFailure,
    IdentityCheck,
    ReportFormatError,
    SkipRecord,
    SuiteReport,
    default_grid,
    family_checks,
    run_full_suite,
)
from .matrixseq import (
    cassini_lucas_sides,
    fib_matrix_binet,
    fib_matrix_closed,
    fib_matrix_rec,
    fib_matrix_rec_iter,
    lucas_det,
    lucas_matrix_binet,
    lucas_matrix_closed,
    lucas_matrix_rec,
    lucas_matrix_rec_iter,
)
from .sequences import BinetDegenerate, SeqParams, l, q
from .series import finite_inverse_sum_mismatch, lucas_generating_series, lucas_partial_sum

__version__ = "0.1.0"

__all__ = [
    "BinetDegenerate",
    "ExpectedFailure",
    "GRID_VALUES",
    "IdentityCheck",
    "Mat2",
    "Rational",
    "ReportFormatError",
    "SeqParams",
    "SkipRecord",
    "SuiteReport",
    "cassini_lucas_sides",
    "default_grid",
    "family_checks",
    "fib_matrix_binet",
    "fib_matrix_closed",
    "fib_matrix_rec",
    "fib_matrix_rec_iter",
    "finite_inverse_sum_mismatch",
    "l",
    "lucas_det",
    "lucas_generating_series",
    "lucas_matrix_binet",
    "lucas_matrix_closed",
    "lucas_matrix_rec",
    "lucas_matrix_rec_iter",
    "lucas_partial_sum",
    "q",
    "run_full_suite",
]
