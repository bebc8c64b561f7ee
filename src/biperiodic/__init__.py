"""Exact arithmetic for bi-periodic Fibonacci and Lucas numbers, their 2x2
matrix sequences, and machine verification of the identities relating them.

Every value is an exact rational (a Binet coefficient passes through an
unreduced integer element (x + y*sqrt(r))/d on its way); no floats, no
tolerances.
"""

from .exact import IrrationalResidue, Mat2, Rational
from .identities import (
    GRID_VALUES,
    ExpectedFailure,
    IdentityCheck,
    ReportFormatError,
    SkipRecord,
    SuiteReport,
    default_grid,
    run_full_suite,
    run_series_suite,
    thm6_iii_variant,
    thm6_suite,
    thm7_suite,
    thm8_suite,
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
from .sequences import (
    BinetDegenerate,
    SeqParams,
    eps,
    fib_from_lucas_sides,
    floor_half,
    l,
    l_direct,
    lucas_from_fib_sides,
    q,
    q_direct,
)
from .series import (
    expand_rational,
    finite_inverse_sum_mismatch,
    finite_inverse_sum_sides,
    first_generating_mismatch,
    first_infinite_mismatch,
    infinite_inverse_sum_series,
    inverse_sum_numerator,
    lucas_generating_series,
    lucas_partial_sum,
)

__version__ = "0.1.0"

__all__ = [
    "BinetDegenerate",
    "ExpectedFailure",
    "GRID_VALUES",
    "IdentityCheck",
    "IrrationalResidue",
    "Mat2",
    "Rational",
    "ReportFormatError",
    "SeqParams",
    "SkipRecord",
    "SuiteReport",
    "cassini_lucas_sides",
    "default_grid",
    "eps",
    "expand_rational",
    "fib_from_lucas_sides",
    "fib_matrix_binet",
    "fib_matrix_closed",
    "fib_matrix_rec",
    "fib_matrix_rec_iter",
    "finite_inverse_sum_mismatch",
    "finite_inverse_sum_sides",
    "first_generating_mismatch",
    "first_infinite_mismatch",
    "floor_half",
    "infinite_inverse_sum_series",
    "inverse_sum_numerator",
    "l",
    "l_direct",
    "lucas_det",
    "lucas_from_fib_sides",
    "lucas_generating_series",
    "lucas_matrix_binet",
    "lucas_matrix_closed",
    "lucas_matrix_rec",
    "lucas_matrix_rec_iter",
    "lucas_partial_sum",
    "q",
    "q_direct",
    "run_full_suite",
    "run_series_suite",
    "thm6_iii_variant",
    "thm6_suite",
    "thm7_suite",
    "thm8_suite",
]
