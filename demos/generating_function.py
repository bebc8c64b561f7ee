"""Formal series machinery: the generating function of the Lucas matrix
sequence, the two inverse-power summations, and the closed partial sum.

All checks are coefficient-by-coefficient comparisons of exact formal
objects; the inverse-power identities are settled by clearing denominators
into Laurent polynomials, not by sampling points. The script also runs the
built-in negative controls (deliberately sign-slipped transcriptions) to
show a failing comparison looks different from a passing one.

Run:  python demos/generating_function.py
"""

from fractions import Fraction as F
from itertools import islice

from biperiodic import (
    SeqParams,
    finite_inverse_sum_mismatch,
    first_infinite_mismatch,
    lucas_generating_series,
    lucas_matrix_rec_iter,
    lucas_partial_sum,
)
from biperiodic.series import direct_partial_sums

p = SeqParams(F(1, 2), 4)
print("=" * 72)
print(f"Generating function expansion, a = {p.a}, b = {p.b}")
print("=" * 72)
series = lucas_generating_series(p, 8)
for k, (coeff, term) in enumerate(zip(series, lucas_matrix_rec_iter(p))):
    print(f"  x^{k}: {str(coeff):<42} match={coeff == term}")
print()

print("Truncated inverse-power sums (Laurent-polynomial comparison):")
for n in range(0, 6):
    print(f"  n={n}: {finite_inverse_sum_mismatch(p, n) is None}")
print()

print("The same with the negative-control transcription (x^(n+2) tail):")
for n in range(0, 3):
    exponent, lhs, rhs = finite_inverse_sum_mismatch(p, n, negative_control=True)
    print(f"  n={n}: first mismatch at x^{exponent}")
print()

print("Full inverse-power series in t = 1/x vs the recurrence:")
print(f"  first 30 coefficients match: {first_infinite_mismatch(p, 30) is None}")
k = first_infinite_mismatch(p, 10, negative_control=True)
print(f"  negative control mismatches at coefficient {k}")
print()

print("Closed partial-sum formula vs direct summation:")
print(f"  sum of L_0..L_4 = {lucas_partial_sum(p, 5)}")
direct = islice(direct_partial_sums(p), 1, 51)
print(f"  matches direct sums for n = 1..50: "
      f"{all(lucas_partial_sum(p, n) == s for n, s in enumerate(direct, start=1))}")
