"""One matrix term, three independent computations.

Every term of the Fibonacci and Lucas matrix sequences is reachable by
(1) the matrix recurrence, (2) the entrywise closed form over the scalar
kernels, and (3) a Binet form evaluated exactly on the algebraic integer
u + sqrt(r), where ab = u/v and r = u(u + 4v). The three
must agree entry for entry at every index; this script shows the machinery,
including a perfect-square discriminant, a negative discriminant, and the
degenerate case ab = -4 where the Binet route correctly refuses to run.

Run:  python demos/matrix_three_ways.py
"""

from fractions import Fraction as F

from biperiodic import (
    BinetDegenerate,
    SeqParams,
    cassini_lucas_sides,
    fib_matrix_binet,
    fib_matrix_closed,
    fib_matrix_rec,
    lucas_det,
    lucas_matrix_binet,
    lucas_matrix_closed,
    lucas_matrix_rec,
)

print("=" * 72)
print("F_7 and L_7 three ways, a = 2, b = 3")
print("=" * 72)
p = SeqParams(2, 3)
u, v = p.ab.numerator, p.ab.denominator  # ab = u/v in lowest terms
r = u * (u + 4 * v)
print(f"discriminant D = ab(ab+4) = {p.ab * (p.ab + 4)}, r = u(u+4v) = {r}")
print(f"alpha = (u + sqrt(r))/(2v) = ({u} + sqrt({r}))/{2 * v}")
print(f"beta  = (u - sqrt(r))/(2v) = ({u} - sqrt({r}))/{2 * v}")
print()
print("F_7 recurrence :", fib_matrix_rec(p, 7))
print("F_7 closed     :", fib_matrix_closed(p, 7))
print("F_7 Binet      :", fib_matrix_binet(p, 7))
print()
print("L_7 recurrence :", lucas_matrix_rec(p, 7))
print("L_7 closed     :", lucas_matrix_closed(p, 7))
print("L_7 Binet      :", lucas_matrix_binet(p, 7))
print()

print("A perfect-square discriminant (alpha and beta land in Q):")
sq = SeqParams(F(-3, 2), F(-3, 2))
print(f"  a = b = -3/2, D = {sq.ab * (sq.ab + 4)} = (15/4)^2")
print(f"  L_6 Binet == L_6 recurrence: {lucas_matrix_binet(sq, 6) == lucas_matrix_rec(sq, 6)}")
print()

print("A negative discriminant (alpha and beta are complex, still exact):")
neg = SeqParams(3, -1)
print(f"  a = 3, b = -1, D = {neg.ab * (neg.ab + 4)}")
print(f"  F_9 Binet == F_9 recurrence: {fib_matrix_binet(neg, 9) == fib_matrix_rec(neg, 9)}")
print()

print("The degenerate case ab = -4 (alpha == beta):")
deg = SeqParams(2, -2)
try:
    fib_matrix_binet(deg, 5)
except BinetDegenerate as exc:
    print(f"  Binet refuses: {exc}")
print(f"  recurrence and closed form still agree at n = 5: "
      f"{fib_matrix_rec(deg, 5) == fib_matrix_closed(deg, 5)}")
print(f"  L_0 squares to zero here: {lucas_matrix_closed(deg, 0) ** 2}")
print()

print("Determinant and the Cassini consequence, a = 2, b = 3:")
for n in range(0, 6):
    m = lucas_matrix_closed(p, n)
    cassini = "-"
    if n >= 1:
        lhs, rhs = cassini_lucas_sides(p, n)
        cassini = lhs == rhs
    print(f"  n={n}: det(L_n) = {m.det()} = (ab+4)(-a/b)^(1+eps(n)) = {lucas_det(p, n)}"
          f"   cassini: {cassini}")
