"""Tour of the scalar sequences: the alternating-coefficient recurrences,
negative indices, the cross-relations between the two sequences, and the
classical specializations.

Run:  python demos/sequences_tour.py
"""

from fractions import Fraction as F

from biperiodic import SeqParams, fib_from_lucas_sides, l, lucas_from_fib_sides, q

print("=" * 72)
print("Bi-periodic Fibonacci q_n and Lucas l_n")
print("=" * 72)

print("""
q alternates its coefficient by index parity (a on even, b on odd) from
q_0 = 0, q_1 = 1; l alternates the opposite way from l_0 = 2, l_1 = a.
Everything below is exact rational arithmetic.
""")

for a, b in [(2, 1), (F(1, 2), 3), (F(5, 3), F(-3, 2))]:
    p = SeqParams(a, b)
    print(f"a = {a}, b = {b}")
    print("  n    :", "  ".join(f"{n:>6}" for n in range(-4, 9)))
    print("  q_n  :", "  ".join(f"{str(q(p, n)):>6}" for n in range(-4, 9)))
    print("  l_n  :", "  ".join(f"{str(l(p, n)):>6}" for n in range(-4, 9)))
    print()

print("Negative indices extend the recurrences backward; the values at")
print("n = -1 (q = 1, l = -a) are forced by the matrix sequences' seeds.")
print()

print("Cross-relations, checked exactly for a sample window:")
p = SeqParams(F(5, 3), F(-3, 2))
ok1 = all(lhs == rhs for lhs, rhs in (lucas_from_fib_sides(p, n) for n in range(-20, 51)))
ok2 = all(lhs == rhs for lhs, rhs in (fib_from_lucas_sides(p, n) for n in range(-20, 51)))
print(f"  l_n = q_(n-1) + q_(n+1)          for n in [-20, 50]: {ok1}")
print(f"  (ab+4) q_n = l_(n+1) + l_(n-1)   for n in [-20, 50]: {ok2}")
print()

print("Classical specializations:")
ones = SeqParams(1, 1)
twos = SeqParams(2, 2)
print("  a=b=1  q:", [int(q(ones, n)) for n in range(10)], "(Fibonacci)")
print("  a=b=1  l:", [int(l(ones, n)) for n in range(10)], "(Lucas)")
print("  a=b=2  q:", [int(q(twos, n)) for n in range(8)], "(Pell)")
print("  a=b=2  l:", [int(l(twos, n)) for n in range(8)], "(Pell companions)")
