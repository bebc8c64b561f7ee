"""Bi-periodic Fibonacci (q) and Lucas (l) numbers over all integer indices.

q alternates its recurrence coefficient as a on even, b on odd indices with
q_0 = 0, q_1 = 1; l alternates the opposite way (a on odd, b on even) with
l_0 = 2, l_1 = a. Both, and the matrix sequences of :mod:`.matrixseq`, are
walks of one recurrence, :func:`alternating_walk`.

Negative indices need no second walk. By the sign identity,
u_k = (-1)^k v_{-k} obeys the same recurrence with the same parity
coefficients from u_0 = v_0, u_1 = odd v_0 - v_1: (0, -1) for q and (2, a)
for l, so u = -q, u = l and each n < 0 is read as +-v_|n| from the one forward
walk: q_{-1} = 1, q_{-2} = -a, l_{-1} = -a and l_{-2} = ab + 2. Only the
reference :func:`_walk_term` walks v_{-k} itself, with negated coefficients.

:func:`q` and :func:`l` keep every term v_0, v_1, ... they have made, per
instance, as reduced Fractions filled from :func:`_integer_walk`, the same
walk on integer numerators over one growing denominator: per term two int
products by short ints, a sum and a reduction by the primes of the
parameters' denominators alone (``exact._reduced``), whose rounds are
remainders by short ints; no Fraction arithmetic. Unless ab is -1, -2 or -3
(a periodic sequence), v_n has O(n) digits and a step costs O(n), so a fill
up to n takes O(n^2) digit operations and keeps O(n^2) digits. :func:`_range`
yields the walk's reduced int pairs and stores nothing; :func:`q_direct` and
:func:`l_direct` stay on :func:`alternating_walk`, the independent reference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from math import lcm

from .exact import RationalLike, _coprime_fraction, _entry, _reduced


class BinetDegenerate(ValueError):
    """Binet evaluation requested while alpha == beta (that is, ab == -4)."""


def eps(n: int) -> int:
    """Parity indicator: 1 for odd n, 0 for even n (by parity of |n|)."""
    return n & 1


def alternating_walk(v0, v1, even, odd):
    """Endless v_0, v_1, ... of v_k = c_k v_{k-1} + v_{k-2}, where c_k is
    ``even`` for even k and ``odd`` for odd k; scalars and Mat2 alike."""
    prev, cur, c, c_next = v0, v1, even, odd
    yield prev
    while True:
        yield cur
        prev, cur, c, c_next = cur, c * cur + prev, c_next, c


def _integer_walk(v0: Fraction, v1: Fraction, even: Fraction, odd: Fraction):
    """The terms of ``alternating_walk(v0, v1, even, odd)`` for Fractions as
    reduced (numerator, denominator) pairs, stepped on integers. With
    v_k = w_k / p_k, p_k = p_{k-1} den(c_k) and w_k = num(c_k) w_{k-1} +
    den(even) den(odd) w_{k-2}, a step is two int products, a sum and a
    reduction of w_k / p_k: every prime of p_k divides the seeds' and the
    coefficients' denominators, so ``_reduced`` needs only divisions and
    remainders by short ints and gcds of short ints, never a gcd of two
    O(k)-digit integers.
    Where the terms' own denominators stay small (ab = -1, -2 or -3 makes the
    sequence periodic), p would grow for nothing, so the walk restarts from
    its last two terms once p is longer than twice their denominator + 64 bits."""
    c, d, c_next, d_next = even.numerator, even.denominator, odd.numerator, odd.denominator
    dd = d * d_next
    n0, d0, n1, d1 = v0.numerator, v0.denominator, v1.numerator, v1.denominator
    base = dd * d0 * d1  # every prime of every p below
    yield n0, d0
    yield n1, d1
    while True:
        # v0 = w_0 / p_0 and v1 = w_1 / p_1 with p_0 = lcm(den v0, den v1)
        p = lcm(d0, d1)
        prev = n0 * (p // d0)
        p *= d_next
        cur = n1 * (p // d1)
        while True:
            prev, cur, p = cur, c * cur + dd * prev, p * d
            n0, d0, (n1, d1) = n1, d1, _reduced(cur, p, base)
            yield n1, d1
            c, d, c_next, d_next = c_next, d_next, c, d
            if p.bit_length() > 2 * d1.bit_length() + 64:
                break


def _memo_term(table: tuple, n: int) -> Fraction:
    """v_n (for n < 0, v_|n| signed by the table's flip), first storing any missing
    terms from a fresh integer walk resumed at the last two stored ones. Racing
    fills store equal values in one slice assignment each and never remove a slot."""
    even, odd, flip, terms = table
    k, j = abs(n), len(terms)
    if k >= j:
        if j & 1:  # the walk's step i is step j - 2 + i of the sequence
            even, odd = odd, even
        new = [_coprime_fraction(*v) for v in
               islice(_integer_walk(terms[j - 2], terms[j - 1], even, odd), 2, k - j + 3)]
        terms[j:j + len(new)] = new
    return -terms[k] if n < 0 and k & 1 == flip else terms[k]


def _range(table: tuple, lo: int, hi: int):
    """v_lo, ..., v_hi as reduced (numerator, denominator) pairs from one integer
    walk up to v_max(|lo|, hi); stores nothing. For lo < 0 the call keeps
    v_0..v_|lo| in a list, reads the terms below 0 from it signed, then walks on."""
    even, odd, flip, terms = table
    walk = _integer_walk(terms[0], terms[1], even, odd)
    if lo < 0:
        head = [*islice(walk, 1 - lo)]
        for k in range(-lo, max(-hi, 1) - 1, -1):
            yield (-head[k][0], head[k][1]) if k & 1 == flip else head[k]
        walk = chain(head, walk)
    yield from islice(walk, max(lo, 0), max(hi + 1, 0))


def _walk_term(table: tuple, n: int) -> Fraction:
    """v_n as term |n| of a fresh walk from the two seeds of ``table``, for n < 0
    with both coefficients negated from v_0, v_{-1} = v_1 - odd v_0: no sign rule."""
    even, odd, v0, v1 = *table[:2], *table[3][:2]
    if n < 0:
        even, odd, v1 = -even, -odd, v1 - odd * v0
    return next(islice(alternating_walk(v0, v1, even, odd), abs(n), None))


class SeqParams:
    """Validated (a, b) pair with the derived quantities everything needs.

    a and b must be ``int`` or ``Fraction`` (anything else raises
    TypeError, as a ``Mat2`` entry does). Carries ab, the ratios b/a and a/b,
    whether the Binet route applies (ab != -4, where the discriminant
    D = ab(ab+4) of x^2 - ab x - ab vanishes), and per-instance memos as
    plain data, so instances pickle and copy: q's and l's terms from 0 up,
    the powers (b/a)^e that :meth:`ratio_times` has used and the per-pair
    constants (seed matrices, series terms) that :mod:`.matrixseq` and
    :mod:`.series` have built.
    The first two entries of ``_q`` and ``_l`` are each sequence's step
    coefficients (even, odd), stated once: every walk of q's or l's steps,
    matrix walks included, reads them there.
    Instances are immutable apart from the internal memo growth.
    """

    __slots__ = ("a", "b", "ab", "b_over_a", "a_over_b",
                 "binet_allowed", "_q", "_l", "_ratio_powers", "_seeds")

    def __init__(self, a: RationalLike, b: RationalLike):
        a, b = _entry(a), _entry(b)
        if a == 0:
            raise ValueError("parameter a must be nonzero")
        if b == 0:
            raise ValueError("parameter b must be nonzero")
        self.a = a
        self.b = b
        self.ab = a * b
        self.b_over_a = b / a
        self.a_over_b = a / b
        # D = 0 collapses alpha and beta and every Binet denominator with it
        self.binet_allowed = self.ab != -4
        # (even, odd, flip, [v_0, v_1, ...]): which coefficient goes with which parity, and
        # v_{-k} = -v_k when k & 1 == flip, so q_{-k} = (-1)^(k+1) q_k and l_{-k} = (-1)^k l_k
        self._q = (a, b, 0, [Fraction(0), Fraction(1)])
        self._l = (b, a, 1, [Fraction(2), a])
        self._ratio_powers = {}
        self._seeds = {}

    def ratio_times(self, e: int, x):
        """(b/a)^e * x for any integer e: x itself when e = 0, else one
        product ``x * r`` with r = (b/a)^e made once per e and kept."""
        if e == 0:
            return x
        r = self._ratio_powers.get(e)
        if r is None:
            r = self._ratio_powers[e] = self.b_over_a ** e
        return x * r

    def __repr__(self) -> str:
        return f"SeqParams(a={self.a}, b={self.b})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeqParams):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))


def q(params: SeqParams, n: int) -> Fraction:
    """n-th bi-periodic Fibonacci number, any integer n (memoized)."""
    return _memo_term(params._q, n)


def l(params: SeqParams, n: int) -> Fraction:
    """n-th bi-periodic Lucas number, any integer n (memoized)."""
    return _memo_term(params._l, n)


def q_direct(params: SeqParams, n: int) -> Fraction:
    """Same value as :func:`q`, from a fresh walk that stores nothing."""
    return _walk_term(params._q, n)


def l_direct(params: SeqParams, n: int) -> Fraction:
    """Same value as :func:`l`, from a fresh walk that stores nothing."""
    return _walk_term(params._l, n)


def lucas_from_fib_sides(params: SeqParams, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of l_n = q_{n-1} + q_{n+1}."""
    return l(params, n), q(params, n - 1) + q(params, n + 1)


def fib_from_lucas_sides(params: SeqParams, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of (ab+4) * q_n = l_{n+1} + l_{n-1}."""
    return (params.ab + 4) * q(params, n), l(params, n + 1) + l(params, n - 1)
