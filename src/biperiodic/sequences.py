"""Bi-periodic Fibonacci (q) and Lucas (l) numbers over all integer indices.

q alternates its recurrence coefficient as a on even, b on odd indices with
q_0 = 0, q_1 = 1; l alternates the opposite way (a on odd, b on even) with
l_0 = 2, l_1 = a. Both, and the matrix sequences of :mod:`.matrixseq`, are
walks of one recurrence, :func:`alternating_walk`.

Negative indices need no second recurrence. By the sign identity,
u_k = (-1)^k v_{-k} obeys the same recurrence with the same parity
coefficients from u_0 = v_0, u_1 = odd v_0 - v_1; equivalently v_{-k} walks
with both coefficients negated from v_0, v_{-1} = v_1 - odd v_0, which is the
walk the memo stores, so reads need no sign. Hence q_{-1} = 1, q_{-2} = -a,
l_{-1} = -a and l_{-2} = ab + 2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .exact import RationalLike, _entry


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


def _table(v0: Fraction, v1: Fraction, even: Fraction, odd: Fraction) -> tuple:
    """Memo of one sequence as plain data, one walk per direction:
    (even, odd, [v_0, v_1, ...]) and (-even, -odd, [v_0, v_{-1}, ...])."""
    return (even, odd, [v0, v1]), (-even, -odd, [v0, v1 - odd * v0])


def _memo_term(table: tuple, n: int) -> Fraction:
    """v_n, first storing any missing terms from a fresh walk resumed at the
    last two stored ones. Racing fills store equal values in one slice
    assignment each and never remove a slot."""
    even, odd, terms = table[1] if n < 0 else table[0]
    k = abs(n)
    j = len(terms)
    if k >= j:
        if j & 1:  # the walk's step i is step j - 2 + i of the sequence
            even, odd = odd, even
        new = list(islice(alternating_walk(terms[j - 2], terms[j - 1], even, odd),
                          2, k - j + 3))
        terms[j:j + len(new)] = new
    return terms[k]


def _walk_term(table: tuple, n: int) -> Fraction:
    """v_n as term |n| of a fresh walk from the two seeds of ``table``."""
    even, odd, terms = table[1] if n < 0 else table[0]
    return next(islice(alternating_walk(terms[0], terms[1], even, odd), abs(n), None))


class SeqParams:
    """Validated (a, b) pair with the derived quantities everything needs.

    a and b must be ``int`` or ``Fraction`` (anything else raises
    TypeError, as a ``Mat2`` entry does). Carries ab, the ratios b/a and a/b,
    the discriminant D = ab(ab+4) of x^2 - ab x - ab = 0, whose roots alpha
    and beta the Binet route uses, and per-instance memos as plain data, so
    instances pickle and copy: the q and l tables and the powers (b/a)^e that
    :meth:`ratio_times` has used. Instances are immutable apart from the
    internal memo growth.
    """

    __slots__ = ("a", "b", "ab", "b_over_a", "a_over_b", "disc",
                 "binet_allowed", "_q", "_l", "_ratio_powers")

    def __init__(self, a: RationalLike, b: RationalLike):
        a = _entry(a)
        b = _entry(b)
        if a == 0:
            raise ValueError("parameter a must be nonzero")
        if b == 0:
            raise ValueError("parameter b must be nonzero")
        self.a = a
        self.b = b
        self.ab = a * b
        self.b_over_a = b / a
        self.a_over_b = a / b
        self.disc = self.ab * (self.ab + 4)
        # D = 0 collapses alpha and beta and every Binet denominator with it
        self.binet_allowed = self.ab != -4
        # the one statement of which coefficient goes with which parity
        self._q = _table(Fraction(0), Fraction(1), even=a, odd=b)
        self._l = _table(Fraction(2), a, even=b, odd=a)
        self._ratio_powers = {}

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


def q_walk(params: SeqParams, v0, v1):
    """Endless walk from v0, v1 with q's step coefficients."""
    return alternating_walk(v0, v1, *params._q[0][:2])


def l_walk(params: SeqParams, v0, v1):
    """Endless walk from v0, v1 with l's step coefficients."""
    return alternating_walk(v0, v1, *params._l[0][:2])


def lucas_from_fib_sides(params: SeqParams, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of l_n = q_{n-1} + q_{n+1}."""
    return l(params, n), q(params, n - 1) + q(params, n + 1)


def fib_from_lucas_sides(params: SeqParams, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of (ab+4) * q_n = l_{n+1} + l_{n-1}."""
    return (params.ab + 4) * q(params, n), l(params, n + 1) + l(params, n - 1)
