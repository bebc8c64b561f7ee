"""Bi-periodic Fibonacci (q) and Lucas (l) numbers over all integer indices.

q alternates its recurrence coefficient as a on even, b on odd indices with
q_0 = 0, q_1 = 1; l alternates the opposite way (a on odd, b on even) with
l_0 = 2, l_1 = a. Negative indices come from running the recurrences
backward, which is forced at index -1 by the matrix sequences' initial terms
(q_{-1} = 1, l_{-1} = -a) and extended uniformly below.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import QuadElement, RationalLike


class BinetDegenerate(ValueError):
    """Binet evaluation requested while alpha == beta (that is, ab == -4)."""


def eps(n: int) -> int:
    """Parity indicator: 1 for odd n, 0 for even n (by parity of |n|)."""
    return n & 1


def floor_half(n: int) -> int:
    """Floor of n/2, floor semantics for negatives."""
    return n // 2


class _MemoTable:
    """Two-sided memo for one alternating-coefficient recurrence.

    Values are deterministic, so concurrent fills can only duplicate work,
    never corrupt entries; reads of filled slots are always safe.
    """

    __slots__ = ("_fwd", "_bwd", "_even", "_odd")

    def __init__(self, v0: Fraction, v1: Fraction, even: Fraction, odd: Fraction):
        self._fwd = [v0, v1]
        self._bwd = [v0]
        self._even = even
        self._odd = odd

    def _coeff(self, n: int) -> Fraction:
        return self._even if n % 2 == 0 else self._odd

    def get(self, n: int) -> Fraction:
        if n >= 0:
            fwd = self._fwd
            while len(fwd) <= n:
                k = len(fwd)
                fwd.append(self._coeff(k) * fwd[k - 1] + fwd[k - 2])
            return fwd[n]
        bwd = self._bwd
        while len(bwd) <= -n:
            m = -len(bwd)
            # backward step: value(m) = value(m+2) - c(m+2) * value(m+1),
            # and c(m+2) has the parity of m
            bwd.append(self.get(m + 2) - self._coeff(m) * self.get(m + 1))
        return bwd[-n]


class SeqParams:
    """Validated (a, b) pair with the derived quantities everything needs.

    Carries ab, the ratios b/a and a/b, the discriminant D = ab(ab+4), the
    quadratic roots alpha = (ab + sqrt(D))/2 and beta = (ab - sqrt(D))/2 of
    x^2 - ab x - ab = 0, and per-instance memo tables for q and l.
    Instances are immutable apart from the internal memo growth.
    """

    __slots__ = ("a", "b", "ab", "b_over_a", "a_over_b", "disc", "alpha", "beta",
                 "binet_allowed", "_q", "_l")

    def __init__(self, a: RationalLike, b: RationalLike):
        a = Fraction(a)
        b = Fraction(b)
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
        half = Fraction(1, 2)
        self.alpha = QuadElement(self.ab * half, half, self.disc)
        self.beta = QuadElement(self.ab * half, -half, self.disc)
        # D = 0 collapses alpha and beta and every Binet denominator with it
        self.binet_allowed = self.ab != -4
        self._q = _MemoTable(Fraction(0), Fraction(1), even=a, odd=b)
        self._l = _MemoTable(Fraction(2), a, even=b, odd=a)

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
    return params._q.get(n)


def l(params: SeqParams, n: int) -> Fraction:
    """n-th bi-periodic Lucas number, any integer n (memoized)."""
    return params._l.get(n)


def _direct(v0, v1, even, odd, n):
    if n >= 0:
        lo, hi = v0, v1
        for k in range(2, n + 1):
            lo, hi = hi, (even if k % 2 == 0 else odd) * hi + lo
        return v0 if n == 0 else hi
    hi, lo = v1, v0
    for m in range(-1, n - 1, -1):
        hi, lo = lo, hi - (even if m % 2 == 0 else odd) * lo
    return lo


def q_direct(params: SeqParams, n: int) -> Fraction:
    """Same value as :func:`q`, recomputed iteratively with no memo table."""
    return _direct(Fraction(0), Fraction(1), params.a, params.b, n)


def l_direct(params: SeqParams, n: int) -> Fraction:
    """Same value as :func:`l`, recomputed iteratively with no memo table."""
    return _direct(Fraction(2), params.a, params.b, params.a, n)


def lucas_from_fib_sides(params: SeqParams, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of l_n = q_{n-1} + q_{n+1}."""
    return l(params, n), q(params, n - 1) + q(params, n + 1)


def fib_from_lucas_sides(params: SeqParams, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of (ab+4) * q_n = l_{n+1} + l_{n-1}."""
    return (params.ab + 4) * q(params, n), l(params, n + 1) + l(params, n - 1)


def check_lucas_from_fib(params: SeqParams, n: int) -> bool:
    """Exact check of l_n == q_{n-1} + q_{n+1}."""
    lhs, rhs = lucas_from_fib_sides(params, n)
    return lhs == rhs


def check_fib_from_lucas(params: SeqParams, n: int) -> bool:
    """Exact check of (ab+4) * q_n == l_{n+1} + l_{n-1}."""
    lhs, rhs = fib_from_lucas_sides(params, n)
    return lhs == rhs
