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
references, :func:`_walk_term` and the matrix transfer power, walk v_{-k}
themselves, with negated coefficients.

:func:`q` and :func:`l` keep every term v_0, v_1, ... they have made, per
instance, as reduced Fractions. A read past the stored terms fills through
two past its index, so a closed-form window read in index order fills once.
A fill comes from :func:`_integer_walk`, the same walk on integer numerators
over one growing denominator: per term two int products by short ints, a sum
and a reduction by the primes of the parameters' denominators alone
(``exact._reduced``), whose rounds are remainders by short ints; no Fraction
arithmetic.

When ab is -1, -2 or -3, every solution of the recurrence repeats with period
P = 12, 8 or 6 (see :class:`SeqParams`), so :func:`q` and :func:`l` read
v_{n mod P}: the memo holds at most P + 2 terms and a term at any n costs at
most one period of steps. For any other ab, v_n has O(n) digits and a step
costs O(n), so a fill up to n takes O(n^2) digit operations and keeps O(n^2)
digits. :func:`_range` spells each distinct term of a range once, as text,
and stores nothing in the memo: the P terms of a period, cycled, or else each
v_k up to max(|lo|, hi), the text of v_{-k} made from that of v_k.
:func:`q_direct` and :func:`l_direct` stay on :func:`alternating_walk`, the
independent reference, and never read the period.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
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
    Where the terms' own denominators stay small (an integer ab keeps them
    dividing den(a); ab = -1, -2 or -3 makes the sequence periodic), p would
    grow for nothing, so the walk restarts from its last two terms once p is
    longer than twice their denominator + 64 bits."""
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
    """v_n (for n < 0, v_|n| signed by the table's flip; in a periodic table,
    v_{n mod P}), first storing any missing terms through v_|n|+2 from a fresh
    integer walk resumed at the last two stored ones, so a window v_{n-1}, v_n,
    v_{n+1} read in index order fills once and a periodic memo never holds more
    than P + 2 terms. Racing fills store equal values in one slice assignment
    each and never remove a slot."""
    even, odd, flip, terms, period = table
    if period:
        n %= period
    k, j = abs(n), len(terms)
    if k >= j:
        if j & 1:  # the walk's step i is step j - 2 + i of the sequence
            even, odd = odd, even
        new = [_coprime_fraction(*v) for v in
               islice(_integer_walk(terms[j - 2], terms[j - 1], even, odd), 2, k - j + 5)]
        terms[j:j + len(new)] = new
    return -terms[k] if n < 0 and k & 1 == flip else terms[k]


def _negated(text: str) -> str:
    """The text of -x from the text of a rational x."""
    if text[0] == "-":
        return text[1:]
    return text if text == "0" else "-" + text


def _range(table: tuple, lo: int, hi: int, spell):
    """``spell((numerator, denominator))``, a tuple of texts, for each of v_lo, ...,
    v_hi in lowest terms, calling ``spell`` once per distinct term of one integer
    walk and storing nothing in the memo. A periodic table spells its P terms
    v_0..v_{P-1} and cycles them. Otherwise the walk runs to v_max(|lo|, hi), and
    each row below 0 takes the texts of v_|n| with every leading "-" flipped where
    the table's flip rule negates the term; for lo < 0 the call keeps the texts of
    v_k for k <= min(|lo|, hi), which rows on both sides of 0 read, and the pairs
    of v_k for the larger k <= |lo|, then spells on from v_|lo|+1."""
    even, odd, flip, terms, period = table
    walk = _integer_walk(terms[0], terms[1], even, odd)
    if period:
        texts = [spell(v) for v in islice(walk, period)]
        yield from (texts[n % period] for n in range(lo, hi + 1))
        return
    if lo < 0:
        shared = max(min(-lo, hi) + 1, 0)
        texts = [spell(v) for v in islice(walk, shared)]  # read by rows on both sides of 0
        below = [*islice(walk, 1 - lo - shared)]  # v_shared..v_|lo|
        for k in range(-lo, max(-hi, 1) - 1, -1):
            text = texts[k] if k < shared else spell(below.pop())
            yield tuple(map(_negated, text)) if k & 1 == flip else text
        yield from texts
        yield from map(spell, islice(walk, max(hi + lo, 0)))  # v_|lo|+1..v_hi
    else:
        yield from map(spell, islice(walk, lo, hi + 1))


def _walk_term(table: tuple, n: int) -> Fraction:
    """v_n as term |n| of a fresh walk from the two seeds of ``table``, for n < 0
    with both coefficients negated from v_0, v_{-1} = v_1 - odd v_0: no sign rule."""
    even, odd, v0, v1 = *table[:2], *table[3][:2]
    if n < 0:
        even, odd, v1 = -even, -odd, v1 - odd * v0
    return next(islice(alternating_walk(v0, v1, even, odd), abs(n), None))


# ab: the period of q, l, F_n and L_n, twice the order of the two-step transfer
_PERIODS = {-1: 12, -2: 8, -3: 6}


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
    matrix walks included, reads them there. The fifth is the period P of
    every solution of those steps: the two-step transfer T has det 1 and
    trace ab + 2, so T^2 = (ab + 2) T - I, and T has order 6, 4 or 3 when ab
    is exactly -1, -2 or -3, which makes P 12, 8 or 6; for any other ab, P
    is 0 (no period). Only :func:`q`, :func:`l`, :func:`_range` and the Binet
    route read it. Instances are immutable apart from the internal memo growth.
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
        # (even, odd, flip, [v_0, v_1, ...], period): which coefficient goes with which
        # parity, v_{-k} = -v_k when k & 1 == flip, so q_{-k} = (-1)^(k+1) q_k and
        # l_{-k} = (-1)^k l_k, and v_{k+P} = v_k for P > 0
        period = _PERIODS.get(self.ab, 0)
        self._q = (a, b, 0, [Fraction(0), Fraction(1)], period)
        self._l = (b, a, 1, [Fraction(2), a], period)
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
