"""Exact scalar and 2x2 matrix arithmetic.

The scalars are arbitrary-precision rationals (``fractions.Fraction``,
re-exported as :data:`Rational`); the matrices (:class:`Mat2`) are 2x2 over
the rationals only. :class:`QuadElement` is the little ring arithmetic the
Binet route needs for its one power of a quadratic irrational: x + y*sqrt(r)
over ints, with sqrt(r) kept formal.

Everything is immutable and every operation is a pure function, so values are
safe to share between threads. No floats appear anywhere: equality of
matrices is exact structural equality of canonical forms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

Rational = Fraction
"""Base scalar. ``fractions.Fraction`` already guarantees the canonical form
this library relies on: positive denominator, gcd-reduced, zero stored as 0/1.
"""

RationalLike = int | Fraction


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, starting from ``one``."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """The rational written ``n`` or ``p/q`` in ASCII digits, nothing else.

    Raises ValueError for any other spelling and ZeroDivisionError for q = 0.
    The interpreter's int-to-str digit limit applies to each digit string.
    """
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"not a rational 'p/q' or integer: {text!r}")
    return Fraction(text)


class QuadElement:
    """x + y*sqrt(r) on plain ints, with sqrt(r) kept a formal symbol t.

    t^2 = r, so the value lives in Z[t]/(t^2 - r) whatever the sign of r or
    whether r is a square: a square r only adds zero divisors, such as
    (s + t)(s - t) = 0 for r = s^2. Supports ``*`` with another element over
    the same r and ``** n`` for n >= 0; its powers need no gcd.
    """

    __slots__ = ("x", "y", "r")

    def __init__(self, x: int, y: int, r: int):
        self.x, self.y, self.r = x, y, r

    def __mul__(self, other) -> QuadElement:
        if not isinstance(other, QuadElement):
            return NotImplemented
        return QuadElement(self.x * other.x + self.y * other.y * self.r,
                           self.x * other.y + self.y * other.x, self.r)

    # perfbench's tracer patches both names from the class __dict__, so the
    # alias stays although a QuadElement left operand never reaches here
    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadElement:
        if n < 0:
            raise ValueError("QuadElement powers are defined for n >= 0 only")
        return _power(self, n, QuadElement(1, 0, self.r))


IntForm = tuple[int, int, int, int, int]
"""(n11, n12, n21, n22, d): a rational matrix equal to [[n11, n12], [n21, n22]] / d,
canonical when d > 0 and gcd(n11, n12, n21, n22, d) = 1."""


def _entry(x) -> Fraction:
    """``x`` as a Fraction if it is an int or a Fraction, else TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, not {type(x).__name__}")


def _coprime_fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d) for n/d in lowest terms with d > 0, with no second gcd:
    the two slots of every Fraction (3.10 to 3.13) are set directly."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


def _reduced(x: int, y: int, base: int) -> tuple[int, int]:
    """x/y in lowest terms as a pair, for y > 0 whose primes all divide base > 0.

    Each common prime of x and y divides h = gcd(x, y, base), and after
    dividing by h each one left still divides h, so probing h^2 next takes
    out a repeated prime in O(log e) rounds. A round is two divisions and two
    remainders of a long int by h and a gcd of short ints: O(len(x)) while
    the common factor is short, where the gcd of x and y itself costs
    O(len(x)^2).
    """
    h = gcd(x % base, y % base, base)
    while h > 1:
        x, y = x // h, y // h
        h *= h
        h = gcd(x % h, y % h, h)
    return x, y


def _integer_form(entries) -> IntForm:
    """The canonical integer form of four Fractions.

    d is the lcm of the (reduced) denominators, so every prime of d divides
    some entry's denominator to the full power and leaves that numerator
    coprime: the five integers share no factor.
    """
    d = lcm(*(e.denominator for e in entries))
    return (*(e.numerator * (d // e.denominator) for e in entries), d)


class Mat2:
    """2x2 matrix over the rationals.

    Supports ``+``, ``-``, matrix ``*``, scalar ``*`` (either side) and
    ``/ scalar`` by ``int``/``Fraction``, ``** n`` by binary
    exponentiation, :meth:`det` and :meth:`trace`. Entries must be ``int``
    or ``Fraction``; anything else, a :class:`QuadElement` included, raises
    ``TypeError`` on construction, and a product with a QuadElement raises
    ``TypeError`` too. sqrt(r) is only ever needed inside a Binet
    coefficient (see ``matrixseq``), never for a matrix.

    Storage. A matrix is held as four integer numerators over one positive
    common denominator, with no factor shared by all five (see
    :data:`IntForm`). That form is canonical, so every operation runs on
    plain ints, and it is all a matrix holds. The entries ``e11``, ``e12``,
    ``e21``, ``e22`` (and :meth:`entries`, :meth:`rows`) are read-only
    Fraction views, built on read and not cached: :meth:`entries` builds
    four Fractions, and each ``e11``..``e22`` only its own.

    Cost model. A product is eight integer multiplies and one gcd of the
    new denominator with the four numerators; a sum is one gcd of the two
    denominators, then a gcd of that with the numerators only when it is
    not 1; a product with p/q takes gcd(p, d) and gcd(q, numerators), so
    small scalars cost small gcds. The entry-wise Fraction form instead
    pays a gcd and an object per entry per operation.
    """

    __slots__ = ("_form",)

    def __init__(self, e11, e12, e21, e22):
        self._form = _integer_form((_entry(e11), _entry(e12), _entry(e21), _entry(e22)))

    @classmethod
    def identity(cls) -> Mat2:
        return _from_form((1, 0, 0, 1, 1))

    @classmethod
    def zero(cls) -> Mat2:
        return _from_form((0, 0, 0, 0, 1))

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        n11, n12, n21, n22, d = self._form
        return Fraction(n11, d), Fraction(n12, d), Fraction(n21, d), Fraction(n22, d)

    @property
    def e11(self) -> Fraction:
        return Fraction(self._form[0], self._form[4])

    @property
    def e12(self) -> Fraction:
        return Fraction(self._form[1], self._form[4])

    @property
    def e21(self) -> Fraction:
        return Fraction(self._form[2], self._form[4])

    @property
    def e22(self) -> Fraction:
        return Fraction(self._form[3], self._form[4])

    def rows(self) -> list[list[Fraction]]:
        e11, e12, e21, e22 = self.entries()
        return [[e11, e12], [e21, e22]]

    def __add__(self, other) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        return _add_forms(self._form, other._form)

    def __sub__(self, other) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        n11, n12, n21, n22, d = other._form
        return _add_forms(self._form, (-n11, -n12, -n21, -n22, d))

    def __neg__(self) -> Mat2:
        n11, n12, n21, n22, d = self._form
        return _from_form((-n11, -n12, -n21, -n22, d))

    def __mul__(self, other) -> Mat2:
        if type(other) is Mat2 or isinstance(other, Mat2):
            return _mul_forms(self._form, other._form)
        if isinstance(other, (int, Fraction)):
            return _scale_form(self._form, other.numerator, other.denominator)
        return NotImplemented

    # scalars commute with matrices; a Mat2 left operand never reaches here
    __rmul__ = __mul__

    def __truediv__(self, other) -> Mat2:
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int) -> Mat2:
        if n < 0:
            raise ValueError("matrix powers are defined for n >= 0 only")
        return _power(self, n, Mat2.identity())

    def det(self) -> Fraction:
        n11, n12, n21, n22, d = self._form
        return Fraction(n11 * n22 - n12 * n21, d * d)

    def trace(self) -> Fraction:
        n11, _, _, n22, d = self._form
        return Fraction(n11 + n22, d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return self._form == other._form

    def __bool__(self) -> bool:
        return any(self._form[:4])

    def __repr__(self) -> str:
        return f"Mat2({self.e11!r}, {self.e12!r}, {self.e21!r}, {self.e22!r})"

    def __str__(self) -> str:
        return "[[{}, {}], [{}, {}]]".format(*_spelled(self))


def _fraction_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for n/d in lowest terms with d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


def _spelled(m: Mat2) -> tuple[str, str, str, str]:
    """The text ``str(Fraction)`` gives each entry, read from the integer
    form with one gcd per entry and no Fraction built."""
    *numerators, d = m._form
    common = [gcd(n, d) for n in numerators]
    return tuple(_fraction_text(n // g, d // g) for n, g in zip(numerators, common))


def _from_form(form: IntForm) -> Mat2:
    """A Mat2 over a canonical integer form; its Fractions are built on read."""
    m = object.__new__(Mat2)
    m._form = form
    return m


def _mul_forms(x: IntForm, y: IntForm) -> Mat2:
    a11, a12, a21, a22, d1 = x
    b11, b12, b21, b22, d2 = y
    d = d1 * d2
    n11 = a11 * b11 + a12 * b21
    n12 = a11 * b12 + a12 * b22
    n21 = a21 * b11 + a22 * b21
    n22 = a21 * b12 + a22 * b22
    # denominator first: gcd stops dividing once the running value is 1
    g = 1 if d == 1 else gcd(d, n11, n12, n21, n22)
    if g == 1:
        return _from_form((n11, n12, n21, n22, d))
    return _from_form((n11 // g, n12 // g, n21 // g, n22 // g, d // g))


def _add_forms(x: IntForm, y: IntForm) -> Mat2:
    """x + y reduced the way Fraction adds: with g = gcd(d1, d2), a prime
    shared by the sum's numerators and denominator can only come from g, so
    gcd(g, numerators) is the whole common factor."""
    a11, a12, a21, a22, d1 = x
    b11, b12, b21, b22, d2 = y
    g = gcd(d1, d2)
    s, t = d1 // g, d2 // g
    n11 = a11 * t + b11 * s
    n12 = a12 * t + b12 * s
    n21 = a21 * t + b21 * s
    n22 = a22 * t + b22 * s
    g = 1 if g == 1 else gcd(g, n11, n12, n21, n22)
    if g == 1:
        return _from_form((n11, n12, n21, n22, s * d2))
    return _from_form((n11 // g, n12 // g, n21 // g, n22 // g, s * (d2 // g)))


def _scale_form(x: IntForm, p: int, q: int) -> Mat2:
    """x times p/q (gcd(p, q) = 1, q > 0). p can share a factor only with d
    and q only with the numerators, so two small gcds reduce the result."""
    n11, n12, n21, n22, d = x
    g = gcd(p, d)
    if g != 1:
        p //= g
        d //= g
    g = gcd(q, n11, n12, n21, n22)
    if g != 1:
        q //= g
        n11, n12, n21, n22 = n11 // g, n12 // g, n21 // g, n22 // g
    return _from_form((p * n11, p * n12, p * n21, p * n22, q * d))
