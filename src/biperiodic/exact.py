"""Exact scalar and 2x2 matrix arithmetic.

The scalar tower is: arbitrary-precision rationals (``fractions.Fraction``,
re-exported as :data:`Rational`), the quadratic ring Q(sqrt(D)) with a fixed
rational discriminant D (:class:`QuadElement`), and 2x2 matrices over either
scalar kind (:class:`Mat2`).

Everything is immutable and every operation is a pure function, so values are
safe to share between threads (a :class:`Mat2` caches derived forms of its own
value; two threads filling the cache at once store equal values). No floats
appear anywhere: equality of results is exact structural equality of
canonical forms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

Rational = Fraction
"""Base scalar. ``fractions.Fraction`` already guarantees the canonical form
this library relies on: positive denominator, gcd-reduced, zero stored as 0/1.
"""

RationalLike = int | Fraction


class MismatchedDiscriminant(ValueError):
    """Two quadratic elements over different sqrt(D) were combined."""


class IrrationalResidue(ArithmeticError):
    """A value that must be rational kept a nonzero sqrt(D) coefficient.

    This is never caused by user input: it can only mean a closed formula
    was transcribed incorrectly, so it is surfaced loudly instead of being
    silently truncated.
    """


_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """The rational written ``n`` or ``p/q`` in ASCII digits, nothing else.

    Raises ValueError for any other spelling and ZeroDivisionError for q = 0.
    The interpreter's int-to-str digit limit applies to each digit string.
    """
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"not a rational 'p/q' or integer: {text!r}")
    return Fraction(text)


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of ``x`` if ``x`` is the square of a rational, else None."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class QuadElement:
    """An element ``rat + irr*sqrt(disc)`` of Q(sqrt(D)), all parts rational.

    ``sqrt(disc)`` stays symbolic even when ``disc`` is a perfect square;
    :meth:`normalized` folds it into the rational part on demand, and every
    equality comparison against a plain rational goes through that fold.
    Elements over different discriminants do not mix (arithmetic raises
    :class:`MismatchedDiscriminant`); plain rationals coerce into any
    discriminant.
    """

    __slots__ = ("rat", "irr", "disc")

    def __init__(self, rat: RationalLike, irr: RationalLike, disc: RationalLike):
        # bypass __setattr__-style tricks: plain slots, treated as frozen
        self.rat = Fraction(rat)
        self.irr = Fraction(irr)
        self.disc = Fraction(disc)

    @classmethod
    def from_rational(cls, value: RationalLike, disc: RationalLike) -> QuadElement:
        return cls(value, 0, disc)

    @classmethod
    def sqrt_disc(cls, disc: RationalLike) -> QuadElement:
        """The element sqrt(disc) itself."""
        return cls(0, 1, disc)

    def _coerce(self, other) -> QuadElement | None:
        if isinstance(other, QuadElement):
            if other.disc != self.disc:
                raise MismatchedDiscriminant(
                    f"cannot combine sqrt({self.disc}) with sqrt({other.disc})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(other, 0, self.disc)
        return None

    def __add__(self, other) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.rat + o.rat, self.irr + o.irr, self.disc)

    __radd__ = __add__

    def __neg__(self) -> QuadElement:
        return QuadElement(-self.rat, -self.irr, self.disc)

    def __sub__(self, other) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.rat - o.rat, self.irr - o.irr, self.disc)

    def __rsub__(self, other) -> QuadElement:
        return (-self) + other

    def __mul__(self, other) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(
            self.rat * o.rat + self.irr * o.irr * self.disc,
            self.rat * o.irr + self.irr * o.rat,
            self.disc,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadElement:
        if n < 0:
            return self.inverse() ** (-n)
        result = QuadElement(1, 0, self.disc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> QuadElement:
        """Conjugation sqrt(D) -> -sqrt(D); a ring homomorphism."""
        return QuadElement(self.rat, -self.irr, self.disc)

    def norm(self) -> Fraction:
        """rat^2 - irr^2 * disc (the element times its conjugate)."""
        return self.rat * self.rat - self.irr * self.irr * self.disc

    def inverse(self) -> QuadElement:
        n = self.norm()
        if n == 0:
            # covers both the zero element and zero divisors of square disc
            raise ZeroDivisionError(f"{self!r} has zero norm and no inverse")
        return QuadElement(self.rat / n, -self.irr / n, self.disc)

    def __truediv__(self, other) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> QuadElement:
        return self.inverse() * other

    def normalized(self) -> QuadElement:
        """Fold sqrt(disc) into the rational part when disc is a perfect square."""
        if self.irr == 0:
            return self
        root = rational_sqrt(self.disc)
        if root is None:
            return self
        return QuadElement(self.rat + self.irr * root, 0, self.disc)

    def is_rational(self) -> bool:
        return self.normalized().irr == 0

    def to_rational(self) -> Fraction:
        norm_self = self.normalized()
        if norm_self.irr != 0:
            raise IrrationalResidue(
                f"{self!r} kept a nonzero sqrt({self.disc}) coefficient"
            )
        return norm_self.rat

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadElement):
            if self.disc == other.disc:
                a, b = self.normalized(), other.normalized()
                return a.rat == b.rat and a.irr == b.irr
            a, b = self.normalized(), other.normalized()
            return a.irr == 0 and b.irr == 0 and a.rat == b.rat
        if isinstance(other, (int, Fraction)):
            n = self.normalized()
            return n.irr == 0 and n.rat == other
        return NotImplemented

    def __bool__(self) -> bool:
        return self != 0

    def __repr__(self) -> str:
        return f"QuadElement({self.rat}, {self.irr}, disc={self.disc})"

    def __str__(self) -> str:
        if self.irr == 0:
            return str(self.rat)
        return f"{self.rat} + {self.irr}*sqrt({self.disc})"


Scalar = Fraction | QuadElement


def _coerce_entry(x):
    return Fraction(x) if isinstance(x, int) else x


def _one_like(x: Scalar) -> Scalar:
    if isinstance(x, QuadElement):
        return QuadElement(1, 0, x.disc)
    return Fraction(1)


def _inverse_scalar(c: Scalar) -> Scalar:
    if isinstance(c, QuadElement):
        return c.inverse()
    return 1 / Fraction(c)


IntForm = tuple[int, int, int, int, int]
"""(n11, n12, n21, n22, d): a rational matrix equal to [[n11, n12], [n21, n22]] / d,
canonical when d > 0 and gcd(n11, n12, n21, n22, d) = 1."""


def _integer_form(entries) -> IntForm | tuple[()]:
    """The canonical integer form of four Fractions, or () if an entry is not one.

    d is the lcm of the (reduced) denominators, so every prime of d divides
    some entry's denominator to the full power and leaves that numerator
    coprime: the five integers share no factor.
    """
    if not all(isinstance(e, Fraction) for e in entries):
        return ()
    d = lcm(*(e.denominator for e in entries))
    return (*(e.numerator * (d // e.denominator) for e in entries), d)


class Mat2:
    """2x2 matrix over one scalar kind (all-Fraction or all-QuadElement).

    Supports ``+``, ``-``, matrix ``*``, scalar ``*`` (either side),
    ``/ scalar``, ``** n`` by binary exponentiation, :meth:`det` and
    :meth:`trace`. Multiplying by a QuadElement scalar lifts a rational
    matrix into Q(sqrt(D)); :meth:`to_rational` goes back down and raises
    :class:`IrrationalResidue` if any sqrt part survives normalization.

    Storage. A rational matrix is held as four integer numerators over one
    positive common denominator, with no factor shared by all five (see
    :data:`IntForm`). That form is canonical, so ``+ - *``, negation, scalar
    ``*`` and ``/`` by ``int``/``Fraction``, :meth:`det`, :meth:`trace`,
    ``**`` and ``==`` run on plain ints and build no Fraction per operation.
    The entries ``e11``, ``e12``, ``e21``, ``e22`` (and :meth:`entries`,
    :meth:`rows`) are read-only Fraction views. Both forms are lazy: a
    matrix built from Fractions keeps them and derives the integer form on
    its first arithmetic use; a matrix produced by integer arithmetic builds
    its Fractions only when an entry is read. Either is cached once built.
    Matrices with any QuadElement (or other non-Fraction) entry use
    entry-wise arithmetic on their stored entries.

    Cost model. A product is eight integer multiplies and one gcd of the
    new denominator with the four numerators; a sum is one gcd of the two
    denominators, then a gcd of that with the numerators only when it is
    not 1; a product with p/q takes gcd(p, d) and gcd(q, numerators), so
    small scalars cost small gcds. The entry-wise Fraction form instead
    pays a gcd and an object per entry per operation.
    """

    __slots__ = ("_entries", "_form")

    def __init__(self, e11, e12, e21, e22):
        self._entries = (
            _coerce_entry(e11), _coerce_entry(e12), _coerce_entry(e21), _coerce_entry(e22)
        )
        self._form = None

    def _int_form(self) -> IntForm | tuple[()]:
        form = self._form
        if form is None:
            form = self._form = _integer_form(self._entries)
        return form

    @classmethod
    def identity(cls) -> Mat2:
        return _from_form((1, 0, 0, 1, 1))

    @classmethod
    def zero(cls) -> Mat2:
        return _from_form((0, 0, 0, 0, 1))

    def identity_like(self) -> Mat2:
        if self._int_form():
            return Mat2.identity()
        one = _one_like(self.e11)
        return Mat2(one, one - one, one - one, one)

    def entries(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        entries = self._entries
        if entries is None:
            n11, n12, n21, n22, d = self._form
            entries = self._entries = (
                Fraction(n11, d), Fraction(n12, d), Fraction(n21, d), Fraction(n22, d)
            )
        return entries

    @property
    def e11(self) -> Scalar:
        return self.entries()[0]

    @property
    def e12(self) -> Scalar:
        return self.entries()[1]

    @property
    def e21(self) -> Scalar:
        return self.entries()[2]

    @property
    def e22(self) -> Scalar:
        return self.entries()[3]

    def rows(self) -> list[list[Scalar]]:
        e11, e12, e21, e22 = self.entries()
        return [[e11, e12], [e21, e22]]

    def map(self, fn) -> Mat2:
        e11, e12, e21, e22 = self.entries()
        return Mat2(fn(e11), fn(e12), fn(e21), fn(e22))

    def lift(self, disc: RationalLike) -> Mat2:
        """Embed a rational matrix into Q(sqrt(disc))."""
        return self.map(lambda e: QuadElement(e, 0, disc))

    def to_rational(self) -> Mat2:
        def down(e):
            return e.to_rational() if isinstance(e, QuadElement) else e

        return self.map(down)

    def __add__(self, other) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        x, y = self._int_form(), other._int_form()
        if x and y:
            return _add_forms(x, y)
        a11, a12, a21, a22 = self.entries()
        b11, b12, b21, b22 = other.entries()
        return Mat2(a11 + b11, a12 + b12, a21 + b21, a22 + b22)

    def __sub__(self, other) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        x, y = self._int_form(), other._int_form()
        if x and y:
            n11, n12, n21, n22, d = y
            return _add_forms(x, (-n11, -n12, -n21, -n22, d))
        a11, a12, a21, a22 = self.entries()
        b11, b12, b21, b22 = other.entries()
        return Mat2(a11 - b11, a12 - b12, a21 - b21, a22 - b22)

    def __neg__(self) -> Mat2:
        x = self._int_form()
        if x:
            n11, n12, n21, n22, d = x
            return _from_form((-n11, -n12, -n21, -n22, d))
        return self.map(lambda e: -e)

    def __mul__(self, other) -> Mat2:
        if isinstance(other, Mat2):
            x, y = self._int_form(), other._int_form()
            if x and y:
                return _mul_forms(x, y)
            a11, a12, a21, a22 = self.entries()
            b11, b12, b21, b22 = other.entries()
            return Mat2(
                a11 * b11 + a12 * b21,
                a11 * b12 + a12 * b22,
                a21 * b11 + a22 * b21,
                a21 * b12 + a22 * b22,
            )
        return self._times_scalar(other)

    def __rmul__(self, other) -> Mat2:
        # scalars commute with matrices over either scalar kind
        return self._times_scalar(other)

    def _times_scalar(self, c) -> Mat2:
        if isinstance(c, (int, Fraction)):
            x = self._int_form()
            if x:
                return _scale_form(x, c.numerator, c.denominator)
        elif not isinstance(c, QuadElement):
            return NotImplemented
        return self.map(lambda e: e * c)

    def __truediv__(self, other) -> Mat2:
        if isinstance(other, (int, Fraction, QuadElement)):
            return self * _inverse_scalar(other)
        return NotImplemented

    def __pow__(self, n: int) -> Mat2:
        if n < 0:
            raise ValueError("matrix powers are defined for n >= 0 only")
        result = self.identity_like()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def det(self) -> Scalar:
        x = self._int_form()
        if x:
            n11, n12, n21, n22, d = x
            return Fraction(n11 * n22 - n12 * n21, d * d)
        e11, e12, e21, e22 = self.entries()
        return e11 * e22 - e12 * e21

    def trace(self) -> Scalar:
        x = self._int_form()
        if x:
            return Fraction(x[0] + x[3], x[4])
        return self.e11 + self.e22

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        if self._entries is not None and other._entries is not None:
            return self._entries == other._entries
        x, y = self._int_form(), other._int_form()
        if x and y:
            return x == y
        return self.entries() == other.entries()

    def __bool__(self) -> bool:
        entries = self._entries
        if entries is None:
            return any(self._form[:4])
        return any(entries)

    def __repr__(self) -> str:
        return f"Mat2({self.e11!r}, {self.e12!r}, {self.e21!r}, {self.e22!r})"

    def __str__(self) -> str:
        return f"[[{self.e11}, {self.e12}], [{self.e21}, {self.e22}]]"


def _from_form(form: IntForm) -> Mat2:
    """A Mat2 over a canonical integer form; its Fractions are built on read."""
    m = object.__new__(Mat2)
    m._entries = None
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
    g = gcd(d, n11, n12, n21, n22)
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
    if g == 1:
        return _from_form((
            a11 * d2 + b11 * d1,
            a12 * d2 + b12 * d1,
            a21 * d2 + b21 * d1,
            a22 * d2 + b22 * d1,
            d1 * d2,
        ))
    s, t = d1 // g, d2 // g
    n11 = a11 * t + b11 * s
    n12 = a12 * t + b12 * s
    n21 = a21 * t + b21 * s
    n22 = a22 * t + b22 * s
    g = gcd(g, n11, n12, n21, n22)
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
