"""Exact scalar and 2x2 matrix arithmetic.

The scalars are arbitrary-precision rationals (``fractions.Fraction``,
re-exported as :data:`Rational`) and the quadratic ring Q(sqrt(D)) with a
fixed rational discriminant D (:class:`QuadElement`); the matrices
(:class:`Mat2`) are 2x2 over the rationals only.

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
    equality comparison goes through that fold. Elements over different
    discriminants do not mix (arithmetic raises
    :class:`MismatchedDiscriminant`) but compare equal when both are the same
    rational; plain rationals combine with any discriminant.

    Storage. With D = p/q in lowest terms, let r = pq, so that
    sqrt(D) = sqrt(r)/q. An element is held as three integers (x, y, d)
    with value (x + y*sqrt(r))/d, canonical when d > 0 and
    gcd(x, y, d) = 1, next to D and r, so every operation runs on plain
    ints. ``rat``, ``irr`` and ``disc`` are read-only Fraction views, built
    when read.

    Cost model. A product is five integer multiplies and one gcd of the new
    denominator with x and y; a sum reduces the way Fraction adds (one gcd
    of the denominators, then one with x and y only when it is not 1); a
    product with an ``int`` or ``Fraction`` p/q takes gcd(p, d) and
    gcd(q, x, y), with no lift to an element. The perfect-square test of
    :meth:`normalized` is one isqrt of r. The Fraction form instead pays a
    gcd and an object per part per operation.
    """

    __slots__ = ("_x", "_y", "_d", "_r", "_disc")

    def __init__(self, rat: RationalLike, irr: RationalLike, disc: RationalLike):
        rat, disc = Fraction(rat), Fraction(disc)
        irr = Fraction(irr) / disc.denominator  # irr*sqrt(D) = (irr/q)*sqrt(r)
        # the lcm of the denominators leaves no factor shared by all three
        d = lcm(rat.denominator, irr.denominator)
        self._x = rat.numerator * (d // rat.denominator)
        self._y = irr.numerator * (d // irr.denominator)
        self._d = d
        self._r = disc.numerator * disc.denominator
        self._disc = disc

    @classmethod
    def from_rational(cls, value: RationalLike, disc: RationalLike) -> QuadElement:
        return cls(value, 0, disc)

    @classmethod
    def sqrt_disc(cls, disc: RationalLike) -> QuadElement:
        """The element sqrt(disc) itself."""
        return cls(0, 1, disc)

    @property
    def rat(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def irr(self) -> Fraction:
        return Fraction(self._y * self._disc.denominator, self._d)

    @property
    def disc(self) -> Fraction:
        return self._disc

    def _same_disc(self, other: QuadElement) -> None:
        if other._disc is not self._disc and other._disc != self._disc:
            raise MismatchedDiscriminant(
                f"cannot combine sqrt({self._disc}) with sqrt({other._disc})"
            )

    def _form(self, other) -> tuple[int, int, int] | None:
        """(x, y, d) of ``other`` over this discriminant, or None."""
        if isinstance(other, QuadElement):
            self._same_disc(other)
            return other._x, other._y, other._d
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other) -> QuadElement:
        form = self._form(other)
        if form is None:
            return NotImplemented
        return _add(self, *form)

    __radd__ = __add__

    def __neg__(self) -> QuadElement:
        return _quad(-self._x, -self._y, self._d, self)

    def __sub__(self, other) -> QuadElement:
        form = self._form(other)
        if form is None:
            return NotImplemented
        x, y, d = form
        return _add(self, -x, -y, d)

    def __rsub__(self, other) -> QuadElement:
        return (-self) + other

    def __mul__(self, other) -> QuadElement:
        if isinstance(other, QuadElement):
            self._same_disc(other)
            x1, y1, d1 = self._x, self._y, self._d
            x2, y2, d2 = other._x, other._y, other._d
            return _reduced(x1 * x2 + y1 * y2 * self._r, x1 * y2 + y1 * x2, d1 * d2, self)
        if isinstance(other, (int, Fraction)):
            return _scaled(self, other.numerator, other.denominator)
        return NotImplemented

    # multiplication commutes; a QuadElement left operand never reaches here
    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadElement:
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, _quad(1, 0, 1, self))

    def conj(self) -> QuadElement:
        """Conjugation sqrt(D) -> -sqrt(D); a ring homomorphism."""
        return _quad(self._x, -self._y, self._d, self)

    def norm(self) -> Fraction:
        """rat^2 - irr^2 * disc (the element times its conjugate)."""
        x, y, d = self._x, self._y, self._d
        return Fraction(x * x - y * y * self._r, d * d)

    def inverse(self) -> QuadElement:
        x, y, d = self._x, self._y, self._d
        n = x * x - y * y * self._r
        if n == 0:
            # covers both the zero element and zero divisors of square disc
            raise ZeroDivisionError(f"{self!r} has zero norm and no inverse")
        if n < 0:
            n, d = -n, -d
        # d/(x + y sqrt(r)) = d (x - y sqrt(r)) / n
        return _reduced(d * x, -d * y, n, self)

    def __truediv__(self, other) -> QuadElement:
        if isinstance(other, QuadElement):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other) -> QuadElement:
        return self.inverse() * other

    def normalized(self) -> QuadElement:
        """Fold sqrt(disc) into the rational part when disc is a perfect square."""
        y, r = self._y, self._r
        if not y or r < 0:
            return self
        root = isqrt(r)
        if root * root != r:
            return self
        return _reduced(self._x + y * root, 0, self._d, self)

    def is_rational(self) -> bool:
        return not self.normalized()._y

    def to_rational(self) -> Fraction:
        norm_self = self.normalized()
        if norm_self._y:
            raise IrrationalResidue(
                f"{self!r} kept a nonzero sqrt({self._disc}) coefficient"
            )
        return Fraction(norm_self._x, norm_self._d)

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadElement):
            a, b = self.normalized(), other.normalized()
            if a._y or b._y:  # an irrational value needs the same D
                return (a._x, a._y, a._d) == (b._x, b._y, b._d) and a._disc == b._disc
            return a._x == b._x and a._d == b._d
        if isinstance(other, (int, Fraction)):
            n = self.normalized()
            return not n._y and n._x == other.numerator and n._d == other.denominator
        return NotImplemented

    def __bool__(self) -> bool:
        return self != 0

    def __repr__(self) -> str:
        return f"QuadElement({self.rat}, {self.irr}, disc={self.disc})"

    def __str__(self) -> str:
        if not self._y:
            return str(self.rat)
        return f"{self.rat} + {self.irr}*sqrt({self.disc})"


def _quad(x: int, y: int, d: int, like: QuadElement) -> QuadElement:
    """(x + y*sqrt(r))/d over the discriminant of ``like``; (x, y, d) canonical."""
    e = object.__new__(QuadElement)
    e._x, e._y, e._d, e._r, e._disc = x, y, d, like._r, like._disc
    return e


def _reduced(x: int, y: int, d: int, like: QuadElement) -> QuadElement:
    """As :func:`_quad` for d > 0, dividing out gcd(x, y, d) first."""
    g = gcd(d, x, y)
    if g == 1:
        return _quad(x, y, d, like)
    return _quad(x // g, y // g, d // g, like)


def _add(e: QuadElement, x2: int, y2: int, d2: int) -> QuadElement:
    """e + (x2 + y2*sqrt(r))/d2, reduced as :func:`_add_forms` reduces."""
    x1, y1, d1 = e._x, e._y, e._d
    g = gcd(d1, d2)
    if g == 1:
        return _quad(x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2, e)
    s, t = d1 // g, d2 // g
    x, y = x1 * t + x2 * s, y1 * t + y2 * s
    g = gcd(g, x, y)
    if g == 1:
        return _quad(x, y, s * d2, e)
    return _quad(x // g, y // g, s * (d2 // g), e)


def _scaled(e: QuadElement, p: int, q: int) -> QuadElement:
    """e times p/q (gcd(p, q) = 1, q > 0), reduced as :func:`_scale_form` reduces."""
    x, y, d = e._x, e._y, e._d
    g = gcd(p, d)
    if g != 1:
        p //= g
        d //= g
    g = gcd(q, x, y)
    if g != 1:
        q //= g
        x, y = x // g, y // g
    return _quad(p * x, p * y, q * d, e)


IntForm = tuple[int, int, int, int, int]
"""(n11, n12, n21, n22, d): a rational matrix equal to [[n11, n12], [n21, n22]] / d,
canonical when d > 0 and gcd(n11, n12, n21, n22, d) = 1."""


def _entry(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"Mat2 entries are int or Fraction, not {type(x).__name__}")


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
    ``TypeError`` too. Q(sqrt(D)) is only ever needed for scalar
    coefficients (see ``matrixseq``), never for a matrix.

    Storage. A matrix is held as four integer numerators over one positive
    common denominator, with no factor shared by all five (see
    :data:`IntForm`). That form is canonical, so every operation runs on
    plain ints. The entries ``e11``, ``e12``,
    ``e21``, ``e22`` (and :meth:`entries`, :meth:`rows`) are read-only
    Fraction views. The integer form is built at construction; a matrix
    produced by integer arithmetic builds its Fractions only when an entry
    is read, and caches them.

    Cost model. A product is eight integer multiplies and one gcd of the
    new denominator with the four numerators; a sum is one gcd of the two
    denominators, then a gcd of that with the numerators only when it is
    not 1; a product with p/q takes gcd(p, d) and gcd(q, numerators), so
    small scalars cost small gcds. The entry-wise Fraction form instead
    pays a gcd and an object per entry per operation.
    """

    __slots__ = ("_entries", "_form")

    def __init__(self, e11, e12, e21, e22):
        self._entries = (_entry(e11), _entry(e12), _entry(e21), _entry(e22))
        self._form = _integer_form(self._entries)

    @classmethod
    def identity(cls) -> Mat2:
        return _from_form((1, 0, 0, 1, 1))

    @classmethod
    def zero(cls) -> Mat2:
        return _from_form((0, 0, 0, 0, 1))

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        entries = self._entries
        if entries is None:
            n11, n12, n21, n22, d = self._form
            entries = self._entries = (
                Fraction(n11, d), Fraction(n12, d), Fraction(n21, d), Fraction(n22, d)
            )
        return entries

    @property
    def e11(self) -> Fraction:
        return self.entries()[0]

    @property
    def e12(self) -> Fraction:
        return self.entries()[1]

    @property
    def e21(self) -> Fraction:
        return self.entries()[2]

    @property
    def e22(self) -> Fraction:
        return self.entries()[3]

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
        if isinstance(other, Mat2):
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
