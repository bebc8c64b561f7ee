"""Formal truncated power series and Laurent polynomials, exact coefficients.

Used to verify the four summation facts about the Lucas matrix sequence:
its ordinary generating function, the truncated and full inverse-power
summations (formal series in t = 1/x), and the closed partial-sum formula.

The inverse-power checks each exist in two transcriptions. The default one
is true and is what `verify_*` asserts. The `negative_control=True` variant
carries sign-slipped low-order coefficients (finite case: the trailing term
divided by x^(n+2) instead of x^(n-2)); it is false for every input and is
kept so the verification machinery provably can fail.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice

from .exact import Mat2
from .matrixseq import lucas_matrix_closed, lucas_matrix_rec_iter
from .sequences import SeqParams, eps


class TruncatedSeries:
    """Coefficients 0..order-1 of a formal power series, padded with ``zero``.

    Coefficients may be any ring elements (Fractions and Mat2 both work);
    :func:`expand_rational` builds them.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None, zero=None):
        coeffs = list(coeffs)
        if zero is None:
            zero = coeffs[0] * 0 if coeffs else Fraction(0)
        if order is None:
            order = len(coeffs)
        if order < 1:
            raise ValueError("order must be >= 1")
        if len(coeffs) < order:
            coeffs.extend([zero] * (order - len(coeffs)))
        self.coeffs = tuple(coeffs[:order])
        self.order = order

    def coefficient(self, k: int):
        if not 0 <= k < self.order:
            raise IndexError(f"coefficient {k} outside truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


def expand_rational(num, den, order: int, zero=None) -> TruncatedSeries:
    """Series of num(x)/den(x) to ``order`` by exact long division.

    ``num`` holds ring coefficients (ascending), ``den`` scalar coefficients
    with den[0] invertible.
    """
    den = [Fraction(c) for c in den]
    if den[0] == 0:
        raise ZeroDivisionError("denominator constant term must be invertible")
    inv0 = 1 / den[0]
    num = list(num)
    if zero is None:
        zero = num[0] * 0 if num else Fraction(0)
    out = []
    for k in range(order):
        acc = num[k] if k < len(num) else zero
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[j] * out[k - j]
        out.append(inv0 * acc)
    return TruncatedSeries(out, order, zero)


class LaurentPoly:
    """Finite formal sum of coefficients times integer powers of x.

    Stored as an exponent -> coefficient map with zero coefficients dropped,
    so dict equality is exact mathematical equality.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        cleaned = {}
        for exponent, c in items:
            if exponent in cleaned:
                c = cleaned[exponent] + c
            if c:
                cleaned[exponent] = c
            else:
                cleaned.pop(exponent, None)
        self.coeffs = cleaned

    def coefficient(self, exponent: int, default=Fraction(0)):
        return self.coeffs.get(exponent, default)

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def __add__(self, other) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly(list(self.coeffs.items()) + list(other.coeffs.items()))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: list[tuple[int, object]] = []
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out.append((e1 + e2, c1 * c2))
        return LaurentPoly(out)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"LaurentPoly({self.coeffs!r})"


def quartic_denominator(params: SeqParams) -> list[Fraction]:
    """1 - (ab+2) x^2 + x^4, ascending coefficients."""
    return [Fraction(1), Fraction(0), -(params.ab + 2), Fraction(0), Fraction(1)]


def generating_numerator(params: SeqParams) -> list[Mat2]:
    """Ascending matrix coefficients of the generating-function numerator.

    Entrywise cubics: e11 = a + (a^2+2a/b)x + ax^2 - (2a/b)x^3,
    e12 = 2 + ax - (ab+2)x^2 + ax^3, e21 = (a/b) e12,
    e22 = -a + (2a/b)x + (3+ab)ax^2 - (a^2+2a/b)x^3.
    """
    a, ab, a_b = params.a, params.ab, params.a_over_b
    top = [a, a * a + 2 * a_b, a, -2 * a_b]
    mid = [Fraction(2), a, -(ab + 2), a]
    bot = [-a, 2 * a_b, (3 + ab) * a, -(a * a + 2 * a_b)]
    return [Mat2(top[i], mid[i], a_b * mid[i], bot[i]) for i in range(4)]


def lucas_generating_series(params: SeqParams, order: int) -> TruncatedSeries:
    """First ``order`` coefficients of sum_k L_k x^k."""
    return expand_rational(
        generating_numerator(params), quartic_denominator(params), order, Mat2.zero()
    )


def _first_recurrence_mismatch(params: SeqParams, series: TruncatedSeries) -> int | None:
    """Index of the first series coefficient that differs from the
    recurrence term L_k, or None; the recurrence is the independent oracle."""
    for k, term in enumerate(islice(lucas_matrix_rec_iter(params), series.order)):
        if series.coefficient(k) != term:
            return k
    return None


def first_generating_mismatch(params: SeqParams, order: int) -> int | None:
    """First k < order where the generating series and L_k differ, or None."""
    return _first_recurrence_mismatch(params, lucas_generating_series(params, order))


def verify_generating_function(params: SeqParams, order: int) -> bool:
    return first_generating_mismatch(params, order) is None


def finite_inverse_sum_sides(
    params: SeqParams, n: int, negative_control: bool = False, lucas=None
) -> tuple[LaurentPoly, LaurentPoly]:
    """Both sides of the truncated inverse-power identity, cleared of
    denominators by x^(n+2) * (1 - (ab+2)x^2 + x^4).

    RHS braced terms: L_{n-1}/x^(n-1) - L_{n+1}/x^(n-3) + L_n/x^n
    - L_{n+2}/x^(n-2) + x^4 L_0 + x^3 L_1 - x^2 ((ab+1)L_0 - b L_1)
    - x (L_1 - a L_0). The negative control divides the fourth term by
    x^(n+2) instead, which is false for every n.

    ``lucas`` maps k to L_k (default: the closed form at every call); a
    caching one shares the terms across n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b, ab = params.a, params.b, params.ab
    big_l = lucas if lucas is not None else lambda k: lucas_matrix_closed(params, k)

    quartic = LaurentPoly({0: Fraction(1), 2: -(ab + 2), 4: Fraction(1)})
    partial = LaurentPoly({n + 2 - k: big_l(k) for k in range(n + 1)})
    lhs = quartic * partial

    tail_exponent = n + 2 if negative_control else n - 2
    rhs = LaurentPoly(
        [
            (3, big_l(n - 1)),
            (5, -big_l(n + 1)),
            (2, big_l(n)),
            (n + 2 - tail_exponent, -big_l(n + 2)),
            (n + 6, big_l(0)),
            (n + 5, big_l(1)),
            (n + 4, -((ab + 1) * big_l(0) - b * big_l(1))),
            (n + 3, -(big_l(1) - a * big_l(0))),
        ]
    )
    return lhs, rhs


def finite_inverse_sum_mismatch(
    params: SeqParams, n: int, negative_control: bool = False, lucas=None
) -> tuple[int, Mat2, Mat2] | None:
    """First exponent where the cleared sides differ, or None if identical."""
    lhs, rhs = finite_inverse_sum_sides(params, n, negative_control, lucas)
    diff = lhs - rhs
    if not diff:
        return None
    e = diff.support()[0]
    zero = Mat2.zero()
    return e, lhs.coefficient(e, zero), rhs.coefficient(e, zero)


def verify_finite_inverse_sum(
    params: SeqParams, n: int, negative_control: bool = False
) -> bool:
    return finite_inverse_sum_mismatch(params, n, negative_control) is None


def inverse_sum_numerator(params: SeqParams, negative_control: bool = False) -> list[Mat2]:
    """Ascending coefficients of the cubics D, E, F from the inverse-power
    expansion sum_k L_k x^(-k) = x/(1-(ab+2)x^2+x^4) * [[D, E], [(a/b)E, F]].

    True form: D = ax^3+(a^2+2a/b)x^2+ax-2a/b, E = 2x^3+ax^2-(ab+2)x+a,
    F = -ax^3+(2a/b)x^2+(a^2b+3a)x-(a^2+2a/b). The negative control flips
    the signs that a sloppy transcription flips (low-order terms) and fails
    from coefficient 2 on.
    """
    a, b, ab, a_b = params.a, params.b, params.ab, params.a_over_b
    if negative_control:
        d_ = [2 * a_b, -a, a * a + 2 * a_b, a]
        e_ = [a, ab + 2, a, Fraction(2)]
        f_ = [a * a + 2 * a_b, -(a * a * b + 3 * a), 2 * a_b, -a]
    else:
        d_ = [-2 * a_b, a, a * a + 2 * a_b, a]
        e_ = [a, -(ab + 2), a, Fraction(2)]
        f_ = [-(a * a + 2 * a_b), a * a * b + 3 * a, 2 * a_b, -a]
    return [Mat2(d_[i], e_[i], a_b * e_[i], f_[i]) for i in range(4)]


def infinite_inverse_sum_series(
    params: SeqParams, order: int, negative_control: bool = False
) -> TruncatedSeries:
    """Expansion of the inverse-power sum as a series in t = 1/x.

    Substituting x = 1/t into x*M(x)/(1-(ab+2)x^2+x^4) reverses the
    coefficient order of the degree-4 numerator x*M(x) and leaves the
    palindromic denominator fixed, so the t-series numerator is M reversed.
    """
    m = inverse_sum_numerator(params, negative_control)
    num = [m[3], m[2], m[1], m[0]]
    return expand_rational(num, quartic_denominator(params), order, Mat2.zero())


def first_infinite_mismatch(
    params: SeqParams, order: int, negative_control: bool = False
) -> int | None:
    """First k < order where the inverse-power series and L_k differ, or None."""
    return _first_recurrence_mismatch(
        params, infinite_inverse_sum_series(params, order, negative_control)
    )


def verify_infinite_inverse_sum(
    params: SeqParams, order: int, negative_control: bool = False
) -> bool:
    return first_infinite_mismatch(params, order, negative_control) is None


def lucas_partial_sum(params: SeqParams, n: int) -> Mat2:
    """Closed form for sum_{k=0}^{n-1} L_k, n >= 1:

    (1/ab) ( b^eps(n) a^(1-eps(n)) L_n + b^(1-eps(n)) a^eps(n) L_{n-1}
             - b L_1 + (ab - a) L_0 ).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b, ab = params.a, params.b, params.ab
    e = eps(n)
    total = (b**e * a ** (1 - e)) * lucas_matrix_closed(params, n)
    total = total + (b ** (1 - e) * a**e) * lucas_matrix_closed(params, n - 1)
    total = total - b * lucas_matrix_closed(params, 1)
    total = total + (ab - a) * lucas_matrix_closed(params, 0)
    return total / ab


def direct_partial_sums(params: SeqParams):
    """Endless generator of sum_{k<n} L_k for n = 0, 1, ..., summing the
    recurrence terms one by one."""
    return accumulate(lucas_matrix_rec_iter(params), initial=Mat2.zero())


def verify_partial_sum(params: SeqParams, n: int) -> bool:
    """Closed partial sum against direct summation of the recurrence terms."""
    closed = lucas_partial_sum(params, n)
    return closed == next(islice(direct_partial_sums(params), n, None))
