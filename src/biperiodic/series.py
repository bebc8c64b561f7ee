"""Formal power series and Laurent sums with exact coefficients, on plain
data: a truncated series is a tuple of its first coefficients, and a finite
Laurent sum is an exponent -> coefficient dict with zeros dropped.

Used to verify the four summation facts about the Lucas matrix sequence:
its ordinary generating function, the truncated and full inverse-power
summations (formal series in t = 1/x), and the closed partial-sum formula.

The inverse-power checks each exist in two transcriptions. The default one
is true: its ``*_mismatch`` function returns None. The
``negative_control=True`` variant carries sign-slipped low-order
coefficients (finite case: the trailing term divided by x^(n+2) instead of
x^(n-2)); it is false for every input and is kept so the verification
machinery provably can fail.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count, islice

from .exact import Mat2
from .matrixseq import _lucas_seed, _seed, lucas_matrix_closed, lucas_matrix_rec_iter
from .sequences import SeqParams, eps


def _times_unit(c: Fraction, x):
    """c * x, with the product skipped when c is 1 or -1."""
    return x if c == 1 else -x if c == -1 else c * x


def expand_rational(num, den, order: int, zero=None) -> tuple:
    """Coefficients 0..order-1 of num(x)/den(x), by exact long division.

    ``num`` holds ring coefficients (ascending; Fractions and Mat2 both
    work), padded with ``zero`` past its end; ``den`` holds scalar
    coefficients with den[0] invertible. Only den's non-zero terms are
    used, and a term of +-1, like a unit den[0], costs a sum, not a product.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    den = [Fraction(c) for c in den]
    if den[0] == 0:
        raise ZeroDivisionError("denominator constant term must be invertible")
    inv0 = 1 / den[0]
    # acc - c * y as acc + (-c) * y, for the non-zero c past den[0]
    terms = [(j, -c) for j, c in enumerate(den) if j and c]
    # an int coefficient becomes a Fraction, as a product by 1/den[0] would make it
    num = [Fraction(c) if isinstance(c, int) else c for c in num]
    if zero is None:
        zero = num[0] * 0 if num else Fraction(0)
    out = []
    for k in range(order):
        acc = num[k] if k < len(num) else zero
        for j, c in terms:
            if j > k:
                break
            acc = acc + _times_unit(c, out[k - j])
        out.append(_times_unit(inv0, acc))
    return tuple(out)


def _collect(terms) -> dict:
    """Exponent -> coefficient map of a sum of (exponent, coefficient)
    terms, with zero coefficients dropped, so dict equality is exact
    equality of the sums."""
    out = {}
    for exponent, c in terms:
        if exponent in out:
            c = out[exponent] + c
        if c:
            out[exponent] = c
        else:
            out.pop(exponent, None)
    return out


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


def lucas_generating_series(params: SeqParams, order: int) -> tuple:
    """First ``order`` coefficients of sum_k L_k x^k."""
    return expand_rational(
        generating_numerator(params), quartic_denominator(params), order, Mat2.zero()
    )


def _first_recurrence_mismatch(params: SeqParams, series: tuple, lucas=None) -> int | None:
    """Index of the first series coefficient that differs from the recurrence
    term L_k, the independent oracle (from ``lucas`` if given), or None."""
    terms = lucas_matrix_rec_iter(params) if lucas is None else map(lucas, count())
    for k, (coeff, term) in enumerate(zip(series, terms)):
        if coeff != term:
            return k
    return None


def first_generating_mismatch(params: SeqParams, order: int, lucas=None) -> int | None:
    """First k < order where the generating series and L_k differ, or None;
    ``lucas`` maps k to the recurrence's L_k (default: a fresh walk)."""
    return _first_recurrence_mismatch(params, lucas_generating_series(params, order), lucas)


def cleared_inverse_sums(params: SeqParams, lucas):
    """Endless generator of the cleared left sides of
    :func:`finite_inverse_sum_sides` for n = 0, 1, ..., with ``lucas`` k -> L_k:
    each is the one before times x plus (1 - (ab+2)x^2 + x^4) L_n x^2."""
    c2, lhs = -(params.ab + 2), {}
    for n in count():
        term = lucas(n)
        lhs = _collect([*((e + 1, c) for e, c in lhs.items()),
                        (2, term), (4, _times_unit(c2, term)), (6, term)])
        yield lhs


def _pair_constants(params: SeqParams) -> tuple[Mat2, Mat2, Mat2, Mat2, Mat2]:
    """L_0, L_1 and the closed forms' terms made of them alone:
    -((ab+1)L_0 - b L_1) and -(L_1 - a L_0) of :func:`finite_inverse_sum_sides`,
    and -b L_1 + (ab - a)L_0 of :func:`lucas_partial_sum`. A tuple, so that
    ``_seed`` keeps it even where a member is the zero matrix."""
    a, b, ab = params.a, params.b, params.ab
    l0, l1 = _seed(params, _lucas_seed)
    return (l0, l1, -((ab + 1) * l0 - b * l1), -(l1 - a * l0),
            -b * l1 + (ab - a) * l0)


def finite_inverse_sum_sides(
    params: SeqParams, n: int, negative_control: bool = False, lucas=None, lhs=None
) -> tuple[dict, dict]:
    """Both sides of the truncated inverse-power identity, cleared of
    denominators by x^(n+2) * (1 - (ab+2)x^2 + x^4), as exponent ->
    coefficient dicts.

    RHS braced terms: L_{n-1}/x^(n-1) - L_{n+1}/x^(n-3) + L_n/x^n
    - L_{n+2}/x^(n-2) + x^4 L_0 + x^3 L_1 - x^2 ((ab+1)L_0 - b L_1)
    - x (L_1 - a L_0). The negative control divides the fourth term by
    x^(n+2) instead, which is false for every n.

    ``lucas`` maps k to L_k (default: the closed form at every call); a
    caching one shares the terms across n. The terms in L_0 and L_1 alone
    are made once per pair. A caller walking n upward passes ``lhs``, term n
    of :func:`cleared_inverse_sums`."""
    if n < 0:
        raise ValueError("n must be >= 0")
    big_l = lucas if lucas is not None else lambda k: lucas_matrix_closed(params, k)
    if lhs is None:
        lhs = next(islice(cleared_inverse_sums(params, big_l), n, None))
    l0, l1, x4, x3, _ = _seed(params, _pair_constants)

    tail_exponent = n + 2 if negative_control else n - 2
    rhs = _collect(
        [
            (3, big_l(n - 1)),
            (5, -big_l(n + 1)),
            (2, big_l(n)),
            (n + 2 - tail_exponent, -big_l(n + 2)),
            (n + 6, l0),
            (n + 5, l1),
            (n + 4, x4),
            (n + 3, x3),
        ]
    )
    return lhs, rhs


def finite_inverse_sum_mismatch(
    params: SeqParams, n: int, negative_control: bool = False, lucas=None, lhs=None
) -> tuple[int, Mat2, Mat2] | None:
    """First exponent where :func:`finite_inverse_sum_sides` differ, or None."""
    lhs, rhs = finite_inverse_sum_sides(params, n, negative_control, lucas, lhs)
    if lhs == rhs:
        return None
    e = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
    zero = Mat2.zero()
    return e, lhs.get(e, zero), rhs.get(e, zero)


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
) -> tuple:
    """Expansion of the inverse-power sum as a series in t = 1/x.

    Substituting x = 1/t into x*M(x)/(1-(ab+2)x^2+x^4) reverses the
    coefficient order of the degree-4 numerator x*M(x) and leaves the
    palindromic denominator fixed, so the t-series numerator is M reversed.
    """
    m = inverse_sum_numerator(params, negative_control)
    num = [m[3], m[2], m[1], m[0]]
    return expand_rational(num, quartic_denominator(params), order, Mat2.zero())


def first_infinite_mismatch(
    params: SeqParams, order: int, negative_control: bool = False, lucas=None
) -> int | None:
    """First k < order where the inverse-power series and L_k differ, or None;
    ``lucas`` as in :func:`first_generating_mismatch`."""
    return _first_recurrence_mismatch(
        params, infinite_inverse_sum_series(params, order, negative_control), lucas
    )


def lucas_partial_sum(params: SeqParams, n: int, lucas=None) -> Mat2:
    """Closed form for sum_{k=0}^{n-1} L_k, n >= 1:

    (1/ab) ( b^eps(n) a^(1-eps(n)) L_n + b^(1-eps(n)) a^eps(n) L_{n-1}
             - b L_1 + (ab - a) L_0 ).

    ``lucas`` maps k to L_k, and the last two terms are made once per pair,
    as in :func:`finite_inverse_sum_sides`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b, ab = params.a, params.b, params.ab
    big_l = lucas if lucas is not None else lambda k: lucas_matrix_closed(params, k)
    top, low = (b, a) if eps(n) else (a, b)  # b^eps(n) a^(1-eps(n)), and swapped
    total = top * big_l(n) + low * big_l(n - 1) + _seed(params, _pair_constants)[4]
    return total / ab


def direct_partial_sums(params: SeqParams):
    """Endless generator of sum_{k<n} L_k for n = 0, 1, ..., summing the
    recurrence terms one by one."""
    return accumulate(lucas_matrix_rec_iter(params), initial=Mat2.zero())
