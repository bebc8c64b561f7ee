"""The bi-periodic Fibonacci (F_n) and Lucas (L_n) 2x2 matrix sequences.

Each sequence is computed three independent ways:

* recurrence from the initial matrices (n >= 0): F_n steps with q's
  coefficients and L_n with l's, each read from the one statement of that
  step rule in :class:`.SeqParams`. A single term, ``*_rec(p, n)``, applies the
  two-step transfer-matrix power to the seeds in O(log n) products;
  ``*_rec_iter(p)`` walks the recurrence one step per term
  (:func:`.sequences.alternating_walk`), and a range walks on from the
  powers to its first two terms,
* entrywise closed form built from the scalar kernels (any integer n); a
  run of them is spelled as text from one walk of the scalar terms,
* Binet form (n >= 0, requires ab != -4): F_n = s1 F_1 + s0 F_0 (and L_n
  likewise from L_0, L_1), where each coefficient s is a combination of
  alpha^n and beta^n, read as powers of alpha + 1 and beta + 1 since
  alpha^2 = ab (alpha + 1). With ab = u/v in lowest terms,
  2v (alpha + 1) = u + 2v + sqrt(r) for r = u(u + 4v) is an algebraic
  integer, so its power is a pair of plain ints X, Y, and each s is a
  rational read off X and Y. Only that power leaves the rationals; no
  matrix does.

The three routes must agree exactly; the closed form is

    F_n = [[(b/a)^eps(n) q_{n+1},  (b/a) q_n   ],
           [q_n,                   (b/a)^eps(n) q_{n-1}]]

    L_n = [[(a/b)^eps(n) l_{n+1},  l_n         ],
           [(a/b) l_n,             (a/b)^eps(n) l_{n-1}]]
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .exact import Mat2, QuadElement, _coprime_fraction, _fraction_text, _from_form, _reduced
from .sequences import BinetDegenerate, SeqParams, _range, alternating_walk, eps, l, q


def _fib_seed(params: SeqParams) -> tuple[Mat2, Mat2]:
    """F_0 and F_1; F_n steps like q."""
    return Mat2.identity(), Mat2(params.b, params.b_over_a, 1, 0)


def _lucas_seed(params: SeqParams) -> tuple[Mat2, Mat2]:
    """L_0 and L_1; L_n steps like l."""
    a, a_b = params.a, params.a_over_b
    l0 = Mat2(a, 2, 2 * a_b, -a)
    l1 = Mat2(a * a + 2 * a_b, a, a * a_b, 2 * a_b)
    return l0, l1


def _seed(params: SeqParams, build) -> tuple:
    """``build(params)``, a non-empty tuple of per-pair constants such as the
    seed pair F_0, F_1, kept in params' memo."""
    return params._seeds.get(build) or params._seeds.setdefault(build, build(params))


def _transfer(v0: Mat2, v1: Mat2, even: Fraction, odd: Fraction, n: int) -> Mat2:
    """v_n of v_k = c_k v_{k-1} + v_{k-2} (c_k = ``even`` or ``odd`` by the
    parity of k) as t11 v_1 + t12 v_0, where T = S_n ... S_2 with
    S_k = [[c_k, 1], [1, 0]]. Paired from the right, T is
    (S_odd S_even)^floor((n-1)/2), times one more S_even on the left when n
    is even: O(log n) products instead of n steps. T's top row is read in
    its integer form, so no Fraction of T is built."""
    if n < 0:
        raise ValueError("the recurrence route needs n >= 0; use the closed form")
    if n == 0:
        return v0
    s_even = Mat2(even, 1, 1, 0)
    t = (Mat2(odd, 1, 1, 0) * s_even) ** ((n - 1) // 2)
    if not n & 1:
        t = s_even * t
    t11, t12, _, _, d = t._form
    return (t11 * v1 + t12 * v0) / d


def fib_matrix_rec(params: SeqParams, n: int) -> Mat2:
    """F_n from F_0, F_1 and the transfer power of q's steps (a even, b odd)."""
    return _transfer(*_seed(params, _fib_seed), *params._q[:2], n)


def lucas_matrix_rec(params: SeqParams, n: int) -> Mat2:
    """L_n from L_0, L_1 and the transfer power of l's steps (b even, a odd)."""
    return _transfer(*_seed(params, _lucas_seed), *params._l[:2], n)


def fib_matrix_rec_iter(params: SeqParams):
    """Endless generator of F_0, F_1, ... by one recurrence step each."""
    return alternating_walk(*_seed(params, _fib_seed), *params._q[:2])


def lucas_matrix_rec_iter(params: SeqParams):
    """Endless generator of L_0, L_1, ... by one recurrence step each."""
    return alternating_walk(*_seed(params, _lucas_seed), *params._l[:2])


def _rec_range(params: SeqParams, fib: bool, lo: int, hi: int):
    """F_lo..F_hi (``fib``) or L_lo..L_hi, 0 <= lo: the transfer powers to v_lo
    and v_lo+1, then one recurrence step per row. A one-row range is one power."""
    rec, table = (fib_matrix_rec, params._q) if fib else (lucas_matrix_rec, params._l)
    even, odd = table[:2]
    if lo == hi:
        yield rec(params, lo)
        return
    if lo & 1:  # the walk's step k is step lo + k of the sequence
        even, odd = odd, even
    yield from islice(alternating_walk(rec(params, lo), rec(params, lo + 1), even, odd),
                      hi - lo + 1)


# The closed forms' entries e11, e12, e21, e22 for even and for odd n: (j, r)
# is the scalar term v_{n-1+j} (q for F_n, l for L_n), times the ratio (b/a
# for F_n, a/b for L_n) when r is 1.
_FIB_ENTRIES = (((2, 0), (1, 1), (1, 0), (0, 0)), ((2, 1), (1, 1), (1, 0), (0, 1)))
_LUCAS_ENTRIES = (((2, 0), (1, 0), (1, 1), (0, 0)), ((2, 1), (1, 0), (1, 1), (0, 1)))


def _closed(term, params: SeqParams, n: int, ratio: Fraction, entries: tuple) -> Mat2:
    """The matrix whose entries ``entries[eps(n)]`` picks from ``ratio`` and
    the window (v_{n-1}, v_n, v_{n+1}) of ``term`` (q or l), read in index
    order and built straight into the canonical integer form: the entries
    over lcm(denominators) * den(ratio), reduced by one gcd. Its Fractions
    are built only when read."""
    x, y, z = term(params, n - 1), term(params, n), term(params, n + 1)
    xd, yd, zd = x.denominator, y.denominator, z.denominator
    den = lcm(xd, yd, zd)
    nums = (x.numerator * (den // xd), y.numerator * (den // yd), z.numerator * (den // zd))
    scale = (ratio.denominator, ratio.numerator)
    n11, n12, n21, n22 = [nums[j] * scale[r] for j, r in entries[eps(n)]]
    d = den * scale[0]
    g = gcd(d, n11, n12, n21, n22)
    if g == 1:
        return _from_form((n11, n12, n21, n22, d))
    return _from_form((n11 // g, n12 // g, n21 // g, n22 // g, d // g))


def fib_matrix_closed(params: SeqParams, n: int) -> Mat2:
    return _closed(q, params, n, params.b_over_a, _FIB_ENTRIES)


def lucas_matrix_closed(params: SeqParams, n: int) -> Mat2:
    return _closed(l, params, n, params.a_over_b, _LUCAS_ENTRIES)


def _closed_texts(params: SeqParams, fib: bool, lo: int, hi: int):
    """The entry texts of F_n (``fib``) or L_n for n = lo..hi, from one range
    of scalar terms, each spelled once bare and once times the ratio."""
    table, ratio, entries = ((params._q, params.b_over_a, _FIB_ENTRIES) if fib
                             else (params._l, params.a_over_b, _LUCAS_ENTRIES))
    s, t = ratio.numerator, ratio.denominator
    window = (None, None, None)
    # term v_{n+1} = v/d completes row n's window
    for n, (v, d) in enumerate(_range(table, lo - 1, hi + 1), lo - 2):
        g, h = gcd(v, t), gcd(s, d)  # all that v s / (d t) shares, as Fraction multiplies
        after = _fraction_text(v, d), _fraction_text(v // g * (s // h), d // h * (t // g))
        window = (window[1], window[2], after)
        if n >= lo:
            yield tuple([window[j][r] for j, r in entries[n & 1]])


def _binet(params: SeqParams, seeds: tuple[Mat2, Mat2], steps: tuple, n: int) -> Mat2:
    """v_n = s1 v_1 + s0 v_0 for the seeds (v_0, v_1) and the step
    coefficients (even, odd) of a solution of the alternating recurrence.

    Each s is (c(alpha) (alpha + 1)^k - c(beta) (beta + 1)^k) / (alpha - beta)
    for k = floor(n/2) and a seed coefficient c = p x + q: for even n, c1 is
    ``even`` and c0 is x - ab; for odd n, c1 is x and c0 is ``odd`` (for L_n
    that is (x - ab) x / b, which is a since x^2 = ab (x + 1)). With ab = u/v
    and r = u(u + 4v), alpha = (u + sqrt(r))/(2v), alpha - beta = sqrt(r)/v
    and 2v (alpha + 1) = h = u + 2v + sqrt(r). So for h^k = X + Y sqrt(r),

        s = ((p u + 2v q) Y + p X) / (2v)^k,

    rational by construction, and reduced by the primes of 2v den(step)
    alone. sqrt(r) stays formal, so a square r needs no fold.
    """
    if n < 0:
        raise ValueError("the Binet route needs n >= 0; use the closed form")
    if not params.binet_allowed:
        raise BinetDegenerate("ab = -4 makes alpha = beta; Binet form is undefined")
    u, v = params.ab.numerator, params.ab.denominator
    k = n // 2
    h_k = QuadElement(u + 2 * v, 1, u * (u + 4 * v)) ** k
    x, y = h_k.x, h_k.y
    step = steps[n & 1]
    d = step.denominator
    scale, base = (2 * v) ** k, 2 * v * d
    stepped = _coprime_fraction(*_reduced(2 * v * y * step.numerator, scale * d, base))
    free = _coprime_fraction(*_reduced(x + u * y if n & 1 else x - u * y, scale, base))
    v0, v1 = seeds
    return free * v1 + stepped * v0 if n & 1 else stepped * v1 + free * v0


def fib_matrix_binet(params: SeqParams, n: int) -> Mat2:
    """F_n from powers of alpha and beta, exactly (see :func:`_binet`)."""
    return _binet(params, _seed(params, _fib_seed), params._q[:2], n)


def lucas_matrix_binet(params: SeqParams, n: int) -> Mat2:
    """L_n from powers of alpha and beta, exactly (see :func:`_binet`)."""
    return _binet(params, _seed(params, _lucas_seed), params._l[:2], n)


def lucas_det(params: SeqParams, n: int) -> Fraction:
    """det(L_n) = (ab+4) * (-a/b)^(1+eps(n)), any integer n."""
    return (params.ab + 4) * (-params.a_over_b) ** (1 + eps(n))


def cassini_lucas_sides(params: SeqParams, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of
    (b/a)^eps(n+1) l_{n+1} l_{n-1} - (b/a)^eps(n) l_n^2 = (ab+4) (-1)^(n+1),
    any integer n. The sign is written 1 - 2 eps(n+1), an int for n < 0 too.
    """
    lhs = params.ratio_times(eps(n + 1), l(params, n + 1) * l(params, n - 1))
    lhs -= params.ratio_times(eps(n), l(params, n) ** 2)
    return lhs, (params.ab + 4) * (1 - 2 * eps(n + 1))
