"""The bi-periodic Fibonacci (F_n) and Lucas (L_n) 2x2 matrix sequences.

Each sequence is computed three independent ways:

* recurrence from the initial matrices (n >= 0): F_n steps with q's
  coefficients and L_n with l's. A single term, ``*_rec(p, n)``, applies the
  two-step transfer-matrix power to the seeds in O(log n) products;
  ``*_rec_iter(p)`` walks the recurrence one step per term
  (:func:`.sequences.alternating_walk`),
* entrywise closed form built from the scalar kernels (any integer n),
* Binet form (n >= 0, requires ab != -4): F_n = s1 F_1 + s0 F_0 (and L_n
  likewise from L_0, L_1), where each coefficient s is a combination of
  alpha^n and beta^n. With ab = u/v in lowest terms, 2v alpha = u + sqrt(r)
  for r = u(u + 4v) is an algebraic integer, so its power is a pair of
  plain ints; s must come back rational. Only these scalars leave the
  rationals; no matrix does.

The three routes must agree exactly; the closed form is

    F_n = [[(b/a)^eps(n) q_{n+1},  (b/a) q_n   ],
           [q_n,                   (b/a)^eps(n) q_{n-1}]]

    L_n = [[(a/b)^eps(n) l_{n+1},  l_n         ],
           [(a/b) l_n,             (a/b)^eps(n) l_{n-1}]]
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exact import IrrationalResidue, Mat2, QuadElement, _from_form
from .sequences import BinetDegenerate, SeqParams, eps, l, l_walk, q, q_walk


def _fib_seed(params: SeqParams) -> tuple[Mat2, Mat2]:
    """F_0 and F_1; F_n steps like q."""
    return Mat2.identity(), Mat2(params.b, params.b_over_a, 1, 0)


def _lucas_seed(params: SeqParams) -> tuple[Mat2, Mat2]:
    """L_0 and L_1; L_n steps like l."""
    a, a_b = params.a, params.a_over_b
    l0 = Mat2(a, 2, 2 * a_b, -a)
    l1 = Mat2(a * a + 2 * a_b, a, a * a_b, 2 * a_b)
    return l0, l1


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
    return _transfer(*_fib_seed(params), params.a, params.b, n)


def lucas_matrix_rec(params: SeqParams, n: int) -> Mat2:
    """L_n from L_0, L_1 and the transfer power of l's steps (b even, a odd)."""
    return _transfer(*_lucas_seed(params), params.b, params.a, n)


def fib_matrix_rec_iter(params: SeqParams):
    """Endless generator of F_0, F_1, ... by one recurrence step each."""
    return q_walk(params, *_fib_seed(params))


def lucas_matrix_rec_iter(params: SeqParams):
    """Endless generator of L_0, L_1, ... by one recurrence step each."""
    return l_walk(params, *_lucas_seed(params))


def _closed(ratio: Fraction, e: int, x: Fraction, y: Fraction, z: Fraction, top: bool) -> Mat2:
    """[[w x, k y], [y, w z]] if ``top``, else [[w x, y], [k y, w z]], with
    k = ``ratio`` and w = k^e (e in {0, 1}), built straight into the
    canonical integer form: the entries over lcm(denominators) * den(k),
    reduced by one gcd. Its Fractions are built only when read."""
    kn, kd = ratio.numerator, ratio.denominator
    xd, yd, zd = x.denominator, y.denominator, z.denominator
    den = lcm(xd, yd, zd)
    nx = x.numerator * (den // xd)
    ny = y.numerator * (den // yd)
    nz = z.numerator * (den // zd)
    wn = kn if e else kd  # w * den(k)
    n11, n22, ky, y1 = wn * nx, wn * nz, kn * ny, kd * ny
    n12, n21 = (ky, y1) if top else (y1, ky)
    d = den * kd
    g = gcd(d, n11, n12, n21, n22)
    if g == 1:
        return _from_form((n11, n12, n21, n22, d))
    return _from_form((n11 // g, n12 // g, n21 // g, n22 // g, d // g))


def fib_matrix_closed(params: SeqParams, n: int) -> Mat2:
    return _closed(params.b_over_a, eps(n),
                   q(params, n + 1), q(params, n), q(params, n - 1), top=True)


def lucas_matrix_closed(params: SeqParams, n: int) -> Mat2:
    return _closed(params.a_over_b, eps(n),
                   l(params, n + 1), l(params, n), l(params, n - 1), top=False)


def _require_binet(params: SeqParams, n: int) -> None:
    if n < 0:
        raise ValueError("the Binet route needs n >= 0; use the closed form")
    if not params.binet_allowed:
        raise BinetDegenerate("ab = -4 makes alpha = beta; Binet form is undefined")


def _binet(params: SeqParams, m1: Mat2, c1, m0: Mat2, c0, power: int, scale: Fraction) -> Mat2:
    """s1 m1 + s0 m0, where for each seed coefficient c

        s = (c(alpha) alpha^power - c(beta) beta^power) / (scale (alpha - beta)).

    With ab = u/v and r = u(u + 4v), alpha = (u + sqrt(r))/(2v) and beta is
    its conjugate, so alpha - beta = sqrt(r)/v and alpha^power is
    g^power / (2v)^power for the algebraic integer g = u + sqrt(r). The
    numerator n = c(alpha) g^power - c(beta) conj(g)^power must then be a pure
    multiple of sqrt(r), and s = n.y v / (n.d (2v)^power scale); a nonzero
    rational part of n means a mistranscribed coefficient and raises
    IrrationalResidue. sqrt(r) stays formal, so a square r needs no fold.
    """
    u, v = params.ab.numerator, params.ab.denominator
    r = u * (u + 4 * v)
    alpha = QuadElement(u, 1, 2 * v, r)
    beta = alpha.conj()
    g_p = QuadElement(u, 1, 1, r) ** power
    conj_p = g_p.conj()
    den = (2 * v) ** power * scale.numerator

    def coefficient(c) -> Fraction:
        n = c(alpha) * g_p - c(beta) * conj_p
        if n.x:
            raise IrrationalResidue(f"Binet numerator kept the rational part {n.x}/{n.d}")
        return Fraction(n.y * v * scale.denominator, n.d * den)

    return coefficient(c1) * m1 + coefficient(c0) * m0


def fib_matrix_binet(params: SeqParams, n: int) -> Mat2:
    """F_n from powers of alpha and beta, exactly, in even/odd split form.

    Even n:  ((a F1 + (alpha - ab) F0) alpha^n - (...beta...) beta^n)
             / ((ab)^(n/2) (alpha - beta))
    Odd n:   ((alpha F1 + b F0) alpha^(n-1) - (...beta...) beta^(n-1))
             / ((ab)^((n-1)/2) (alpha - beta))
    """
    _require_binet(params, n)
    a, b, ab = params.a, params.b, params.ab
    f0, f1 = _fib_seed(params)
    scale = ab ** (n // 2)
    if eps(n) == 0:
        return _binet(params, f1, lambda _: a, f0, lambda x: x - ab, n, scale)
    return _binet(params, f1, lambda x: x, f0, lambda _: b, n - 1, scale)


def lucas_matrix_binet(params: SeqParams, n: int) -> Mat2:
    """L_n = A alpha^n - B beta^n with
    A, B = (b L1 + (alpha|beta) L0 - ab L0) / (b^eps(n) (ab)^floor(n/2) (alpha - beta)).
    """
    _require_binet(params, n)
    b, ab = params.b, params.ab
    l0, l1 = _lucas_seed(params)
    scale = (b ** eps(n)) * (ab ** (n // 2))
    return _binet(params, l1, lambda _: b, l0, lambda x: x - ab, n, scale)


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
