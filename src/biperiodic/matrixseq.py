"""The bi-periodic Fibonacci (F_n) and Lucas (L_n) 2x2 matrix sequences.

Each sequence is computed three independent ways:

* recurrence from the initial matrices (n >= 0),
* entrywise closed form built from the scalar kernels (any integer n),
* Binet form evaluated exactly in Q(sqrt(D)) and normalized back down to
  rationals (n >= 0, requires ab != -4).

The three routes must agree exactly; the closed form is

    F_n = [[(b/a)^eps(n) q_{n+1},  (b/a) q_n   ],
           [q_n,                   (b/a)^eps(n) q_{n-1}]]

    L_n = [[(a/b)^eps(n) l_{n+1},  l_n         ],
           [(a/b) l_n,             (a/b)^eps(n) l_{n-1}]]
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .exact import Mat2
from .sequences import BinetDegenerate, SeqParams, eps, floor_half, l, q


def _fib_seed(params: SeqParams):
    """F_0, F_1 and the recurrence coefficients on even and odd steps."""
    a, b = params.a, params.b
    return Mat2.identity(), Mat2(b, params.b_over_a, 1, 0), a, b


def _lucas_seed(params: SeqParams):
    """L_0, L_1 and the recurrence coefficients on even and odd steps."""
    a, b, a_b = params.a, params.b, params.a_over_b
    l0 = Mat2(a, 2, 2 * a_b, -a)
    l1 = Mat2(a * a + 2 * a_b, a, a * a_b, 2 * a_b)
    return l0, l1, b, a


def _recurrence(m0: Mat2, m1: Mat2, even: Fraction, odd: Fraction):
    prev, cur = m0, m1
    k = 1
    yield m0
    while True:
        yield cur
        k += 1
        c = even if k % 2 == 0 else odd
        prev, cur = cur, c * cur + prev


def _term(terms, n: int) -> Mat2:
    if n < 0:
        raise ValueError("the recurrence route needs n >= 0; use the closed form")
    return next(islice(terms, n, None))


def fib_matrix_rec(params: SeqParams, n: int) -> Mat2:
    """F_n by recurrence; coefficient a on even steps, b on odd, like q."""
    return _term(_recurrence(*_fib_seed(params)), n)


def lucas_matrix_rec(params: SeqParams, n: int) -> Mat2:
    """L_n by recurrence; coefficient a on odd steps, b on even, like l."""
    return _term(_recurrence(*_lucas_seed(params)), n)


def fib_matrix_rec_iter(params: SeqParams):
    """Endless generator of F_0, F_1, ... by one recurrence step each."""
    return _recurrence(*_fib_seed(params))


def lucas_matrix_rec_iter(params: SeqParams):
    """Endless generator of L_0, L_1, ... by one recurrence step each."""
    return _recurrence(*_lucas_seed(params))


def fib_matrix_closed(params: SeqParams, n: int) -> Mat2:
    ba = params.b_over_a
    w = ba ** eps(n)
    return Mat2(w * q(params, n + 1), ba * q(params, n), q(params, n), w * q(params, n - 1))


def lucas_matrix_closed(params: SeqParams, n: int) -> Mat2:
    ab = params.a_over_b
    w = ab ** eps(n)
    return Mat2(w * l(params, n + 1), l(params, n), ab * l(params, n), w * l(params, n - 1))


def _require_binet(params: SeqParams, n: int) -> None:
    if n < 0:
        raise ValueError("the Binet route needs n >= 0; use the closed form")
    if not params.binet_allowed:
        raise BinetDegenerate("ab = -4 makes alpha = beta; Binet form is undefined")


def fib_matrix_binet(params: SeqParams, n: int) -> Mat2:
    """F_n from powers of alpha and beta, exactly, in even/odd split form.

    Even n:  ((a F1 + (alpha - ab) F0) alpha^n - (...beta...) beta^n)
             / ((ab)^(n/2) (alpha - beta))
    Odd n:   ((alpha F1 + b F0) alpha^(n-1) - (...beta...) beta^(n-1))
             / ((ab)^((n-1)/2) (alpha - beta))
    """
    _require_binet(params, n)
    a, b, ab = params.a, params.b, params.ab
    alpha, beta = params.alpha, params.beta
    m0, m1, _, _ = _fib_seed(params)
    f0 = m0.lift(params.disc)
    f1 = m1.lift(params.disc)
    if eps(n) == 0:
        num_a = a * f1 + (alpha - ab) * f0
        num_b = a * f1 + (beta - ab) * f0
        power = n
    else:
        num_a = alpha * f1 + b * f0
        num_b = beta * f1 + b * f0
        power = n - 1
    scale = (ab ** floor_half(n)) * (alpha - beta)
    combined = (num_a * alpha**power - num_b * beta**power) / scale
    return combined.to_rational()


def lucas_matrix_binet(params: SeqParams, n: int) -> Mat2:
    """L_n = A alpha^n - B beta^n with
    A, B = (b L1 + (alpha|beta) L0 - ab L0) / (b^eps(n) (ab)^floor(n/2) (alpha - beta)).
    """
    _require_binet(params, n)
    b, ab = params.b, params.ab
    alpha, beta = params.alpha, params.beta
    m0, m1, _, _ = _lucas_seed(params)
    l0 = m0.lift(params.disc)
    l1 = m1.lift(params.disc)
    num_a = b * l1 + (alpha - ab) * l0
    num_b = b * l1 + (beta - ab) * l0
    scale = (b ** eps(n)) * (ab ** floor_half(n)) * (alpha - beta)
    combined = (num_a * alpha**n - num_b * beta**n) / scale
    return combined.to_rational()


def lucas_det(params: SeqParams, n: int) -> Fraction:
    """det(L_n) = (ab+4) * (-a/b)^(1+eps(n)), any integer n."""
    return (params.ab + 4) * (-params.a_over_b) ** (1 + eps(n))


def cassini_lucas_sides(params: SeqParams, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of
    (b/a)^eps(n+1) l_{n+1} l_{n-1} - (b/a)^eps(n) l_n^2 = (ab+4) (-1)^(n+1).
    """
    ba = params.b_over_a
    lhs = ba ** eps(n + 1) * l(params, n + 1) * l(params, n - 1)
    lhs -= ba ** eps(n) * l(params, n) ** 2
    return lhs, (params.ab + 4) * (-1) ** (n + 1)


def cassini_lucas(params: SeqParams, n: int) -> bool:
    """Exact check of the two sides of :func:`cassini_lucas_sides`."""
    lhs, rhs = cassini_lucas_sides(params, n)
    return lhs == rhs
