import math
import time
from fractions import Fraction as F
from itertools import islice

import pytest

from biperiodic import matrixseq, sequences
from biperiodic.exact import IrrationalResidue, Mat2, QuadElement
from biperiodic.identities import default_grid
from biperiodic.matrixseq import (
    _binet,
    _rec_range,
    cassini_lucas_sides,
    fib_matrix_binet,
    fib_matrix_closed,
    fib_matrix_rec,
    fib_matrix_rec_iter,
    lucas_det,
    lucas_matrix_binet,
    lucas_matrix_closed,
    lucas_matrix_rec,
    lucas_matrix_rec_iter,
)
from biperiodic.sequences import BinetDegenerate, SeqParams, eps, l, q

SAMPLE = [
    SeqParams(1, 1),
    SeqParams(2, 1),
    SeqParams(2, 3),
    SeqParams(F(1, 2), 3),
    SeqParams(F(-3, 2), F(-3, 2)),  # perfect-square discriminant 225/16
    SeqParams(3, -1),               # negative discriminant
    SeqParams(F(5, 3), F(1, 2)),
]


class TestFibMatrix:
    def test_f0_is_identity(self):
        for p in SAMPLE:
            assert fib_matrix_rec(p, 0) == Mat2.identity()
            assert fib_matrix_closed(p, 0) == Mat2.identity()

    def test_f1(self):
        p = SeqParams(2, 3)
        assert fib_matrix_rec(p, 1) == Mat2(3, F(3, 2), 1, 0)

    def test_rec_example_a2_b1(self):
        assert fib_matrix_rec(SeqParams(2, 1), 2) == Mat2(3, 1, 2, 1)

    def test_rec_classical_n5(self):
        assert fib_matrix_rec(SeqParams(1, 1), 5) == Mat2(8, 5, 5, 3)

    def test_closed_example_a2_b1_n3(self):
        assert fib_matrix_closed(SeqParams(2, 1), 3) == Mat2(4, F(3, 2), 3, 1)

    def test_closed_classical_n4(self):
        assert fib_matrix_closed(SeqParams(1, 1), 4) == Mat2(5, 3, 3, 2)

    def test_negative_index_closed(self):
        p = SeqParams(2, 3)
        assert fib_matrix_closed(p, -1) == Mat2(0, F(3, 2), 1, -3)
        # F_1 * F_{-1} = (b/a) I, the addition law extended backward
        prod = fib_matrix_closed(p, 1) * fib_matrix_closed(p, -1)
        assert prod == (p.b / p.a) * Mat2.identity()

    def test_rec_rejects_negative_index(self):
        with pytest.raises(ValueError):
            fib_matrix_rec(SeqParams(1, 1), -1)

    def test_binet_identity_at_zero(self):
        for p in SAMPLE:
            assert fib_matrix_binet(p, 0) == Mat2.identity()

    def test_binet_classical_n5(self):
        assert fib_matrix_binet(SeqParams(1, 1), 5) == Mat2(8, 5, 5, 3)

    def test_binet_equals_rec_asymmetric(self):
        p = SeqParams(2, 3)
        assert fib_matrix_binet(p, 7) == fib_matrix_rec(p, 7)


class TestLucasMatrix:
    def test_initial_matrices(self):
        for p in SAMPLE:
            a, b = p.a, p.b
            assert lucas_matrix_rec(p, 0) == Mat2(a, 2, 2 * a / b, -a)
            assert lucas_matrix_rec(p, 1) == Mat2(
                a * a + 2 * a / b, a, a * a / b, 2 * a / b
            )
            assert lucas_matrix_closed(p, 0) == lucas_matrix_rec(p, 0)

    def test_rec_one_step(self):
        assert lucas_matrix_rec(SeqParams(1, 1), 2) == Mat2(4, 3, 3, 1)

    def test_closed_example_a2_b1_n2(self):
        assert lucas_matrix_closed(SeqParams(2, 1), 2) == Mat2(10, 4, 8, 2)

    def test_closed_classical_n3(self):
        assert lucas_matrix_closed(SeqParams(1, 1), 3) == Mat2(7, 4, 4, 3)

    def test_binet_reproduces_seed(self):
        for p in SAMPLE:
            assert lucas_matrix_binet(p, 0) == lucas_matrix_rec(p, 0)

    def test_binet_classical_n4(self):
        assert lucas_matrix_binet(SeqParams(1, 1), 4) == Mat2(11, 7, 7, 4)

    def test_binet_equals_rec_fractional(self):
        p = SeqParams(F(1, 2), 3)
        assert lucas_matrix_binet(p, 6) == lucas_matrix_rec(p, 6)

    def test_backward_matrix_step(self):
        # L_{-1} = L_1 - a L_0, the recurrence run backward
        for p in SAMPLE:
            expected = lucas_matrix_closed(p, 1) - p.a * lucas_matrix_closed(p, 0)
            assert lucas_matrix_closed(p, -1) == expected


class TestTripleAgreement:
    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_all_three_routes_agree(self, p):
        rec_f = fib_matrix_rec_iter(p)
        rec_l = lucas_matrix_rec_iter(p)
        for n in range(26):
            cf = fib_matrix_closed(p, n)
            cl = lucas_matrix_closed(p, n)
            assert next(rec_f) == cf, (p, n)
            assert next(rec_l) == cl, (p, n)
            assert fib_matrix_binet(p, n) == cf, (p, n)
            assert lucas_matrix_binet(p, n) == cl, (p, n)

    @pytest.mark.parametrize(
        "p",
        [SeqParams(F(1, 2), F(5, 3)), SeqParams(5, 7), SeqParams(1, -3)],
        ids=str,
    )
    @pytest.mark.parametrize("n", [257, 300])
    def test_routes_agree_at_large_index(self, p, n):
        # big common denominators: sums in the recurrence meet gcd(d1, d2) != 1
        for rec, closed, binet in (
            (fib_matrix_rec, fib_matrix_closed, fib_matrix_binet),
            (lucas_matrix_rec, lucas_matrix_closed, lucas_matrix_binet),
        ):
            value = closed(p, n)
            assert rec(p, n) == value, (p, n)
            assert binet(p, n) == value, (p, n)
            assert value == rec(p, n), (p, n)

    # ab = 1 with a = 1/2^k; a = 1/2^40 with b = 3^30; a = 3, b = 1/3, where
    # den(b) cancels against a and leaves ab = 1; a negative parameter; a
    # negative r (ab = -8/3) and a square r (ab = 4/3, r = 64)
    @pytest.mark.parametrize("a, b", [(F(1, 2**20), 2**20), (F(1, 2**40), 3**30), (3, F(1, 3)),
                                      (F(-7, 4), F(9, 10)), (F(1, 2), F(-16, 3)), (2, F(2, 3))],
                             ids=str)
    def test_binet_coefficients_are_reduced(self, a, b, monkeypatch):
        # each coefficient is wrapped with no gcd of its own, so it must
        # come out of the small-prime reduction coprime, over a positive
        # denominator, and the matrices equal the recurrence route's
        made = []
        wrap = matrixseq._coprime_fraction
        monkeypatch.setattr(matrixseq, "_coprime_fraction",
                            lambda n, d: made.append((n, d)) or wrap(n, d))
        p = SeqParams(a, b)
        for n in (0, 1, 2, 3, 64, 65, 301, 1000):
            assert fib_matrix_binet(p, n) == fib_matrix_rec(p, n), (p, n)
            assert lucas_matrix_binet(p, n) == lucas_matrix_rec(p, n), (p, n)
        assert len(made) == 32
        assert all(d > 0 and math.gcd(n, d) == 1 for n, d in made)

    def test_headline_binet_form_agrees(self):
        # alternative closed form: F_n = A1 (alpha^n - beta^n)
        #   + B1 (alpha^(2 floor(n/2) + 2) - beta^(2 floor(n/2) + 2))
        # with A1 = [F1 - b F0]^eps(n) [a F1 - F0 - ab F0]^(1-eps(n))
        #   / ((ab)^floor(n/2) (alpha - beta))
        # and  B1 = b^eps(n) F0 / ((ab)^(floor(n/2)+1) (alpha - beta));
        # the alpha/beta factors are rational scalars on rational matrices.
        # alpha = ab/2 + sqrt(D)/2 is kept as a (rat, irr) pair over a formal
        # sqrt(D); beta is its conjugate, so alpha^k - beta^k = 2 irr_k sqrt(D)
        # and alpha - beta = sqrt(D): (alpha^k - beta^k)/(alpha - beta) = 2 irr_k
        def alpha_minus_beta_ratio(p, k):
            x, y = F(1), F(0)
            for _ in range(k):
                x, y = x * p.ab / 2 + y * p.ab * (p.ab + 4) / 2, x / 2 + y * p.ab / 2
            return 2 * y

        for p in SAMPLE:
            a, b, ab = p.a, p.b, p.ab
            f0 = Mat2.identity()
            f1 = Mat2(b, b / a, 1, 0)
            for n in range(0, 14):
                h = n // 2
                if eps(n):
                    a1_num = f1 - b * f0
                else:
                    a1_num = a * f1 - f0 - ab * f0
                s1 = alpha_minus_beta_ratio(p, n) / ab**h
                s2 = alpha_minus_beta_ratio(p, 2 * h + 2) / ab ** (h + 1)
                term1 = s1 * a1_num
                term2 = s2 * ((b ** eps(n)) * f0)
                assert term1 + term2 == fib_matrix_rec(p, n), (p, n)

    def test_wrong_binet_coefficient_leaves_residue(self):
        # negative control: the beta half reusing alpha is not rational.
        # alpha = (u + sqrt(r))/(2v) for ab = u/v and r = u(u + 4v), the
        # integer form the Binet route itself uses; r = 60 is not a square
        p = SeqParams(2, 3)
        u, v = p.ab.numerator, p.ab.denominator
        alpha = QuadElement(u, 1, 2 * v, u * (u + 4 * v))
        f0, f1 = Mat2.identity(), Mat2(p.b, p.b_over_a, 1, 0)
        with pytest.raises(IrrationalResidue):
            _binet(p, f1, lambda _: p.a, f0, lambda _: alpha - p.ab, 2)
        assert _binet(p, f1, lambda _: p.a, f0, lambda x: x - p.ab, 2) == (
            fib_matrix_rec(p, 4)
        )


class TestDegenerate:
    def test_binet_raises(self):
        p = SeqParams(2, -2)
        with pytest.raises(BinetDegenerate):
            fib_matrix_binet(p, 3)
        with pytest.raises(BinetDegenerate):
            lucas_matrix_binet(p, 3)

    def test_rec_and_closed_still_agree(self):
        p = SeqParams(2, -2)
        rec_f = fib_matrix_rec_iter(p)
        rec_l = lucas_matrix_rec_iter(p)
        for n in range(20):
            assert next(rec_f) == fib_matrix_closed(p, n)
            assert next(rec_l) == lucas_matrix_closed(p, n)

    def test_seed_is_nilpotent_when_degenerate(self):
        p = SeqParams(2, -2)
        l0 = lucas_matrix_closed(p, 0)
        assert l0 * l0 == Mat2.zero()


class TestDeterminantAndCassini:
    @pytest.mark.parametrize(
        "a,b,n,expected",
        [(1, 1, 0, -5), (2, 1, 0, -12), (1, 1, 1, 5)],
    )
    def test_lucas_det_examples(self, a, b, n, expected):
        assert lucas_det(SeqParams(a, b), n) == expected

    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_det_formula_matches_matrix(self, p):
        for n in range(-10, 31):
            assert lucas_matrix_closed(p, n).det() == lucas_det(p, n), (p, n)

    def test_cassini_examples(self):
        assert cassini_lucas_sides(SeqParams(1, 1), 2) == (-5, -5)  # 4*1 - 9 = 5*(-1)^3
        assert cassini_lucas_sides(SeqParams(2, 1), 1) == (6, 6)  # 8 - 2 = 6*(+1)^2

    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_cassini_range(self, p):
        for n in range(-30, 31):
            lhs, rhs = cassini_lucas_sides(p, n)
            assert lhs == rhs, (p, n)
            assert type(rhs) is F, (p, n)


# pairs with ab = -4, with D = ab(ab + 4) < 0 and with D a square, and a plain one
CLOSED_PAIRS = [
    SeqParams(2, -2),  # ab = -4
    SeqParams(F(-1, 2), 8),  # ab = -4
    SeqParams(F(1, 2), F(-3, 5)),  # D = -111/100
    SeqParams(-3, F(1, 3)),  # D = -3
    SeqParams(F(5, 3), F(-7, 4)),  # D = -455/144
    SeqParams(F(-3, 2), F(-3, 2)),  # D = 225/16
    SeqParams(F(1, 2), 1),  # D = 9/4
    SeqParams(2, 3),  # D = 60
]


@pytest.mark.parametrize("p", CLOSED_PAIRS, ids=str)
def test_closed_forms_equal_fraction_built_matrices(p):
    for n in range(-40, 41):
        w = (p.b / p.a) ** eps(n)
        fib = Mat2(w * q(p, n + 1), (p.b / p.a) * q(p, n), q(p, n), w * q(p, n - 1))
        w = (p.a / p.b) ** eps(n)
        lucas = Mat2(w * l(p, n + 1), l(p, n), (p.a / p.b) * l(p, n), w * l(p, n - 1))
        for got, want in ((fib_matrix_closed(p, n), fib), (lucas_matrix_closed(p, n), lucas)):
            assert got == want, (p, n)
            assert got.entries() == want.entries(), (p, n)
            assert got._form == want._form, (p, n)


@pytest.mark.parametrize("n", [50, -50, 1, -1, 49, -49])
@pytest.mark.parametrize("closed", [fib_matrix_closed, lucas_matrix_closed])
def test_cold_closed_term_fills_the_memo_in_one_walk(monkeypatch, closed, n):
    # the window's term farthest from 0 is read first, so the other two are
    # already stored when they are read
    starts = []
    walk = sequences._integer_walk

    def counted(*seeds):
        starts.append(seeds)
        return walk(*seeds)

    monkeypatch.setattr(sequences, "_integer_walk", counted)
    closed(SeqParams(F(1, 2), F(5, 3)), n)
    assert len(starts) == 1


class TestEntryConsistency:
    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_l_entries(self, p):
        for n in range(-12, 25):
            m = lucas_matrix_closed(p, n)
            assert m.e12 == l(p, n)
            assert m.e21 == (p.a / p.b) * l(p, n)
            assert m.e11 == (p.a / p.b) ** eps(n) * l(p, n + 1)
            assert m.e22 == (p.a / p.b) ** eps(n) * l(p, n - 1)

    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_q_entries(self, p):
        for n in range(-12, 25):
            m = fib_matrix_closed(p, n)
            assert m.e21 == q(p, n)
            assert m.e12 == (p.b / p.a) * q(p, n)


# every default-grid pair, one with ab = -4 and one with D < 0
TRANSFER_PAIRS = [*default_grid(), SeqParams(2, -2), SeqParams(F(1, 2), F(-3, 5))]


def _adj(m: Mat2) -> Mat2:
    return Mat2(m.e22, -m.e12, -m.e21, m.e11)


@pytest.mark.parametrize("p", default_grid(), ids=str)
def test_closed_forms_below_0_are_signed_adjugates_of_transfer_powers(p):
    # F_{-n} = (-1)^n adj(F_n) and L_{-n} = (-1)^(n+1) adj(L_n): the closed
    # form's signed reads below 0 against the transfer power at n >= 0
    for n in range(21):
        assert fib_matrix_closed(p, -n) == (-1) ** n * _adj(fib_matrix_rec(p, n)), (p, n)
        assert (lucas_matrix_closed(p, -n)
                == (-1) ** (n + 1) * _adj(lucas_matrix_rec(p, n))), (p, n)


@pytest.mark.parametrize("p", [p for p in TRANSFER_PAIRS if p.binet_allowed], ids=str)
def test_closed_forms_below_0_are_signed_adjugates_of_binet_forms(p):
    # the same sign identity read against the Binet route, D < 0 included
    for n in range(21):
        assert fib_matrix_closed(p, -n) == (-1) ** n * _adj(fib_matrix_binet(p, n)), (p, n)
        assert (lucas_matrix_closed(p, -n)
                == (-1) ** (n + 1) * _adj(lucas_matrix_binet(p, n))), (p, n)


class TestTransferPower:
    """``*_matrix_rec(p, n)`` is a transfer-matrix power; the walk
    ``*_matrix_rec_iter(p)`` is the independent reference."""

    @pytest.mark.parametrize("p", TRANSFER_PAIRS, ids=str)
    def test_single_term_equals_walk(self, p):
        # n = 0..64 covers both parities, the extra even step and n = 0, 1
        for rec, walk in ((fib_matrix_rec, fib_matrix_rec_iter),
                          (lucas_matrix_rec, lucas_matrix_rec_iter)):
            for n, term in enumerate(islice(walk(p), 65)):
                assert rec(p, n) == term, (p, rec.__name__, n)

    @pytest.mark.parametrize("rec", [fib_matrix_rec, lucas_matrix_rec])
    def test_negative_index_raises(self, rec):
        with pytest.raises(ValueError, match="needs n >= 0; use the closed form"):
            rec(SeqParams(2, 3), -1)

    def test_deep_terms_equal_binet_within_budget(self):
        p = SeqParams(F(1, 2), F(5, 3))
        elapsed = 0.0
        for rec, binet in ((fib_matrix_rec, fib_matrix_binet),
                           (lucas_matrix_rec, lucas_matrix_binet)):
            for n in (10**4, 10**4 + 1):
                start = time.perf_counter()
                value = rec(p, n)
                elapsed += time.perf_counter() - start
                assert value == binet(p, n), (rec.__name__, n)
        assert elapsed < 2.0, f"four deep rec terms took {elapsed:.2f}s, budget 2s"


# a fast pair (|ab| = 35), a slow one (ab = 5/6), a bounded one (ab = -1),
# one with ab = -4 and one with D < 0 that is not periodic
RANGE_PAIRS = [SeqParams(5, 7), SeqParams(F(1, 2), F(5, 3)), SeqParams(F(3, 2), F(-2, 3)),
               SeqParams(2, -2), SeqParams(F(1, 2), F(-3, 5))]


@pytest.mark.parametrize("p", RANGE_PAIRS, ids=str)
@pytest.mark.parametrize("lo, hi", [(0, 0), (1, 1), (12, 12), (13, 13), (0, 20), (1, 21),
                                    (12, 31), (13, 32)])
def test_range_rows_equal_transfer_powers(p, lo, hi):
    # from even and odd starts the walk steps with the coefficients of each
    # row's own parity; a one-row range is the one power itself
    for fib, rec in ((True, fib_matrix_rec), (False, lucas_matrix_rec)):
        rows = list(_rec_range(p, fib, lo, hi))
        assert rows == [rec(p, n) for n in range(lo, hi + 1)], (p, rec.__name__, lo, hi)
