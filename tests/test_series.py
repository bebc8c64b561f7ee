from fractions import Fraction as F
from functools import cache
from itertools import islice

import pytest

from biperiodic.exact import Mat2
from biperiodic.matrixseq import lucas_matrix_closed, lucas_matrix_rec_iter
from biperiodic.sequences import SeqParams
from biperiodic.series import (
    LaurentPoly,
    TruncatedSeries,
    expand_rational,
    finite_inverse_sum_mismatch,
    first_generating_mismatch,
    first_infinite_mismatch,
    infinite_inverse_sum_series,
    lucas_generating_series,
    lucas_partial_sum,
    verify_finite_inverse_sum,
    verify_generating_function,
    verify_infinite_inverse_sum,
    verify_partial_sum,
)

SAMPLE = [
    SeqParams(1, 1),
    SeqParams(2, 3),
    SeqParams(3, -1),
    SeqParams(F(1, 2), 4),
    SeqParams(F(-3, 2), F(-3, 2)),
]


class TestTruncatedSeries:
    def test_geometric_series(self):
        ones = expand_rational([F(1)], [F(1), F(-1)], 8)
        assert list(ones.coeffs) == [1] * 8

    def test_order_validation(self):
        with pytest.raises(ValueError):
            TruncatedSeries([F(1)], 0)


class TestLaurentPoly:
    def test_zero_coefficients_dropped(self):
        p = LaurentPoly({3: F(0), -2: F(5)})
        assert p.support() == [-2]

    def test_add_and_cancel(self):
        p = LaurentPoly({1: F(2)})
        assert not (p - p)

    def test_mul_with_negative_exponents(self):
        p = LaurentPoly({-1: F(1), 2: F(3)})
        sq = p * p
        assert sq == LaurentPoly({-2: F(1), 1: F(6), 4: F(9)})

    def test_matrix_valued(self):
        p = LaurentPoly({0: Mat2.identity()})
        q = LaurentPoly({-2: Mat2(0, 1, 1, 0)})
        assert (p * q).coefficient(-2) == Mat2(0, 1, 1, 0)


class TestGeneratingFunction:
    def test_first_two_coefficients_are_seeds(self):
        for p in SAMPLE:
            series = lucas_generating_series(p, 2)
            rec = lucas_matrix_rec_iter(p)
            assert series.coefficient(0) == next(rec)
            assert series.coefficient(1) == next(rec)

    def test_classical_coefficient_four(self):
        series = lucas_generating_series(SeqParams(1, 1), 6)
        assert series.coefficient(4) == Mat2(11, 7, 7, 4)

    def test_verify_small_orders(self):
        for p in SAMPLE:
            assert verify_generating_function(p, 2)

    def test_verify_order_30(self):
        assert verify_generating_function(SeqParams(1, 1), 30)
        assert verify_generating_function(SeqParams(3, -1), 30)

    def test_mismatch_reports_none_when_ok(self):
        assert first_generating_mismatch(SeqParams(2, 3), 25) is None


class TestFiniteInverseSum:
    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_holds_from_zero(self, p):
        for n in range(0, 12):
            assert verify_finite_inverse_sum(p, n), (p, n)

    def test_spec_style_cases(self):
        assert verify_finite_inverse_sum(SeqParams(1, 1), 7)
        assert verify_finite_inverse_sum(SeqParams(F(1, 2), 4), 10)

    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_negative_control_fails_everywhere(self, p):
        for n in range(0, 6):
            mismatch = finite_inverse_sum_mismatch(p, n, negative_control=True)
            assert mismatch is not None, (p, n)

    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_lucas_provider_gives_the_same_result(self, p):
        lucas = cache(lambda k: lucas_matrix_closed(p, k))
        for n in range(0, 13):
            for control in (False, True):
                assert finite_inverse_sum_mismatch(p, n, control, lucas) == (
                    finite_inverse_sum_mismatch(p, n, control)
                ), (p, n, control)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            verify_finite_inverse_sum(SeqParams(1, 1), -1)


class TestInfiniteInverseSum:
    def test_coefficient_zero_is_seed(self):
        for p in SAMPLE:
            series = infinite_inverse_sum_series(p, 1)
            assert series.coefficient(0) == next(lucas_matrix_rec_iter(p))

    def test_order_20(self):
        assert verify_infinite_inverse_sum(SeqParams(1, 1), 20)
        assert verify_infinite_inverse_sum(SeqParams(2, 3), 20)

    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_negative_control_first_mismatch_at_two(self, p):
        assert first_infinite_mismatch(p, 10, negative_control=True) == 2


class TestPartialSum:
    def test_single_term(self):
        for p in SAMPLE:
            assert lucas_partial_sum(p, 1) == next(lucas_matrix_rec_iter(p))

    def test_classical_five_terms(self):
        assert lucas_partial_sum(SeqParams(1, 1), 5) == Mat2(26, 17, 17, 9)

    def test_direct_sum_example(self):
        p = SeqParams(2, 1)
        direct = Mat2.zero()
        for term in islice(lucas_matrix_rec_iter(p), 4):
            direct = direct + term
        assert lucas_partial_sum(p, 4) == direct

    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_formula_matches_direct_sum(self, p):
        for n in range(1, 51):
            assert verify_partial_sum(p, n), (p, n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            lucas_partial_sum(SeqParams(1, 1), 0)
