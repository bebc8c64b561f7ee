import hashlib
from fractions import Fraction as F
from functools import cache
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biperiodic.exact import Mat2
from biperiodic.matrixseq import lucas_matrix_closed, lucas_matrix_rec_iter
from biperiodic.sequences import SeqParams
from biperiodic.series import (
    cleared_inverse_sums,
    direct_partial_sums,
    expand_rational,
    finite_inverse_sum_mismatch,
    finite_inverse_sum_sides,
    first_generating_mismatch,
    first_infinite_mismatch,
    infinite_inverse_sum_series,
    lucas_generating_series,
    lucas_partial_sum,
)

SAMPLE = [
    SeqParams(1, 1),
    SeqParams(2, 3),
    SeqParams(3, -1),
    SeqParams(F(1, 2), 4),
    SeqParams(F(-3, 2), F(-3, 2)),
]

# sha256 of the negative controls' outcomes on each SAMPLE pair, recorded
# before the series types were replaced by plain tuples and dicts: the
# finite mismatch (exponent, lhs, rhs) for n = 0..5, then the infinite one
NEGATIVE_CONTROL_DIGESTS = [
    "c93ce4590cad0023ee14e1115c4f31adddd166687d496eaea9ee966b3960ee34",
    "56f2909436c4b60a15ba081689ec2bdb35adf1955cbdf286fe16a18cd62eaf7f",
    "ecb66c48cedbdebd3678a391b3edee276e600b60ad9fb7f9db2688782282f02b",
    "9e6af005376f10d6765bdcf7812eb5faf6ada36e5ebb99a0465e9d7813efdd6e",
    "ef03bdafa92c56b210cc1ce488d54eb61833fa8a99ec79aa0672b3317a385758",
]


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
small_matrices = st.builds(Mat2, small_fractions, small_fractions, small_fractions, small_fractions)


def dense_long_division(num, den, order, zero):
    """c_k = (num_k - sum_{j=1..k} den_j c_{k-j}) / den_0, with every
    product made, zero and unit terms included."""
    out = []
    for k in range(order):
        acc = num[k] if k < len(num) else zero
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[j] * out[k - j]
        out.append(acc / den[0])
    return tuple(out)


class TestTruncatedSeries:
    def test_geometric_series(self):
        assert expand_rational([F(1)], [F(1), F(-1)], 8) == (1,) * 8

    def test_numerator_padded_with_zero(self):
        # x / (1 - x - x^2): the Fibonacci numbers, over a one-term numerator
        fib = expand_rational([F(0), F(1)], [1, -1, -1], 10)
        assert fib == (0, 1, 1, 2, 3, 5, 8, 13, 21, 34)

    def test_matrix_coefficients(self):
        swap = Mat2(0, 1, 1, 0)
        series = expand_rational([swap], [F(1), F(-2)], 4)
        assert series == tuple(2**k * swap for k in range(4))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            expand_rational([F(1)], [F(1)], 0)

    def test_constant_term_must_be_invertible(self):
        with pytest.raises(ZeroDivisionError):
            expand_rational([F(1)], [F(0), F(1)], 3)

    @given(
        st.sampled_from([F(1), F(-1), F(3, 2), F(-2, 5)]),
        st.lists(st.sampled_from([F(0), F(1), F(-1), F(3, 2), F(-5)]), max_size=5),
        st.one_of(st.lists(small_fractions, min_size=1, max_size=5),
                  st.lists(small_matrices, min_size=1, max_size=5)),
        st.integers(1, 12),
    )
    def test_matches_dense_long_division(self, head, tail, num, order):
        den = [head, *tail]
        zero = Mat2.zero() if isinstance(num[0], Mat2) else F(0)
        got = expand_rational(num, den, order)
        assert got == dense_long_division(num, den, order, zero)
        assert all(type(c) is type(zero) for c in got)


class TestGeneratingFunction:
    def test_first_two_coefficients_are_seeds(self):
        for p in SAMPLE:
            series = lucas_generating_series(p, 2)
            rec = lucas_matrix_rec_iter(p)
            assert len(series) == 2
            assert series[0] == next(rec)
            assert series[1] == next(rec)

    def test_classical_coefficient_four(self):
        series = lucas_generating_series(SeqParams(1, 1), 6)
        assert series[4] == Mat2(11, 7, 7, 4)

    def test_verify_small_orders(self):
        for p in SAMPLE:
            assert first_generating_mismatch(p, 2) is None

    def test_verify_order_30(self):
        assert first_generating_mismatch(SeqParams(1, 1), 30) is None
        assert first_generating_mismatch(SeqParams(3, -1), 30) is None

    def test_mismatch_reports_none_when_ok(self):
        assert first_generating_mismatch(SeqParams(2, 3), 25) is None

    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_mismatches_read_a_given_lucas_walk(self, p):
        walk = list(islice(lucas_matrix_rec_iter(p), 30))
        wrong = lambda k: Mat2.zero() if k == 5 else walk[k]
        assert first_generating_mismatch(p, 30, walk.__getitem__) is None
        assert first_generating_mismatch(p, 30, wrong) == 5
        for control in (False, True):
            assert first_infinite_mismatch(p, 30, control, walk.__getitem__) == (
                first_infinite_mismatch(p, 30, control)
            ), (p, control)
        assert first_infinite_mismatch(p, 30, lucas=wrong) == 5


class TestFiniteInverseSum:
    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_holds_from_zero(self, p):
        for n in range(0, 12):
            assert finite_inverse_sum_mismatch(p, n) is None, (p, n)

    def test_spec_style_cases(self):
        assert finite_inverse_sum_mismatch(SeqParams(1, 1), 7) is None
        assert finite_inverse_sum_mismatch(SeqParams(F(1, 2), 4), 10) is None

    @pytest.mark.parametrize("p", SAMPLE + [SeqParams(1, -2)], ids=str)
    def test_sides_hold_no_zero_coefficients(self, p):
        # ab = -2 zeroes the quartic's middle coefficient
        for n in range(0, 6):
            for side in finite_inverse_sum_sides(p, n):
                assert all(side.values()), (p, n)

    @pytest.mark.parametrize("p", SAMPLE + [SeqParams(1, -2)], ids=str)
    def test_walked_left_side_is_the_quartic_times_the_partial_sum(self, p):
        # the reference: every term of (1 - (ab+2)x^2 + x^4) sum_k L_k x^(n+2-k)
        lucas = cache(lambda k: lucas_matrix_closed(p, k))
        quartic = ((0, 1), (2, -(p.ab + 2)), (4, 1))
        for n, lhs in enumerate(islice(cleared_inverse_sums(p, lucas), 16)):
            want = {}
            for k in range(n + 1):
                for e, c in quartic:
                    at = n + 2 - k + e
                    want[at] = want.get(at, Mat2.zero()) + c * lucas(k)
            assert lhs == {e: v for e, v in want.items() if v}, (p, n)
            assert finite_inverse_sum_sides(p, n)[0] == lhs, (p, n)

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
            finite_inverse_sum_mismatch(SeqParams(1, 1), -1)


class TestInfiniteInverseSum:
    def test_coefficient_zero_is_seed(self):
        for p in SAMPLE:
            series = infinite_inverse_sum_series(p, 1)
            assert series == (next(lucas_matrix_rec_iter(p)),)

    def test_order_20(self):
        assert first_infinite_mismatch(SeqParams(1, 1), 20) is None
        assert first_infinite_mismatch(SeqParams(2, 3), 20) is None

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
        sums = islice(direct_partial_sums(p), 1, 51)
        for n, direct in enumerate(sums, start=1):
            assert lucas_partial_sum(p, n) == direct, (p, n)

    @pytest.mark.parametrize("p", SAMPLE, ids=str)
    def test_lucas_provider_gives_the_same_result(self, p):
        lucas = cache(lambda k: lucas_matrix_closed(p, k))
        for n in range(1, 13):
            assert lucas_partial_sum(p, n, lucas) == lucas_partial_sum(p, n), (p, n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            lucas_partial_sum(SeqParams(1, 1), 0)


@pytest.mark.parametrize(
    "p, digest", zip(SAMPLE, NEGATIVE_CONTROL_DIGESTS), ids=[str(p) for p in SAMPLE]
)
def test_negative_control_outcomes_are_pinned(p, digest):
    finite = [finite_inverse_sum_mismatch(p, n, negative_control=True) for n in range(6)]
    outcomes = [(e, str(lhs), str(rhs)) for e, lhs, rhs in finite]
    outcomes.append(first_infinite_mismatch(p, 10, negative_control=True))
    assert hashlib.sha256(str(outcomes).encode()).hexdigest() == digest
