import copy
import pickle
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biperiodic.exact import Mat2, QuadElement
from biperiodic.identities import default_grid
from biperiodic.sequences import (
    SeqParams,
    eps,
    fib_from_lucas_sides,
    l,
    l_direct,
    lucas_from_fib_sides,
    q,
    q_direct,
)

params_values = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(
    lambda x: x != 0
)


class TestSeqParams:
    def test_zero_parameters_rejected(self):
        with pytest.raises(ValueError, match="parameter a must be nonzero"):
            SeqParams(0, 1)
        with pytest.raises(ValueError, match="parameter b must be nonzero"):
            SeqParams(1, 0)

    @given(params_values, params_values)
    def test_derived_quantities(self, a, b):
        p = SeqParams(a, b)
        assert p.ab == a * b
        assert p.disc == a * b * (a * b + 4)
        assert p.disc == a * a * b * b + 4 * a * b
        # Vieta on the roots in the Binet route's integer form: with ab = u/v
        # and r = u(u + 4v) = D v^2, alpha, beta = (u +- sqrt(r))/(2v), so
        # alpha + beta = ab and alpha beta = -ab
        u, v = p.ab.numerator, p.ab.denominator
        r = u * (u + 4 * v)
        assert r == p.disc * v * v
        alpha = QuadElement(u, 1, 2 * v, r)
        beta = alpha.conj()
        for value, want in ((alpha - (-1) * beta, p.ab), (alpha * beta, -p.ab)):
            assert (F(value.x, value.d), value.y) == (want, 0)
        assert p.binet_allowed == (a * b != -4)

    def test_degenerate_flag(self):
        assert not SeqParams(2, -2).binet_allowed
        assert not SeqParams(F(-1, 2), 8).binet_allowed
        assert SeqParams(1, 1).binet_allowed

    @pytest.mark.parametrize("a, b", [(2, 3), (F(-3, 2), F(5, 3)), (F(1, 2), -4)])
    def test_ratio_times_matches_power_product(self, a, b):
        p = SeqParams(a, b)
        values = (Mat2(F(1, 2), -3, F(2, 9), 5), F(-7, 4), F(0))
        for _ in range(2):  # the second round reads the stored powers
            for e in range(-7, 8):
                for x in values:
                    got = p.ratio_times(e, x)
                    assert type(got) is type(x)
                    assert got == (F(b) / F(a)) ** e * x, (e, x)

    @pytest.mark.parametrize("a, b", [(0.1, 1), (1, 0.5), ("1/2", 3), (1, "3")],
                             ids=["float-a", "float-b", "str-a", "str-b"])
    def test_non_rational_parameters_rejected(self, a, b):
        with pytest.raises(TypeError, match="int or a Fraction"):
            SeqParams(a, b)


class TestParityHelpers:
    @pytest.mark.parametrize("n,expected", [(1, 1), (0, 0), (-3, 1), (-4, 0), (7, 1)])
    def test_eps(self, n, expected):
        assert eps(n) == expected


class TestScalarKernels:
    def test_fib_seed(self):
        p = SeqParams(F(5, 3), F(-3, 2))
        assert q(p, 0) == 0
        assert q(p, 1) == 1

    def test_fib_example_a2_b1(self):
        p = SeqParams(2, 1)
        assert [q(p, n) for n in range(6)] == [0, 1, 2, 3, 8, 11]
        assert q(p, 4) == 8

    def test_fib_backward_minus_one(self):
        for a, b in [(2, 1), (F(1, 2), 4), (-3, F(5, 3))]:
            assert q(SeqParams(a, b), -1) == 1

    def test_lucas_seed(self):
        p = SeqParams(F(7, 2), 5)
        assert l(p, 0) == 2
        assert l(p, 1) == F(7, 2)

    def test_lucas_example_a2_b1(self):
        p = SeqParams(2, 1)
        assert [l(p, n) for n in range(4)] == [2, 2, 4, 10]
        assert l(p, 3) == 10

    def test_lucas_backward_minus_one(self):
        for a, b in [(2, 1), (F(1, 2), 4), (-3, F(5, 3))]:
            assert l(SeqParams(a, b), -1) == -a

    def test_classical_fibonacci_and_lucas(self):
        p = SeqParams(1, 1)
        assert [q(p, n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
        assert [l(p, n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]

    def test_pell_specialization(self):
        p = SeqParams(2, 2)
        assert [q(p, n) for n in range(6)] == [0, 1, 2, 5, 12, 29]
        assert [l(p, n) for n in range(5)] == [2, 2, 6, 14, 34]

    def test_classical_negative_index_pattern(self):
        p = SeqParams(1, 1)
        # F_{-n} = (-1)^(n+1) F_n and L_{-n} = (-1)^n L_n
        for n in range(1, 12):
            assert q(p, -n) == (-1) ** (n + 1) * q(p, n)
            assert l(p, -n) == (-1) ** n * l(p, n)

    def test_backward_two_steps(self):
        for a, b in [(2, 3), (F(1, 2), 4)]:
            p = SeqParams(a, b)
            assert q(p, -2) == -a
            assert l(p, -2) == a * b + 2

    @given(params_values, params_values, st.integers(-30, 60))
    def test_memoized_equals_direct(self, a, b, n):
        p = SeqParams(a, b)
        assert q(p, n) == q_direct(p, n)
        assert l(p, n) == l_direct(p, n)

    @given(params_values, params_values, st.integers(-25, 55))
    def test_recurrence_steps_hold_everywhere(self, a, b, n):
        p = SeqParams(a, b)
        cq = a if n % 2 == 0 else b
        assert q(p, n) == cq * q(p, n - 1) + q(p, n - 2)
        cl = a if n % 2 == 1 else b
        assert l(p, n) == cl * l(p, n - 1) + l(p, n - 2)


def _sides_equal(sides) -> bool:
    lhs, rhs = sides
    return lhs == rhs


class TestCrossRelations:
    def test_spec_examples(self):
        p21 = SeqParams(2, 1)
        assert _sides_equal(lucas_from_fib_sides(p21, 2))
        assert _sides_equal(fib_from_lucas_sides(p21, 2))
        assert _sides_equal(lucas_from_fib_sides(p21, 0))
        assert _sides_equal(fib_from_lucas_sides(SeqParams(3, F(1, 3)), 0))
        p11 = SeqParams(1, 1)
        assert _sides_equal(lucas_from_fib_sides(p11, 5))
        assert _sides_equal(fib_from_lucas_sides(p11, 3))

    def test_full_grid_window(self):
        for p in default_grid():
            for n in range(-20, 51):
                assert _sides_equal(lucas_from_fib_sides(p, n)), (p, n)
                assert _sides_equal(fib_from_lucas_sides(p, n)), (p, n)


def test_concurrent_memo_fills_are_consistent():
    # eight threads released together race to fill fresh memo tables in both
    # directions; a short switch interval makes interleaved fills likely
    reference = SeqParams(F(2, 3), -5)
    expected = {n: (q_direct(reference, n), l_direct(reference, n)) for n in range(-300, 301)}
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(20):
            p = SeqParams(F(2, 3), -5)
            start = threading.Barrier(8)

            def fill(thread_no, p=p, start=start):
                start.wait()
                for n in (300, -300) if thread_no % 2 else (-300, 300):
                    q(p, n)
                    l(p, n)

            threads = [threading.Thread(target=fill, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for n, values in expected.items():
                assert (q(p, n), l(p, n)) == values, (round_no, n)
    finally:
        sys.setswitchinterval(old_interval)


def test_concurrent_ratio_reads_are_exact():
    # eight threads share one instance's stored (b/a)^e, walking the
    # exponents in opposite orders; every read must be the exact power
    a, b = F(2, 3), F(-5)
    ratios = {e: (b / a) ** e for e in range(-9, 10)}
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(10):
            p = SeqParams(a, b)
            start = threading.Barrier(8)
            wrong = []

            def read(thread_no, p=p, start=start, wrong=wrong):
                start.wait()
                for k in range(30) if thread_no % 2 else range(29, -1, -1):
                    e = k % 19 - 9
                    if p.ratio_times(e, F(1)) != ratios[e]:
                        wrong.append((thread_no, k))

            threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), round_no
            assert not wrong, (round_no, wrong)
    finally:
        sys.setswitchinterval(old_interval)


def test_params_pickle_and_deepcopy_with_filled_memo():
    p = SeqParams(F(2, 3), -5)
    for n in (-40, 40):
        q(p, n)
        l(p, n)
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        c = copy_of(p)
        assert c == p
        for n in range(-45, 46):
            assert (q(c, n), l(c, n)) == (q(p, n), l(p, n)), n
