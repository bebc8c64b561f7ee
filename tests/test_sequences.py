import copy
import math
import pickle
import random
import sys
import threading
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biperiodic import exact, sequences
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
        # Vieta on the roots in the Binet route's integer form: with ab = u/v
        # and r = u(u + 4v) = D v^2, 2v alpha, 2v beta = u +- sqrt(r), whose
        # sum 2u gives alpha + beta = ab and whose product
        # u^2 - r = -4uv gives alpha beta = -ab
        u, v = p.ab.numerator, p.ab.denominator
        r = u * (u + 4 * v)
        assert r == p.ab * (p.ab + 4) * v * v
        product = QuadElement(u, 1, r) * QuadElement(u, -1, r)
        assert (product.x, product.y) == (u * u - r, 0) == (-4 * u * v, 0)
        assert F(2 * u, 2 * v) == p.ab and F(-4 * u * v, 4 * v * v) == -p.ab
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


# integers (denominator 1), ab = -4, D < 0 (-4 < ab < 0) and large heights
RESUME_PAIRS = [(1, 1), (-3, 7), (2, -2), (F(-1, 2), 8), (1, -1), (F(3, 2), F(-2, 3)),
                (F(123457, 99991), F(-77777, 65537)), (F(-1000003, 7), F(5, 999983))]


@pytest.mark.parametrize("a, b", RESUME_PAIRS, ids=str)
def test_memo_fills_resumed_in_any_order_match_the_walk(a, b):
    # reads in a shuffled order over -60..60 make each fill resume at the
    # last two stored terms from an odd or an even j; a read below 0 fills
    # and signs the same list as one above. A read past the stored terms
    # fills through |n| + 2, so 61 to 63 terms are stored, by the order; at
    # ab = -1 index n mod 12 is read, so 12 to 14 are.
    rng = random.Random(20)
    reference = SeqParams(a, b)
    want = {n: (q_direct(reference, n), l_direct(reference, n)) for n in range(-60, 61)}
    period = 12 if a * b == -1 else 0
    for _ in range(4):
        order = list(want)
        rng.shuffle(order)
        p, end = SeqParams(a, b), 2
        for n in order:
            assert (q(p, n), l(p, n)) == want[n], (a, b, n)
            k = n % period if period else abs(n)
            end = k + 3 if k >= end else end
        stored = [t for _, _, _, terms, _ in (p._q, p._l) for t in terms]
        assert len(stored) == 2 * end
        assert end <= (period + 2 if period else 63)
        assert all(type(t) is F for t in stored)
        assert {n: (q(p, n), l(p, n)) for n in want} == want


def _pair(v: F) -> tuple[int, int]:
    return v.numerator, v.denominator


def _spell(v: tuple[int, int]) -> tuple[str, str]:
    # the text of the term and of the term times -3/2, as matrix texts pair them
    n, d = v
    return exact._fraction_text(n, d), str(F(-3 * n, 2 * d))


def _texts(v: F) -> tuple[str, str]:
    return str(v), str(v * F(-3, 2))


# (1/2, 5/3) grows, (5, 7) is integer, (3/2, -2/3) is periodic, where the
# integer walk restarts, and (2, -2) has ab = -4
RANGE_PAIRS = [(F(1, 2), F(5, 3)), (5, 7), (F(3, 2), F(-2, 3)), (2, -2)]


@pytest.mark.parametrize("a, b", RANGE_PAIRS, ids=str)
def test_range_reads_every_span_like_single_terms(a, b):
    # every lo <= hi in -7..8: starts below, at and above 0, odd and even lo,
    # single terms and ranges that end below 0; each on a fresh memo
    reference = SeqParams(a, b)
    for kernel, name in ((q_direct, "_q"), (l_direct, "_l")):
        want = {n: _texts(kernel(reference, n)) for n in range(-7, 9)}
        for lo in range(-7, 9):
            for hi in range(lo, 9):
                got = list(sequences._range(getattr(SeqParams(a, b), name), lo, hi, _spell))
                assert got == [want[n] for n in range(lo, hi + 1)], (a, b, name, lo, hi)


@pytest.mark.parametrize("a, b", RANGE_PAIRS, ids=str)
@pytest.mark.parametrize("lo, hi", [(-800, -790), (-799, -1), (-401, 5), (-5, 401), (0, 800),
                                    (600, 640), (777, 801)])
def test_long_ranges_match_single_terms(a, b, lo, hi):
    reference = SeqParams(a, b)
    for kernel, name in ((q, "_q"), (l, "_l")):
        got = list(sequences._range(getattr(SeqParams(a, b), name), lo, hi, _spell))
        assert got == [_texts(kernel(reference, n)) for n in range(lo, hi + 1)], (a, b, name)


def test_negated_texts_never_read_minus_zero():
    assert [sequences._negated(t) for t in ("0", "5", "-5", "3/2", "-3/2")] == [
        "0", "-5", "5", "-3/2", "3/2"]


def test_range_stores_nothing():
    # the range walks from the two seeds; each memo list keeps only them
    p = SeqParams(F(1, 2), F(5, 3))
    assert len(list(sequences._range(p._q, -30, 400, _spell))) == 431
    assert [p._q[3], p._l[3]] == [[0, 1], [2, F(1, 2)]]


@pytest.mark.parametrize("lo, hi, drawn, spelled", [
    (-300, 500, 501, 501), (-500, 300, 501, 501), (-300, 300, 301, 301),
    (-300, -200, 301, 101), (200, 300, 301, 101)])
def test_range_walks_once_up_to_the_farthest_index(monkeypatch, lo, hi, drawn, spelled):
    # the terms below 0 are signed copies of v_1..v_|lo|, so a range draws
    # max(|lo|, hi) + 1 terms from one walk, and one across 0 spells each
    # once: the texts of v_-k are those of v_k with their signs flipped
    pulled, spells = [], []
    walk = sequences._integer_walk

    def counted(*seeds):
        for v in walk(*seeds):
            pulled.append(v)
            yield v

    monkeypatch.setattr(sequences, "_integer_walk", counted)
    p = SeqParams(F(1, 2), F(5, 3))
    rows = list(sequences._range(p._q, lo, hi, lambda v: spells.append(v) or _spell(v)))
    assert len(rows) == hi - lo + 1
    assert (len(pulled), len(spells)) == (drawn, spelled)


def test_range_builds_no_fraction(monkeypatch):
    # the terms come out as the walk's reduced int pairs, spelled with no
    # Fraction built to hold them
    reference = SeqParams(F(1, 2), F(5, 3))
    want = [(str(q(reference, n)),) for n in range(-500, 501)]
    p = SeqParams(F(1, 2), F(5, 3))
    calls = []
    new = F.__new__
    monkeypatch.setattr(F, "__new__", staticmethod(
        lambda *args, **kwargs: calls.append(args) or new(*args, **kwargs)))
    assert F(1, 2) == F(2, 4) and len(calls) == 2
    calls.clear()
    got = list(sequences._range(p._q, -500, 500, lambda v: (exact._fraction_text(*v),)))
    assert calls == []
    monkeypatch.undo()
    assert got == want


def _seeded_periodic_pairs(seed: int, per_class: int) -> list:
    # (a, ab / a, P) for ab = -1, -2, -3 and a of height up to 30, either sign
    rng = random.Random(seed)
    return [(a, F(ab) / a, period) for ab, period in ((-1, 12), (-2, 8), (-3, 6))
            for a in (F(rng.randint(1, 30), rng.randint(1, 30)) * rng.choice((1, -1))
                      for _ in range(per_class))]


# ab = -1, -2 and -3 with integer, fractional and negative a
PERIODIC_PAIRS = [(F(3, 2), F(-2, 3), 12), (1, -1, 12), (F(1, 2), -4, 8), (-2, 1, 8),
                  (F(-1, 3), 9, 6), (3, -1, 6), *_seeded_periodic_pairs(34, 3)]


@pytest.mark.parametrize("a, b, period", PERIODIC_PAIRS, ids=str)
def test_periodic_terms_and_ranges_match_the_walk(a, b, period):
    # T^2 = (ab + 2) T - I makes the two-step transfer of order 6, 4 or 3,
    # so every term repeats with period 12, 8 or 6; the memo reads index
    # n mod P and keeps at most P + 2 terms, and a range spells P texts
    reference, p = SeqParams(a, b), SeqParams(a, b)
    assert (p._q[4], p._l[4]) == (period, period)
    span = range(-3 * period, 3 * period + 1)
    for kernel, direct, name in ((q, q_direct, "_q"), (l, l_direct, "_l")):
        want = [direct(reference, n) for n in span]
        assert [kernel(p, n) for n in span] == want, (a, b, name)
        assert len(getattr(p, name)[3]) <= period + 2
        spells = []
        got = list(sequences._range(getattr(SeqParams(a, b), name), span[0], span[-1],
                                    lambda v: spells.append(v) or _spell(v)))
        assert got == [_texts(v) for v in want], (a, b, name)
        assert len(spells) == period
        for lo, hi in ((0, 0), (-1, -1), (10**12, 10**12 + 3), (-(10**12), 5)):
            spells.clear()
            rows = sequences._range(getattr(SeqParams(a, b), name), lo, hi,
                                    lambda v: spells.append(v) or _spell(v))
            assert next(rows) == _texts(direct(reference, lo % period)), (a, b, name, lo)
            assert len(spells) == period


@pytest.mark.parametrize("a, b", [(2, -2), (F(1, 2), -1), (-5, 1), (F(1, 2), F(-3, 5)), (1, 1)],
                         ids=str)
def test_other_classes_have_no_period(a, b):
    # ab = -4, -1/2, -5, -3/10 and 1: T in SL2(Q) has finite order only for
    # trace ab + 2 in {-1, 0, 1}, since at trace -2 (ab = -4) it is not -I
    p = SeqParams(a, b)
    assert (p._q[4], p._l[4]) == (0, 0)


def test_memo_fill_does_no_fraction_arithmetic(monkeypatch):
    # the fill steps on integers and builds each stored term once
    p = SeqParams(F(1, 2), F(5, 3))
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        method = F.__dict__[name]
        monkeypatch.setattr(F, name, lambda x, y, method=method, name=name: (
            calls.append(name) or method(x, y)))
    assert (F(1) + F(2)) * F(3) == 9 and calls == ["__add__", "__mul__"]
    calls.clear()
    q(p, 500)
    l(p, -501)
    assert calls == []
    monkeypatch.undo()
    assert (q(p, 500), l(p, -501)) == (q_direct(p, 500), l_direct(p, -501))


@pytest.mark.parametrize("a, b", [(F(3, 2), F(-2, 3)), (F(1, 2), -4), (F(1, 2), F(5, 3))],
                         ids=str)
def test_integer_walk_restarts_only_where_denominators_stay_small(a, b, monkeypatch):
    # D < 0 makes q periodic, so its unreduced denominator would outgrow the
    # terms' own; where the terms' denominators grow too, one start suffices
    starts = []
    monkeypatch.setattr(sequences, "lcm", lambda *x: starts.append(x) or math.lcm(*x))
    p = SeqParams(a, b)
    walk = list(islice(sequences._integer_walk(F(0), F(1), p.a, p.b), 2001))
    want = islice(sequences.alternating_walk(F(0), F(1), p.a, p.b), 2001)
    assert walk == [_pair(v) for v in want]
    if p.ab * (p.ab + 4) < 0:
        assert 10 < len(starts) < 100, len(starts)
    else:
        assert len(starts) == 1


# (a, b, terms): ab = 1 with a = 1/2^k, where the unreduced denominator
# shares a large power of 2 with the numerator; negative parameters; a
# periodic pair (ab = -3) with prime-power denominators; a = 1/2^40 with
# b = 3^30. The reference walk on Fractions takes 9.5 s for 3,000 terms of
# the last pair, so that pair is checked over 600.
REDUCTION_PAIRS = [(F(1, 2**20), 2**20, 3000), (F(1, 2**3), 2**3, 3000), (F(-3, 2), F(5, 3), 3000),
                   (F(1, 3**5), F(-3**6), 3000), (F(1, 2**40), 3**30, 600)]


@pytest.mark.parametrize("a, b, terms", REDUCTION_PAIRS, ids=str)
def test_integer_walk_reduces_like_the_fraction_walk(a, b, terms):
    p = SeqParams(a, b)
    for even, odd, _, seeds, _ in (p._q, p._l):
        walk = islice(sequences._integer_walk(*seeds, even, odd), terms)
        want = islice(sequences.alternating_walk(*seeds, even, odd), terms)
        assert list(walk) == [_pair(v) for v in want], (a, b, seeds)


def test_walk_reduces_by_short_gcds_only(monkeypatch):
    # each term is reduced by the few small primes of its denominator: no
    # gcd call has more than one argument over 64 bits, although the terms
    # have thousands of bits
    calls = []

    def counted(*args):
        calls.append(args)
        return math.gcd(*args)

    # both modules' gcd names, whether or not each imports one today
    for module in (sequences, exact):
        monkeypatch.setattr(module, "gcd", counted, raising=False)
    term = q(SeqParams(F(1, 2), F(5, 3)), 1999)
    monkeypatch.undo()
    assert term.denominator.bit_length() > 1000 and len(calls) >= 2000
    assert all(sum(x.bit_length() > 64 for x in args) <= 1 for args in calls)


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
