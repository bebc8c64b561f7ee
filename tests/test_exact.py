import math
import operator
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biperiodic.exact import (
    IrrationalResidue,
    Mat2,
    MismatchedDiscriminant,
    QuadElement,
    rational_sqrt,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonzero_rationals = rationals.filter(lambda x: x != 0)
# positive non-square, negative, perfect-square, and fractional discriminants
discs = st.sampled_from([F(5), F(2), F(12), F(-3), F(-7, 4), F(9, 4), F(225, 16), F(4)])


@st.composite
def quad_tuples(draw, count=1):
    d = draw(discs)
    return tuple(
        QuadElement(draw(rationals), draw(rationals), d) for _ in range(count)
    )


class TestRational:
    def test_textbook_addition(self):
        assert F(1, 2) + F(1, 3) == F(5, 6)

    def test_inverse_pair(self):
        assert F(2, 3) * F(3, 2) == 1

    def test_inverting_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            1 / F(0)

    @given(rationals, rationals)
    def test_canonical_form_after_ops(self, x, y):
        for value in (x + y, x * y, x - y):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1
        assert F(0).denominator == 1

    @given(rationals, rationals, rationals)
    def test_field_axioms(self, x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z

    @given(nonzero_rationals)
    def test_multiplicative_inverse(self, x):
        assert x * (1 / x) == 1


class TestQuadElement:
    def test_sqrt_disc_squares_to_disc(self):
        root = QuadElement.sqrt_disc(5)
        assert root * root == QuadElement(5, 0, 5)

    def test_one_is_neutral(self):
        x = QuadElement(F(2, 3), F(-1, 7), 5)
        assert QuadElement(1, 0, 5) * x == x

    def test_golden_ratio_square(self):
        # phi^2 = phi + 1 in Q(sqrt(5))
        phi = QuadElement(F(1, 2), F(1, 2), 5)
        assert phi * phi == QuadElement(F(3, 2), F(1, 2), 5)

    def test_power_examples(self):
        phi = QuadElement(F(1, 2), F(1, 2), 5)
        assert phi**0 == QuadElement(1, 0, 5)
        assert phi**1 == phi
        assert phi**3 == QuadElement(2, 1, 5)

    @given(quad_tuples(1), st.integers(0, 32), st.integers(0, 32))
    def test_power_is_additive(self, xs, m, n):
        (x,) = xs
        assert x ** (m + n) == x**m * x**n

    @given(quad_tuples(3))
    def test_ring_axioms(self, xs):
        x, y, z = xs
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(quad_tuples(2))
    def test_conjugation_is_a_homomorphism(self, xs):
        x, y = xs
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()

    def test_mismatched_discriminants_raise(self):
        with pytest.raises(MismatchedDiscriminant):
            QuadElement(1, 1, 5) * QuadElement(1, 1, 7)
        with pytest.raises(MismatchedDiscriminant):
            QuadElement(1, 1, 5) + QuadElement(1, 1, 7)

    def test_perfect_square_disc_normalizes(self):
        # sqrt(9/4) = 3/2, so 1 + 2*sqrt(9/4) is the rational 4
        x = QuadElement(1, 2, F(9, 4))
        assert x.is_rational()
        assert x == F(4)
        assert x.to_rational() == 4

    def test_negative_disc_is_never_rational(self):
        x = QuadElement(0, 1, -4)  # 2i, not +-2
        assert not x.is_rational()
        assert x != F(2)
        assert x != F(-2)

    def test_nonsquare_disc_keeps_sqrt(self):
        x = QuadElement(1, 1, 5)
        assert not x.is_rational()
        with pytest.raises(IrrationalResidue):
            x.to_rational()

    def test_cross_disc_equality_of_rational_values(self):
        assert QuadElement(3, 0, 5) == QuadElement(3, 0, 7)
        assert QuadElement(0, 2, F(9, 4)) == QuadElement(3, 0, 11)

    @given(quad_tuples(1))
    def test_inverse_when_norm_nonzero(self, xs):
        (x,) = xs
        if x.norm() == 0:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == 1

    def test_zero_divisor_with_square_disc(self):
        # (3/2 + sqrt(9/4)) * (3/2 - sqrt(9/4)) = 0 without either factor
        # being structurally zero
        x = QuadElement(F(3, 2), -1, F(9, 4))
        assert x.norm() == 0
        assert x == 0
        with pytest.raises(ZeroDivisionError):
            x.inverse()

    def test_rational_sqrt(self):
        assert rational_sqrt(F(225, 16)) == F(15, 4)
        assert rational_sqrt(F(4)) == 2
        assert rational_sqrt(F(5)) is None
        assert rational_sqrt(F(-9)) is None
        assert rational_sqrt(F(0)) == 0


class TestMat2:
    def test_identity_is_neutral(self):
        a = Mat2(F(1, 2), 3, F(-2, 5), 7)
        assert Mat2.identity() * a == a
        assert a * Mat2.identity() == a

    def test_det_of_lucas_seed(self):
        # [[a, 2], [2a/b, -a]] at a = b = 1 has determinant -a^2 - 4a/b = -5
        assert Mat2(1, 2, 2, -1).det() == -5

    def test_pow_matches_definition(self):
        a = Mat2(F(1, 2), 1, 1, 0)
        assert a**2 == a * a
        assert a**0 == Mat2.identity()

    @given(st.lists(rationals, min_size=8, max_size=8))
    def test_det_is_multiplicative(self, entries):
        a = Mat2(*entries[:4])
        b = Mat2(*entries[4:])
        assert (a * b).det() == a.det() * b.det()

    @given(st.lists(rationals, min_size=4, max_size=4), st.integers(0, 16))
    def test_pow_matches_iterated_multiplication(self, entries, n):
        a = Mat2(*entries)
        expected = Mat2.identity()
        for _ in range(n):
            expected = expected * a
        assert a**n == expected

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Mat2.identity() ** -1

    def test_scalar_multiplication_both_sides(self):
        a = Mat2(1, 2, 3, 4)
        assert 2 * a == a * 2 == Mat2(2, 4, 6, 8)
        assert F(1, 2) * a == Mat2(F(1, 2), 1, F(3, 2), 2)

    def test_scalar_division(self):
        assert Mat2(2, 4, 6, 8) / 2 == Mat2(1, 2, 3, 4)

    def test_quadratic_entries_and_scalars_rejected(self):
        root = QuadElement.sqrt_disc(5)
        with pytest.raises(TypeError):
            Mat2(root, 0, 0, 1)
        with pytest.raises(TypeError):
            Mat2.identity() * root
        with pytest.raises(TypeError):
            root * Mat2.identity()

    def test_trace(self):
        assert Mat2(1, 2, 3, 4).trace() == 5


def _entrywise(a, b, op):
    return tuple(op(x, y) for x, y in zip(a, b))


def _ref_mul(a, b):
    """Entry-wise Fraction product of two row-major 4-tuples."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (
        a11 * b11 + a12 * b21,
        a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21,
        a21 * b12 + a22 * b22,
    )


def _ref_pow(a, n):
    result = (F(1), F(0), F(0), F(1))
    for _ in range(n):
        result = _ref_mul(result, a)
    return result


def _fraction_entries(m):
    entries = m.entries()
    assert all(type(e) is F for e in entries)
    return entries


four_rationals = st.tuples(rationals, rationals, rationals, rationals)
scalars = st.one_of(rationals, st.integers(-30, 30))


class TestMat2IntegerForm:
    """Integer-form arithmetic against an entry-wise Fraction reference."""

    @given(four_rationals, four_rationals)
    def test_add_sub_mul(self, x, y):
        a, b = Mat2(*x), Mat2(*y)
        assert _fraction_entries(a + b) == _entrywise(x, y, operator.add)
        assert _fraction_entries(a - b) == _entrywise(x, y, operator.sub)
        assert _fraction_entries(a * b) == _ref_mul(x, y)
        assert _fraction_entries(-a) == tuple(-u for u in x)

    @given(four_rationals, four_rationals, four_rationals)
    def test_chained_results_stay_canonical(self, x, y, z):
        # operands that were themselves produced by integer arithmetic
        a, b, c = Mat2(*x), Mat2(*y), Mat2(*z)
        ref_ab = _ref_mul(x, y)
        assert _fraction_entries(a * b + c) == _entrywise(ref_ab, z, operator.add)
        assert _fraction_entries(a * b - c * c) == _entrywise(
            ref_ab, _ref_mul(z, z), operator.sub
        )
        assert a * b - c == Mat2(*_entrywise(ref_ab, z, operator.sub))

    @given(four_rationals, scalars)
    def test_scalar_mul_and_div(self, x, c):
        a = Mat2(*x)
        want = tuple(u * c for u in x)
        assert _fraction_entries(a * c) == want
        assert _fraction_entries(c * a) == want
        assert _fraction_entries((a * a) * c) == tuple(u * c for u in _ref_mul(x, x))
        if c == 0:
            with pytest.raises(ZeroDivisionError):
                a / c
        else:
            assert _fraction_entries(a / c) == tuple(u / c for u in x)
            assert _fraction_entries((a * a) / c) == tuple(u / c for u in _ref_mul(x, x))

    @given(four_rationals, four_rationals)
    def test_det_and_trace(self, x, y):
        a = Mat2(*x)
        prod = a * Mat2(*y)
        ref = _ref_mul(x, y)
        assert a.det() == x[0] * x[3] - x[1] * x[2]
        assert a.trace() == x[0] + x[3]
        assert prod.det() == ref[0] * ref[3] - ref[1] * ref[2]
        assert prod.trace() == ref[0] + ref[3]
        assert type(prod.det()) is F and type(prod.trace()) is F

    @given(four_rationals, st.integers(0, 12))
    def test_pow(self, x, n):
        assert _fraction_entries(Mat2(*x) ** n) == _ref_pow(x, n)

    @given(four_rationals, four_rationals)
    def test_equality_matches_entries(self, x, y):
        assert (Mat2(*x) == Mat2(*y)) == (x == y)
        # one side in integer form only, the other with Fractions only
        assert (Mat2(*x) * Mat2.identity() == Mat2(*y)) == (x == y)
        assert (Mat2(*x) + Mat2.zero() == Mat2(*y) * 1) == (x == y)
        prod = Mat2(*x) * Mat2(*y)
        rebuilt = Mat2(*_ref_mul(x, y))
        assert prod == rebuilt
        assert rebuilt == prod
        assert bool(prod) == any(_ref_mul(x, y))

    def test_equality_across_construction_paths(self):
        assert Mat2(F(2, 4), F(6, 3), 0, -1) == Mat2(F(1, 2), 2, F(0, 7), F(-3, 3))
        assert Mat2(F(1, 2), 0, 0, 1) * 2 == Mat2(1, 0, 0, 2)
        assert Mat2(F(1, 3), 0, 0, 0) + Mat2(F(2, 3), 0, 0, 0) == Mat2(1, 0, 0, 0)
        assert Mat2(F(1, 6), F(1, 4), 0, 0) - Mat2(F(1, 6), F(1, 4), 0, 0) == Mat2.zero()
        assert Mat2(F(1, 2), 1, 1, 0) != Mat2(F(1, 2), 1, 1, F(1, 2))

    def test_entries_are_read_only(self):
        a = Mat2(1, F(1, 2), 3, 4)
        for name in ("e11", "e12", "e21", "e22"):
            with pytest.raises(AttributeError):
                setattr(a, name, F(5))
        assert a.entries() == (1, F(1, 2), 3, 4)

    def test_integer_results_read_as_fractions(self):
        a = Mat2(F(1, 2), 1, 1, 0) * Mat2(2, 0, 0, 2)
        assert a.e11 == 1 and type(a.e11) is F
        assert a.rows() == [[1, 2], [2, 0]]
        assert repr(a) == "Mat2(Fraction(1, 1), Fraction(2, 1), Fraction(2, 1), Fraction(0, 1))"
        assert str(a / 4) == "[[1/4, 1/2], [1/2, 0]]"



# a denominator (5/4), a perfect square (225/16), negative (-3, -7/4), and
# 20, whose r = num * den equals that of 5/4
quad_discs = st.sampled_from([F(5), F(5, 4), F(225, 16), F(-3), F(-7, 4), F(20)])
two_rationals = st.tuples(rationals, rationals)


def _quad_ref_mul(x, y, disc):
    """(rat, irr) product of two Fraction pairs over sqrt(disc)."""
    return (x[0] * y[0] + x[1] * y[1] * disc, x[0] * y[1] + x[1] * y[0])


def _quad_ref_inverse(x, disc):
    n = x[0] * x[0] - x[1] * x[1] * disc
    return (x[0] / n, -x[1] / n)


def _quad_ref_normalized(x, disc):
    root = rational_sqrt(disc)
    if root is None:
        return x
    return (x[0] + x[1] * root, F(0))


def _parts(q):
    """(rat, irr) of q, checking the Fraction views and the canonical form."""
    assert type(q.rat) is F and type(q.irr) is F and type(q.disc) is F
    assert q._d > 0 and math.gcd(q._x, q._y, q._d) == 1
    return q.rat, q.irr


class TestQuadIntegerForm:
    """Integer-form QuadElement arithmetic against a (rat, irr) Fraction reference."""

    @given(quad_discs, two_rationals, two_rationals, two_rationals)
    def test_add_sub_mul(self, disc, x, y, z):
        a, b, c = (QuadElement(*u, disc) for u in (x, y, z))
        assert _parts(a) == x
        assert _parts(a + b) == (x[0] + y[0], x[1] + y[1])
        assert _parts(a - b) == (x[0] - y[0], x[1] - y[1])
        assert _parts(-a) == (-x[0], -x[1])
        xy = _quad_ref_mul(x, y, disc)
        assert _parts(a * b) == xy
        # operands that were themselves produced by integer arithmetic
        assert _parts(a * b - c) == (xy[0] - z[0], xy[1] - z[1])
        assert _parts((a * b) * (c + a)) == _quad_ref_mul(
            xy, (z[0] + x[0], z[1] + x[1]), disc
        )

    @given(quad_discs, two_rationals, scalars)
    def test_rational_operands(self, disc, x, c):
        a = QuadElement(*x, disc)
        scaled = (x[0] * c, x[1] * c)
        assert _parts(a * c) == _parts(c * a) == scaled
        assert _parts(a + c) == _parts(c + a) == (x[0] + c, x[1])
        assert _parts(a - c) == (x[0] - c, x[1])
        assert _parts(c - a) == (c - x[0], -x[1])
        if c == 0:
            with pytest.raises(ZeroDivisionError):
                a / c
        else:
            assert _parts(a / c) == (x[0] / c, x[1] / c)
        if a.norm() != 0:
            inv = _quad_ref_inverse(x, disc)
            assert _parts(c / a) == (inv[0] * c, inv[1] * c)

    @given(quad_discs, two_rationals, st.integers(-5, 7))
    def test_pow(self, disc, x, n):
        a = QuadElement(*x, disc)
        if n < 0 and a.norm() == 0:
            with pytest.raises(ZeroDivisionError):
                a**n
            return
        base = _quad_ref_inverse(x, disc) if n < 0 else x
        want = (F(1), F(0))
        for _ in range(abs(n)):
            want = _quad_ref_mul(want, base, disc)
        assert _parts(a**n) == want

    @given(quad_discs, two_rationals, two_rationals)
    def test_conj_norm_inverse_div(self, disc, x, y):
        a, b = QuadElement(*x, disc), QuadElement(*y, disc)
        assert _parts(a.conj()) == (x[0], -x[1])
        norm = a.norm()
        assert type(norm) is F and norm == x[0] * x[0] - x[1] * x[1] * disc
        if norm == 0:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            with pytest.raises(ZeroDivisionError):
                b / a
        else:
            inv = _quad_ref_inverse(x, disc)
            assert _parts(a.inverse()) == inv
            assert _parts(b / a) == _quad_ref_mul(y, inv, disc)

    @given(quad_discs, two_rationals)
    def test_normalized_and_to_rational(self, disc, x):
        a = QuadElement(*x, disc)
        want = _quad_ref_normalized(x, disc)
        assert _parts(a.normalized()) == want
        assert a.normalized().disc == disc
        assert a.is_rational() == (want[1] == 0)
        if want[1] == 0:
            assert a.to_rational() == want[0] and type(a.to_rational()) is F
        else:
            with pytest.raises(IrrationalResidue):
                a.to_rational()

    @given(quad_discs, quad_discs, two_rationals, two_rationals)
    def test_equality_matches_reference(self, d1, d2, x, y):
        a, b = QuadElement(*x, d1), QuadElement(*y, d2)
        nx, ny = _quad_ref_normalized(x, d1), _quad_ref_normalized(y, d2)
        if d1 == d2:
            assert (a == b) == (nx == ny)
        else:
            assert (a == b) == (nx[1] == 0 and ny[1] == 0 and nx[0] == ny[0])
        assert (a == x[0]) == (nx == (x[0], 0))
        assert bool(a) == (nx != (0, 0))

    def test_reads_and_text(self):
        x = QuadElement(F(1, 2), F(-3, 4), F(5, 4))
        assert (x.rat, x.irr, x.disc) == (F(1, 2), F(-3, 4), F(5, 4))
        assert all(type(v) is F for v in (x.rat, x.irr, x.disc))
        assert repr(x) == "QuadElement(1/2, -3/4, disc=5/4)"
        assert str(x) == "1/2 + -3/4*sqrt(5/4)"
        assert str(QuadElement(F(6, 4), 0, 5)) == "3/2"
        for name in ("rat", "irr", "disc"):
            with pytest.raises(AttributeError):
                setattr(x, name, F(1))

    def test_equality_across_discriminants(self):
        assert QuadElement(3, 0, 5) == QuadElement(3, 0, F(5, 4))
        assert QuadElement(0, 4, F(225, 16)) == 15 == QuadElement(15, 0, -3)
        # 1 + 2*sqrt(5) and 1 + sqrt(20): irrational values over different D
        # never compare equal
        assert QuadElement(1, 2, 5) != QuadElement(1, 1, 20)

    def test_discriminant_not_r_decides_mixing(self):
        # 20 and 5/4 share r = 20, but they are different discriminants
        with pytest.raises(MismatchedDiscriminant):
            QuadElement(1, 1, 20) * QuadElement(1, 1, F(5, 4))
        with pytest.raises(MismatchedDiscriminant):
            QuadElement(1, 1, 20) - QuadElement(1, 1, F(5, 4))
        with pytest.raises(MismatchedDiscriminant):
            QuadElement(1, 1, -3) / QuadElement(1, 1, 5)

    def test_zero_norm_has_no_inverse(self):
        for zero_norm in (
            QuadElement(F(15, 4), -1, F(225, 16)),  # 15/4 - sqrt(225/16)
            QuadElement(0, 0, -3),
            QuadElement(0, 0, F(5, 4)),
        ):
            assert zero_norm.norm() == 0
            for op in (lambda z: z.inverse(), lambda z: z**-1, lambda z: 1 / z):
                with pytest.raises(ZeroDivisionError):
                    op(zero_norm)
