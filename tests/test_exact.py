import math
import operator
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from biperiodic.exact import Mat2, QuadElement, _coprime_fraction, _reduced

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonzero_rationals = rationals.filter(lambda x: x != 0)
# r under sqrt(r): non-squares, squares (where sqrt(r) stays formal and the
# ring has zero divisors) and negatives
quad_rs = st.sampled_from([5, 2, 12, 20, 4, 9, 225, -3, -4, -7])
quad_ints = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


@st.composite
def quad_tuples(draw, count=1):
    r = draw(quad_rs)
    return tuple(QuadElement(*draw(quad_ints), r) for _ in range(count))


def _value(e):
    """(rat, irr) ints with e = rat + irr*sqrt(r)."""
    return e.x, e.y


def _quad_ref_mul(x, y, r):
    """(rat, irr) product of two int pairs over sqrt(r)."""
    return (x[0] * y[0] + x[1] * y[1] * r, x[0] * y[1] + x[1] * y[0])


def _quad_ref_pow(x, n, r):
    want = (1, 0)
    for _ in range(n):
        want = _quad_ref_mul(want, x, r)
    return want


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
        for r in (5, 9, -4):
            root = QuadElement(0, 1, r)
            assert _value(root * root) == (r, 0)

    def test_one_is_neutral(self):
        x = QuadElement(14, -3, 5)
        assert _value(QuadElement(1, 0, 5) * x) == _value(x)

    def test_twice_golden_ratio_square(self):
        # phi^2 = phi + 1 for phi = (1 + sqrt(5))/2, so (2 phi)^2 = 2 (2 phi) + 4
        phi2 = QuadElement(1, 1, 5)
        assert _value(phi2 * phi2) == (6, 2)

    def test_power_examples(self):
        phi2 = QuadElement(1, 1, 5)
        assert _value(phi2**0) == (1, 0)
        assert _value(phi2**1) == _value(phi2)
        assert _value(phi2**3) == (16, 8)
        with pytest.raises(ValueError):
            phi2**-1

    @given(quad_tuples(1), st.integers(0, 32), st.integers(0, 32))
    def test_power_is_additive(self, xs, m, n):
        (x,) = xs
        assert _value(x ** (m + n)) == _value(x**m * x**n)

    @given(quad_tuples(3))
    def test_ring_axioms(self, xs):
        x, y, z = xs
        assert _value(x * y) == _value(y * x)
        assert _value((x * y) * z) == _value(x * (y * z))
        # the element has no +, so y + z is built from its two integers
        xy, xz = _value(x * y), _value(x * z)
        assert _value(x * QuadElement(y.x + z.x, y.y + z.y, x.r)) == (xy[0] + xz[0], xy[1] + xz[1])

    def test_zero_divisor_with_square_disc(self):
        # sqrt(9) stays formal: (3 + sqrt(9)) (3 - sqrt(9)) = 0 although
        # neither factor is zero
        x, y = QuadElement(3, 1, 9), QuadElement(3, -1, 9)
        assert _value(x) != (0, 0) and _value(y) != (0, 0)
        assert _value(x * y) == (0, 0)

    def test_only_elements_multiply(self):
        x = QuadElement(3, 1, 5)
        for other in (2, F(1, 2)):
            with pytest.raises(TypeError):
                x * other
            with pytest.raises(TypeError):
                other * x


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
        root = QuadElement(0, 1, 5)
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
    """m's entries, read through entries(), e11..e22 and rows(): the same
    exact Fractions by each, and m's integer form the canonical one."""
    views = (m.entries(), (m.e11, m.e12, m.e21, m.e22), tuple(e for row in m.rows() for e in row))
    assert all(type(e) is F for view in views for e in view)
    assert views[0] == views[1] == views[2]
    assert m._form == Mat2(*views[0])._form
    return views[0]


four_rationals = st.tuples(rationals, rationals, rationals, rationals)
scalars = st.one_of(rationals, st.integers(-30, 30))


class TestMat2IntegerForm:
    """Integer-form arithmetic against an entry-wise Fraction reference.

    CI runs these ``@given`` tests derandomized (Hypothesis's ``ci``
    profile), so the draws there are fixed. The ``@example``s pin the paths
    a fixed draw might miss, on every run: a sum over coprime denominators
    (g = 1, no second gcd), a sum whose shared denominator factor the
    numerators cancel in part, a sum that cancels to the zero matrix, and a
    product made by integer arithmetic. Every result is read through
    ``entries()``, ``e11``..``e22`` and ``rows()``, which build its
    Fractions on read.
    """

    @example((F(1, 2), F(3, 4), 1, 0), (F(1, 3), F(2, 9), 0, 1))  # d 4 and 9: g = 1
    # d 12 and 36 share 12; the sum's numerators cancel 2 of it: (1/2, 2/9, 0, 1)
    @example((F(1, 4), F(1, 6), 0, 0), (F(1, 4), F(1, 18), 0, 1))
    @example((F(1, 6), F(-1, 4), 2, F(5, 3)), (F(-1, 6), F(1, 4), -2, F(-5, 3)))  # sum is 0
    @example((F(1, 2), F(3, 4), 1, 0), (F(2, 3), 0, F(-5, 9), 3))  # product over 36 reduces by 3
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
        # the canonical integer form is all a matrix holds, so a read caches nothing
        assert Mat2.__slots__ == ("_form",) and not hasattr(a, "__dict__")

    def test_integer_results_read_as_fractions(self):
        a = Mat2(F(1, 2), 1, 1, 0) * Mat2(2, 0, 0, 2)
        assert a.e11 == 1 and type(a.e11) is F
        assert a.rows() == [[1, 2], [2, 0]]
        assert repr(a) == "Mat2(Fraction(1, 1), Fraction(2, 1), Fraction(2, 1), Fraction(0, 1))"
        assert str(a / 4) == "[[1/4, 1/2], [1/2, 0]]"



class TestQuadIntegerForm:
    """QuadElement arithmetic against an (x, y) int-pair reference."""

    @given(quad_rs, quad_ints, quad_ints, quad_ints)
    def test_mul_matches_reference(self, r, x, y, z):
        a, b, c = (QuadElement(*u, r) for u in (x, y, z))
        ab = _quad_ref_mul(x, y, r)
        assert _value(a * b) == ab
        # operands that were themselves produced by the arithmetic
        assert _value((a * b) * c) == _quad_ref_mul(ab, z, r)
        assert all((e.r, type(e)) == (r, QuadElement) for e in (a * b, a**2))

    @given(quad_rs, quad_ints, st.integers(0, 9))
    def test_pow(self, r, x, n):
        assert _value(QuadElement(*x, r) ** n) == _quad_ref_pow(x, n, r)


@pytest.mark.parametrize("n, d", [(0, 1), (-7, 1), (5, 3), (-2171, 216), (3**200, 2**150)])
def test_coprime_fraction_is_the_reduced_fraction(n, d):
    # the memo's wrap of a reduced pair, which skips Fraction's gcd
    got, want = _coprime_fraction(n, d), F(n, d)
    assert type(got) is F and (got.numerator, got.denominator) == (n, d)
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    assert got + F(-1, 6) == want + F(-1, 6)


def _gcd_reduced(x: int, y: int) -> tuple[int, int]:
    g = math.gcd(x, y)
    return x // g, y // g


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def reducible(draw):
    """(x, y, base): y > 0 a product of powers of some small primes, base a
    multiple of each of those primes, and x any int, made to share with y
    powers of its primes up to and beyond y's own."""
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=4, unique=True))
    y = shared = 1
    for p in primes:
        y *= p ** draw(st.integers(0, 80))
        shared *= p ** draw(st.integers(0, 90))
    base = math.prod(primes) * draw(st.integers(1, 30))
    return draw(st.integers(-10**60, 10**60)) * shared, y, base


class TestReduced:
    """``_reduced`` against ``math.gcd``'s reduction of the same pair.

    CI runs the ``@given`` test derandomized (Hypothesis's ``ci`` profile),
    so its draws there are the same on every run; local runs draw afresh.
    The adversarial cases are parametrized below, so every run checks them.
    """

    @given(reducible())
    def test_matches_gcd_reduction(self, case):
        x, y, base = case
        assert _reduced(x, y, base) == _gcd_reduced(x, y)

    @pytest.mark.parametrize("x, y, base", [
        (0, 2**70 * 3**5, 6),  # zero comes out as 0/1
        (0, 1, 1),
        (-(3**41) * 7, 3**45 * 2, 6),  # a negative x keeps its sign
        (-5, 2**64, 2),
        # pure prime powers with exponents at and just above 2^k: rounds of 5, 5^2, 5^4, ...
        (5**65 * 11, 5**65, 5),
        (5**65 * 11, 5**129, 5),
        (7**1025, 7**1025 * 2, 14),
        (2**4097 + 2**4096, 2**5000, 2),
        # base with primes that y lacks, and a base that is a high power itself
        (2**40 * 3**30 * 17, 2**40 * 3**2, 2**40 * 3 * 19),
        (12345678910111213, 1, 2**40),
    ], ids=str)
    def test_adversarial(self, x, y, base):
        assert _reduced(x, y, base) == _gcd_reduced(x, y)

    @pytest.mark.parametrize("k", [1, 7, 40, 200])
    def test_ab_one_common_power(self, k):
        # a = 1/2^k, b = 2^k (ab = 1): unreduced terms carry 2^(j k) over
        # 2^(j k + i), so the common power is large and its exponent is
        # rarely a power of 2
        for j in range(1, 9):
            for i in (0, 1, 3):
                x, y = (2**(j * k) + 1) * 2**(j * k) * 3, 2**(j * k + i)
                assert _reduced(x, y, 2**k) == _gcd_reduced(x, y), (j, i)
