"""Exact scalar arithmetic: ring operations, units, evaluation."""

import doctest
import random
from fractions import Fraction

import pytest

import heckezonal.scalars
from heckezonal.scalars import (
    LaurentPoly,
    NonInvertibleError,
    format_rational,
    parse_rational,
    scalar_inverse,
    scalar_power,
)


def test_doctests():
    failures, attempted = doctest.testmod(heckezonal.scalars)
    assert failures == 0 and attempted > 0


def test_rational_arithmetic_examples():
    assert Fraction(1, 2) * Fraction(2, 3) == Fraction(1, 3)
    q = LaurentPoly.variable()
    assert q * q.inverse() == 1
    assert scalar_power(-q.inverse(), 3) == LaurentPoly.term(-1, -3)


def test_rational_canonical_form():
    x = Fraction(4, -6)
    assert (x.numerator, x.denominator) == (-2, 3)
    assert format_rational(x) == "-2/3"
    assert parse_rational("-2/3") == x
    assert parse_rational("5") == Fraction(5)


def test_evaluate_examples():
    q = LaurentPoly.variable()
    assert (q + 1).evaluate(Fraction(4)) == 5
    assert q.inverse().evaluate(Fraction(4)) == Fraction(1, 4)
    assert (q**2 - q).evaluate(Fraction(2)) == 2


def test_evaluate_zero_guard():
    q = LaurentPoly.variable()
    # nonnegative exponents evaluate anywhere, negative ones reject 0
    assert (q + 1).evaluate(Fraction(0)) == 1
    with pytest.raises(ZeroDivisionError):
        q.inverse().evaluate(Fraction(0))


def test_non_invertible_errors():
    with pytest.raises(NonInvertibleError):
        scalar_inverse(Fraction(0))
    with pytest.raises(NonInvertibleError):
        (LaurentPoly.variable() + 1).inverse()
    with pytest.raises(NonInvertibleError):
        scalar_power(LaurentPoly.variable() + 1, -2)


def _random_poly(rng: random.Random) -> LaurentPoly:
    coeffs = {}
    for _ in range(rng.randrange(0, 4)):
        coeffs[rng.randrange(-3, 4)] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
    return LaurentPoly(coeffs)


def test_ring_axioms_random():
    rng = random.Random(2024)
    for _ in range(300):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * LaurentPoly.constant(1) == a
        assert a + LaurentPoly.constant(0) == a


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(200):
        a, b = _random_poly(rng), _random_poly(rng)
        x = Fraction(rng.randrange(1, 7), rng.randrange(1, 4))
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


def test_unit_powers():
    q = LaurentPoly.variable()
    m = LaurentPoly.term(Fraction(2, 3), -2)
    assert m * m.inverse() == 1
    assert scalar_power(m, -2) == m.inverse() ** 2
    assert scalar_power(Fraction(2, 3), -2) == Fraction(9, 4)
    assert q**0 == 1


def _random_monomial(rng: random.Random) -> LaurentPoly:
    c = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 7), rng.randrange(1, 6))
    return LaurentPoly.term(c, rng.randrange(-4, 5))


def _assert_invariant(p: LaurentPoly) -> None:
    coeffs = p.coefficients()
    assert all(type(n) is int for n in coeffs)
    assert all(type(c) is Fraction and c != 0 for c in coeffs.values())
    rebuilt = LaurentPoly(coeffs)
    assert p == rebuilt and hash(p) == hash(rebuilt)


def test_hash_is_cached_and_equal_for_equal_polynomials():
    # built separately (constructor, arithmetic, power) and in a different
    # dict order: equal values hash equal, and a repeated hash is the same
    q = LaurentPoly.variable()
    polys = [
        LaurentPoly({-2: Fraction(1, 3), 0: 5, 1: -1}),
        LaurentPoly({1: -1, 0: 5, -2: Fraction(1, 3)}),
        Fraction(1, 3) * q.inverse() ** 2 + 5 - q,
        -(q - 5 - q**-2 * Fraction(1, 3)),
    ]
    for p in polys:
        assert not hasattr(p, "_hash")
        first = hash(p)
        assert p._hash == first and hash(p) == first
        assert p == polys[0] and first == hash(polys[0])
    assert hash(q) != hash(q + 1)


def test_monomial_power_matches_repeated_product():
    rng = random.Random(31)
    for _ in range(100):
        m = _random_monomial(rng)
        for n in range(-6, 7):
            factor = m if n >= 0 else m.inverse()
            expected = LaurentPoly.constant(1)
            for _ in range(abs(n)):
                expected = expected * factor
            assert m**n == expected, (m, n)
            _assert_invariant(m**n)


def test_scalar_product_matches_constant_product():
    rng = random.Random(32)
    scalars = [0, 1, -3, Fraction(0), Fraction(2, 5), Fraction(-7, 3)]
    for _ in range(100):
        p = _random_poly(rng)
        for c in scalars:
            expected = p * LaurentPoly.constant(c)
            assert p * c == expected and c * p == expected, (p, c)
            _assert_invariant(p * c)


def test_cancelling_arithmetic_keeps_invariant():
    q = LaurentPoly.variable()
    assert ((q + 1) * (q - 1)).coefficients() == {2: 1, 0: -1}
    assert (q + 1 - q).coefficients() == {0: 1}
    rng = random.Random(33)
    for _ in range(200):
        a, b = _random_poly(rng), _random_poly(rng)
        for result in (a + b, a - b, a * b, a - a, a + (-a), (a - b) * (a + b)):
            _assert_invariant(result)
        assert (a - a).is_zero and (a + (-a)).is_zero
