"""Exact scalar arithmetic: ring operations, units, evaluation."""

import doctest
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import FractionLaurentPoly

import heckezonal.scalars
from heckezonal.scalars import (
    LaurentPoly,
    Monomial,
    NonInvertibleError,
    format_rational,
    json_value,
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


def test_json_value_prints_only_fractions():
    # a Fraction prints as num/den, even when integral; a count, a flag,
    # an absent value and a list of witnesses pass through as they are
    assert json_value(Fraction(3)) == "3/1" and json_value(Fraction(-2, 3)) == "-2/3"
    assert json_value(3) == 3 and type(json_value(3)) is int
    assert json_value(True) is True and json_value(None) is None
    witnesses = [{"k": 0, "window": [2, 1]}]
    assert json_value(witnesses) is witnesses


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
    with pytest.raises(NonInvertibleError, match="^NonInvertible: only monomials are units"):
        (LaurentPoly.variable() + 1) ** -1


def test_repr_of_zero_and_constants():
    q = LaurentPoly.variable()
    assert repr(LaurentPoly.constant(0)) == repr(q - q) == "0"
    assert repr(LaurentPoly.constant(Fraction(-3, 2))) == "-3/2"
    assert repr(q**2 - 3 * q.inverse() + 1) == "q^2 + 1 - 3*q^-1"


def test_scalar_power_rejects_a_float():
    # 0.5**2 was the float 0.25, while 0.5**-1 raised
    for n in (2, 0, -1):
        with pytest.raises(TypeError):
            scalar_power(0.5, n)
    assert scalar_power(2, -1) == Fraction(1, 2) and type(scalar_power(2, 3)) is Fraction


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
    # canonical form: a nonzero int (not a bool), or a Fraction whose
    # denominator is not 1; never a float or an integral Fraction
    coeffs = p.coefficients()
    assert all(type(n) is int for n in coeffs)
    for c in coeffs.values():
        assert (type(c) is int or (type(c) is Fraction and c.denominator != 1)) and c != 0, coeffs
    rebuilt = LaurentPoly(coeffs)
    assert p == rebuilt and hash(p) == hash(rebuilt)
    # one slot, no __dict__, and no write after construction
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p._coeffs = coeffs
    with pytest.raises(AttributeError):
        del p._coeffs


def test_equal_polynomials_hash_equal():
    # built separately (constructor, arithmetic, power) and in a different
    # dict order: equal values hash equal
    q = LaurentPoly.variable()
    polys = [
        LaurentPoly({-2: Fraction(1, 3), 0: 5, 1: -1}),
        LaurentPoly({1: -1, 0: 5, -2: Fraction(1, 3)}),
        Fraction(1, 3) * q.inverse() ** 2 + 5 - q,
        -(q - 5 - q**-2 * Fraction(1, 3)),
    ]
    for p in polys:
        assert p == polys[0] and hash(p) == hash(polys[0])
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


def test_polynomials_equal_to_scalars_hash_as_them():
    # equal values hash equal across the two coefficient modes, so a set
    # or dict key cannot tell a constant polynomial from its scalar
    for c in (0, 3, -1, Fraction(0), Fraction(1, 2), Fraction(6, 3)):
        p = LaurentPoly.constant(c)
        assert p == c and hash(p) == hash(c) and len({p, c}) == 1, c
    assert hash(LaurentPoly()) == hash(0) and len({LaurentPoly(), 0}) == 1
    q = LaurentPoly.variable()
    assert hash(q - q + Fraction(1, 2)) == hash(Fraction(1, 2))


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
        assert a - a == 0 and a + (-a) == 0


# -- property tests against the Fraction-only reference ---------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# small denominators, so that sums and products often turn integral
COEFFS = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6])),
)
SCALARS = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
DICTS = st.dictionaries(st.integers(-4, 4), COEFFS, max_size=4)
MONOMIALS = st.builds(lambda n, c: {n: c}, st.integers(-4, 4), COEFFS.filter(bool))


def _pair(d: dict) -> tuple[LaurentPoly, FractionLaurentPoly]:
    return LaurentPoly(d), FractionLaurentPoly(d)


def _assert_agrees(p: LaurentPoly, ref: FractionLaurentPoly) -> None:
    _assert_invariant(p)
    assert p.coefficients() == ref.coefficients()
    assert hash(p) == hash(ref)


@PROPERTY
@given(DICTS, DICTS)
@example({0: Fraction(1, 2)}, {0: Fraction(1, 2)})  # an integral sum of Fractions
@example({1: 1, 0: 1}, {1: 1, 0: -1})  # (q + 1)(q - 1) cancels its middle term
def test_ring_operations_match_fraction_reference(a, b):
    (pa, ra), (pb, rb) = _pair(a), _pair(b)
    _assert_agrees(pa, ra)
    _assert_agrees(pa + pb, ra + rb)
    _assert_agrees(pa - pb, ra - rb)
    _assert_agrees(-pa, -ra)
    _assert_agrees(pa * pb, ra * rb)
    assert (pa == pb) == (ra == rb)
    for p in (pa, pa - pb, pa * pb):
        assert bool(p) == (p != 0), p


@PROPERTY
@given(DICTS, SCALARS)
@example({0: Fraction(1, 3)}, 3)  # a Fraction times an int turns integral
@example({2: 2}, Fraction(1, 2))
@example({0: Fraction(1, 3), 1: 2}, Fraction(6, 2))  # an integral Fraction multiplies as an int
@example({0: 3}, Fraction(6, 2))  # and equals the constant it is
def test_scalar_operations_match_fraction_reference(a, c):
    pa, ra = _pair(a)
    for p, ref in ((pa * c, ra * c), (c * pa, c * ra), (pa + c, ra + c), (c + pa, c + ra),
                   (pa - c, ra - c), (c - pa, c - ra)):
        _assert_agrees(p, ref)
    assert (pa == c) == (c == pa) == (ra == c) == (ra == FractionLaurentPoly({0: c}))


def test_other_operands_are_not_implemented():
    # == and * take a polynomial by its exact type, then an int or a
    # Fraction; any other operand, the reference polynomial included, is
    # left to the other side
    q = LaurentPoly.variable()
    for other in (0.5, "q", FractionLaurentPoly({1: 1}), Monomial(2)):
        assert q.__eq__(other) is NotImplemented and q.__mul__(other) is NotImplemented, other


@PROPERTY
@given(DICTS, st.integers(0, 4))
def test_powers_match_fraction_reference(a, n):
    pa, ra = _pair(a)
    _assert_agrees(pa**n, ra**n)


@PROPERTY
@given(MONOMIALS, st.integers(-5, 5))
@example({1: Fraction(1, 2)}, -1)  # a negative power of a Fraction can be an int
def test_monomial_powers_match_fraction_reference(m, n):
    pm, rm = _pair(m)
    _assert_agrees(pm**n, rm**n)


@PROPERTY
@given(DICTS)
@example({0: 2})  # an int's inverse is a Fraction, never a float
@example({1: Fraction(1, 2)})  # a Fraction's inverse can be an int
def test_inverse_matches_fraction_reference(a):
    pa, ra = _pair(a)
    if len(ra.coefficients()) == 1:
        _assert_agrees(pa.inverse(), ra.inverse())
        return
    with pytest.raises(NonInvertibleError):
        pa.inverse()
    with pytest.raises(NonInvertibleError):
        ra.inverse()


@PROPERTY
@given(DICTS, st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))
def test_evaluate_matches_fraction_reference(a, x):
    pa, ra = _pair(a)
    if x == 0 and any(n < 0 for n in ra.coefficients()):
        with pytest.raises(ZeroDivisionError):
            pa.evaluate(x)
        return
    value = pa.evaluate(x)
    assert type(value) is Fraction and value == ra.evaluate(x)


def test_constructor_rejects_floats_and_stores_bools_as_ints():
    with pytest.raises(TypeError):
        LaurentPoly({0: 0.5})
    with pytest.raises(TypeError):
        LaurentPoly.variable() * 0.5
    # an exponent is an int too: int(1.5) and int("2") would make q, q**2
    for exponent in (1.5, "2", Fraction(2)):
        with pytest.raises(TypeError):
            LaurentPoly({exponent: 1})
    p = LaurentPoly({0: True, 1: Fraction(4, 2)})
    _assert_invariant(p)
    assert p.coefficients() == {0: 1, 1: 2}
    _assert_invariant(LaurentPoly({True: 3}))
    assert LaurentPoly({True: 3}) == 3 * LaurentPoly.variable()
    _assert_invariant(LaurentPoly.variable() * True)


# -- numeric-mode monomials against Fraction ---------------------------------

# 4 = 2**2, so monomials of two bases can still be equal
MONOMIAL_ARGS = st.tuples(st.sampled_from([2, 3, 4]), st.sampled_from([1, -1]), st.integers(-6, 6))


@PROPERTY
@given(MONOMIAL_ARGS, MONOMIAL_ARGS, st.integers(-5, 5))
@example((3, -1, 2), (3, 1, -5), -3)  # one base: exponents add, signs multiply
@example((2, 1, 2), (4, 1, 1), 0)  # 2**2 == 4**1 across bases
def test_monomial_arithmetic_matches_fraction(a, b, n):
    ma, mb = Monomial(*a), Monomial(*b)
    fa, fb = (Fraction(sign) * Fraction(base) ** exp for base, sign, exp in (a, b))
    results = [(ma * mb, fa * fb), (ma / mb, fa / fb), (ma**n, fa**n), (-ma, -fa),
               (ma.inverse(), 1 / fa), (scalar_power(ma, n), fa**n), (scalar_inverse(ma), 1 / fa)]
    # one base: every result is again a monomial of that base; two bases:
    # the quotient is the exact Fraction, and so is the product unless
    # its factor mb is 1
    mixed = 0 if a[0] == b[0] else 2
    if mixed:
        assert type(ma / mb) is Fraction
        assert ma * mb is ma if fb == 1 else type(ma * mb) is Fraction
    assert all(type(m) is Monomial and m.base == a[0] for m, _ in results[mixed:])
    for m, f in results:
        exact = m.fraction() if type(m) is Monomial else m
        assert m == f and f == m and exact == f and hash(m) == hash(f), (m, f)
        assert len({m, f}) == 1
    assert (ma == mb) == (fa == fb) and (ma != mb) == (fa != fb)
    assert (hash(ma) == hash(mb)) >= (ma == mb)
    assert format_rational(ma) == format_rational(fa)


@PROPERTY
@given(MONOMIAL_ARGS, SCALARS)
@example((2, 1, -2), 2)  # the per-term mutant's factor 2: the exact Fraction, never the monomial
@example((3, -1, 4), Fraction(3, 1))  # an integral Fraction
@example((5, 1, 3), 1)  # the unit: the monomial itself
def test_monomial_mixed_arithmetic_is_exact(a, c):
    m = Monomial(*a)
    f = m.fraction()
    for got, want in ((m * c, f * c), (c * m, c * f)):
        if c == 1:
            assert got is m
        else:
            assert type(got) is Fraction and got == want, (m, c)
    for got, want in ((m + c, f + c), (c + m, c + f), (m - c, f - c), (c - m, c - f)):
        assert type(got) is Fraction and got == want, (m, c)
    if c:
        assert type(m / c) is Fraction and m / c == f / c
    assert type(c / m) is Fraction and c / m == c / f
    assert (m == c) == (f == c) == (c == m)


def test_monomial_rejects_non_integers_and_bad_fields():
    # a float sign would spread through products to fraction()
    for args in ((2.0, 1, 1), (2, 1, 1.0), (Fraction(2), 1, 1), (True, 1, 1), (2, 1.0, 3), (2, -1.0, 3),
                 (2, True, 3), (2, Fraction(-1), 3)):
        with pytest.raises(TypeError):
            Monomial(*args)
    for args in ((1, 1, 1), (0, 1, 1), (-2, 1, 1), (2, 0, 1), (2, 2, 1)):
        with pytest.raises(ValueError):
            Monomial(*args)
    m = Monomial(2, -1, 3)
    with pytest.raises(AttributeError):
        m.exp = 4
    with pytest.raises(TypeError):
        m * 0.5
    with pytest.raises(TypeError):
        m * LaurentPoly.variable()
    assert m != LaurentPoly.constant(-8) and m != "-8" and repr(m) == "Monomial(base=2, sign=-1, exp=3)"


def test_monomial_exponents_never_build_the_value():
    # 7**(10**9) has over 8 * 10**8 digits: sign and exponent arithmetic
    # and the same-base comparison answer at once
    big = Monomial(7, -1, 10**9)
    assert big * big.inverse() == Monomial(7, 1, 0) == 1
    assert (-big) ** 3 / big**2 == -big != big
