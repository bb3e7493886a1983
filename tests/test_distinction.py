"""Growth series, Poincare values, and the truncated double-coset sum."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from heckezonal import cli
from heckezonal import distinction as dst
from heckezonal.distinction import (
    IntegralReport,
    RequiresOddE,
    coset_measure,
    distinction_integral,
    growth_bfs,
    growth_closed_form,
    nonvanishing_scan,
    per_term_value,
    poincare_closed_form,
    poincare_series_coefficients,
    poincare_value,
)
from heckezonal.scalars import LaurentPoly, Monomial, _as_fraction
from heckezonal.spherical import SphericalParams, matrix_coefficient_scalar
from heckezonal.weyl import AffinePermutation, enumerate_by_length, generator, multiply, w0_count

from oracles import bott_product_series, coset_sums, mutate


def element_of_length(e, word):
    w = generator(e, word[0])
    for i in word[1:]:
        w = multiply(w, generator(e, i))
    return w.w0


def test_coset_measure_examples():
    identity = element_of_length(3, [1, 1])  # the identity, via s1*s1
    assert identity.length() == 0
    assert coset_measure(identity, 2, 3) == 1
    w3 = element_of_length(3, [1, 2, 1])
    assert w3.length() == 3
    assert coset_measure(w3, 1, 2) == 8
    w2 = element_of_length(3, [1, 2])
    assert coset_measure(w2, 2, 3) == 6561
    with pytest.raises(ValueError):
        coset_measure(w2, 1, 1)


def test_validation_raises_name_each_fault():
    with pytest.raises(ValueError, match="^f must be a positive integer$"):
        coset_measure(AffinePermutation.identity(3), 0, 2)
    with pytest.raises(ValueError, match="^rank e must be at least 2$"):
        poincare_closed_form(1)
    with pytest.raises(ValueError, match="^truncation L must be nonnegative$"):
        distinction_integral(3, 1, 2, -1)


def test_volumes_and_terms_are_q0_monomials():
    # the volume, the closed coefficient and their product are signed
    # powers of q0, compared by (sign, exponent): 3**(4*2), (-1/q1)**2 *
    # q**-2 = 3**-12 and 3**-4 = (-1/3**2)**2 at f = 2, q0 = 3
    w2 = element_of_length(3, [1, 2])
    p = SphericalParams.numeric(3, 2, 3)
    values = (coset_measure(w2, 2, 3), matrix_coefficient_scalar(w2, p), per_term_value(w2, 2, 3))
    assert all(type(v) is Monomial for v in values)
    assert [(v.base, v.sign, v.exp) for v in values] == [(3, 1, 8), (3, 1, -12), (3, 1, -4)]


def test_per_term_value_exponent_cancellation():
    s1 = element_of_length(3, [1])
    assert per_term_value(s1, 1, 2) == Fraction(-1, 2)
    # f=2, q0=2: 2**4 * (-1/16) * (1/4) = -1/4 = (-1/2**2)**1
    assert per_term_value(s1, 2, 2) == Fraction(-1, 4)
    assert per_term_value(s1, 2, 2) == coset_measure(s1, 2, 2) * matrix_coefficient_scalar(
        s1, SphericalParams.numeric(3, 2, 2)
    )
    # the chain holds for all lengths <= 8 and (f, q0) in {1,2}x{2,3}
    for f in (1, 2):
        for q0 in (2, 3):
            y = Fraction(-1, q0**f)
            for ell, layer in enumerate(enumerate_by_length(3, 8)):
                for w0 in layer:
                    assert per_term_value(w0, f, q0) == y**ell


def test_growth_bfs_examples():
    assert growth_bfs(2, 6) == (1, 2, 2, 2, 2, 2, 2)
    assert growth_bfs(3, 6) == (1, 3, 6, 9, 12, 15, 18)
    for e in (2, 3, 4, 5):
        assert growth_bfs(e, 1)[1] == e


def test_poincare_closed_form_small_ranks():
    # e=2: (1+X)/(1-X); e=3: (1+X+X**2)/(1-X)**2, up to a common factor
    x = LaurentPoly.variable()
    one = LaurentPoly.constant(1)
    num2, den2 = poincare_closed_form(2)
    assert num2 * (one - x) == den2 * (one + x)
    num3, den3 = poincare_closed_form(3)
    assert num3 * (one - x) ** 2 == den3 * (one + x + x**2)
    assert poincare_value(2, 0) == 1
    assert poincare_value(5, 0) == 1


def test_closed_form_is_the_bott_product():
    # four sources of N(l) agree: the product oracle, the binomials
    # C(l+e-1, e-1) - C(l-1, e-1), the closed form's long division, and
    # the differences of w0_count
    for e in range(2, 15):
        binomials = [1] + [comb(l + e - 1, e - 1) - comb(l - 1, e - 1) for l in range(1, 31)]
        assert bott_product_series(e, 30) == binomials, e
        assert list(growth_closed_form(e, 30)) == binomials, e
        sums = [w0_count(e, L, 10**30) for L in range(31)]
        assert sums == list(itertools.accumulate(binomials)), e
    for e, L in ((2, 40), (3, 20), (4, 10), (5, 8), (6, 6), (7, 5)):
        assert list(growth_bfs(e, L)) == bott_product_series(e, L), (e, L)


def test_w0_count_over_the_cap_is_a_lower_bound():
    # at e = 2 every N(l >= 1) is 2, so the bound 1 + e*L is the count
    for e in range(2, 9):
        for L in range(16):
            total = w0_count(e, L, 10**30)
            for cap in (1, 5, 40, 100):
                count = w0_count(e, L, cap)
                assert count == total if total <= cap else cap < count <= total, (e, L, cap)


def test_closed_form_has_degree_e():
    x = LaurentPoly.variable()
    num, den = poincare_closed_form(200)
    assert max(num.coefficients()) == max(den.coefficients()) == 200
    assert num == 1 - x**200
    assert den == (1 - x) ** 200


@pytest.mark.parametrize("e", [2, 3, 4])
def test_growth_bfs_matches_closed_form(e):
    assert growth_bfs(e, 12) == growth_closed_form(e, 12)


def test_poincare_values():
    assert poincare_value(2, Fraction(-1, 2)) == Fraction(1, 3)
    # (1 - 1/2 + 1/4) / (3/2)**2 = 1/3
    assert poincare_value(3, Fraction(-1, 2)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        poincare_value(3, Fraction(3, 2))
    # truncated series approaches the closed value from within the tail
    for e in (2, 3):
        x = Fraction(-1, 2)
        coeffs = poincare_series_coefficients(e, 30)
        partial = sum(c * x**n for n, c in enumerate(coeffs))
        tail = poincare_value(e, -x) - sum(c * (-x) ** n for n, c in enumerate(coeffs))
        assert abs(partial - poincare_value(e, x)) <= tail


def test_distinction_integral_closed_forms():
    report = distinction_integral(3, 1, 2, 40)
    assert report.closed_form == 1
    assert report.per_term_ok
    assert report.abs_error <= report.tail_bound
    assert report.tail_bound < Fraction(1, 10**6)
    report3 = distinction_integral(3, 1, 3, 40)
    assert report3.closed_form == Fraction(21, 16)
    assert report3.per_term_ok


def test_distinction_integral_truncation_zero():
    report = distinction_integral(3, 1, 2, 0)
    assert report.partial_sum == 3


def test_distinction_tail_monotone():
    previous = None
    for L in (5, 10, 15, 20):
        report = distinction_integral(3, 1, 2, L)
        assert report.abs_error <= report.tail_bound
        if previous is not None:
            assert report.tail_bound < previous
        previous = report.tail_bound


def test_distinction_requires_odd_e():
    with pytest.raises(RequiresOddE):
        distinction_integral(2, 1, 2, 10)
    with pytest.raises(ValueError):
        distinction_integral(3, 1, 1, 10)


def test_k_sum_is_e_times_single():
    # summing the k classes explicitly reproduces the e factor because
    # neither the volume nor the coefficient depends on k
    e, f, q0, L = 3, 1, 2, 6
    p = SphericalParams.numeric(e, f, q0)
    explicit = Fraction(0)
    for layer in enumerate_by_length(e, L):
        for w0 in layer:
            for _ in range(e):  # the rotation classes pi**k, 0 <= k < e
                explicit += coset_measure(w0, f, q0) * matrix_coefficient_scalar(w0, p)
    assert explicit == distinction_integral(e, f, q0, L).partial_sum


def test_layer_sum_matches_per_element_sum():
    # the per-layer sum against one term per coset, as the sum is defined
    rng = random.Random(29)
    for _ in range(12):
        e = rng.choice((3, 5, 7))
        f = rng.randint(1, 3)
        q0 = rng.choice((2, 3, 4, 5, 7, 8, 9))
        L = rng.randint(0, {3: 12, 5: 5, 7: 3}[e])
        y = Fraction(1, q0**f)
        inner = Fraction(0)
        ok = True
        for ell, layer in enumerate(enumerate_by_length(e, L)):
            for w0 in layer:
                term = per_term_value(w0, f, q0)
                ok = ok and term == (-y) ** ell
                inner += term
        report = distinction_integral(e, f, q0, L)
        assert report.partial_sum == e * inner, (e, f, q0, L)
        assert report.per_term_ok is ok is True


def _layer_sums(e, f, q0, L):
    """e * sum N(l) t(l) and e * (P(y) - sum N(l) y**l), y = 1/q0**f,
    one Fraction addition per layer, t(l) as per_term_value gives it."""
    y = Fraction(1, q0**f)
    inner = tail = Fraction(0)
    for ell, layer in enumerate(enumerate_by_length(e, L)):
        inner += len(layer) * _as_fraction(dst.per_term_value(layer[0], f, q0))
        tail += len(layer) * y**ell
    return e * inner, e * (poincare_value(e, y) - tail)


# the term as the library builds it, as a Fraction, and as a monomial of
# base 2 at q0 = 4: equal values, only the first a power of q0
TERMS = {
    "monomial": None,
    "fraction": lambda t, q0: t.fraction(),
    "other_base": lambda t, q0: Monomial(2, t.sign, 2 * t.exp) if q0 == 4 else t,
}


@pytest.mark.parametrize("form", TERMS)
def test_integer_numerators_match_the_layer_fraction_sums(form, monkeypatch):
    # the sums kept as int numerators by q0-exponent against one Fraction
    # addition per layer, down to L = 0; a term that is not a power of q0
    # is added as its exact value
    if TERMS[form]:
        honest = dst.per_term_value
        monkeypatch.setattr(dst, "per_term_value", lambda w0, f, q0: TERMS[form](honest(w0, f, q0), q0))
    for e, L_max in ((3, 9), (5, 3), (7, 2)):
        for f in (1, 2, 3):
            for q0 in (2, 4, 9):
                for L in range(L_max + 1):
                    report = distinction_integral(e, f, q0, L)
                    assert (report.partial_sum, report.tail_bound) == _layer_sums(e, f, q0, L), (e, f, q0, L)
                    assert report.per_term_ok
                    values = (report.partial_sum, report.closed_form, report.abs_error, report.tail_bound)
                    assert all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("position", [0, -1])
def test_wrong_length_on_one_element_fails(monkeypatch, capsys, position):
    # off by one on a single element of layer 3, first or last
    target = enumerate_by_length(3, 3)[3][position]
    length = AffinePermutation.length

    def patched(self):
        return length(self) + (self == target)

    monkeypatch.setattr(AffinePermutation, "length", patched)
    assert not distinction_integral(3, 1, 2, 5).per_term_ok
    assert cli.run(["distinction", "--e", "3", "--L", "5"]) == 1
    assert '"per_term_ok": false' in capsys.readouterr().out


def test_per_term_check_catches_a_wrong_term_past_length_1(monkeypatch):
    # a term off by a factor of 2 from length 2 on: layers 0 and 1 pass,
    # and the per-term collapse fails at the first layer that does not
    assert distinction_integral(3, 1, 2, 4).per_term_ok
    mutate(monkeypatch, dst.per_term_value, [
        ("* matrix_coefficient_scalar(w0, p)", "* matrix_coefficient_scalar(w0, p) * (1 + (w0.length() >= 2))"),
    ], dst)
    layers = enumerate_by_length(3, 2)
    assert dst.per_term_value(layers[1][0], 1, 2) == Fraction(-1, 2)
    assert dst.per_term_value(layers[2][0], 1, 2) == 2 * Fraction(1, 4)
    assert not distinction_integral(3, 1, 2, 4).per_term_ok


def test_per_term_check_reaches_the_last_layer(monkeypatch):
    # a term off by a factor of 2 at length 4 alone: the truncation at
    # L = 3 never meets it, and L = 4 compares its last layer too
    honest = dst.per_term_value
    monkeypatch.setattr(dst, "per_term_value", lambda w0, f, q0: honest(w0, f, q0) * (1 + (w0.length() == 4)))
    assert distinction_integral(3, 1, 2, 3).per_term_ok
    assert not distinction_integral(3, 1, 2, 4).per_term_ok


def test_per_term_check_catches_a_volume_one_exponent_off(monkeypatch, capsys):
    # the volume one q0-exponent off from length 2 on: each term is still a
    # monomial, and the (sign, exponent) comparison with (-1/q0**f)**l fails
    # at the first layer past length 1
    argv = ["distinction", "--e", "3", "--f", "2", "--q0", "3", "--L", "4"]
    assert distinction_integral(3, 2, 3, 4).per_term_ok
    mutate(monkeypatch, dst.coset_measure, [
        ("f * f * w0.length())", "f * f * w0.length() + (w0.length() >= 2))"),
    ], dst)
    layers = enumerate_by_length(3, 2)
    assert dst.per_term_value(layers[1][0], 2, 3) == Monomial(3, -1, -2)
    assert dst.per_term_value(layers[2][0], 2, 3) == Monomial(3, 1, -3) != Monomial(3, 1, -4)
    assert not distinction_integral(3, 2, 3, 4).per_term_ok
    assert cli.run(argv) == 1
    assert '"per_term_ok": false' in capsys.readouterr().out


@pytest.mark.parametrize("e, f, q0, L", [(3, 1, 2, 40), (5, 2, 3, 8), (3, 30, 7, 150), (3, 200, 2, 65)])
def test_sums_match_the_bott_series(e, f, q0, L):
    # the last two run within the digit budget at f = 30 and f = 200, where
    # each term stands for a rational of thousands of bits that is never
    # built
    report = distinction_integral(e, f, q0, L)
    assert (report.partial_sum, report.closed_form, report.tail_bound) == coset_sums(e, f, q0, L)
    assert report.per_term_ok and report.ok


# each library entry that takes a rational, called with a float: 0.1 would
# enter as its binary expansion 3602879701896397/36028797018963968
FLOAT_CALLS = {
    "poincare_value": lambda: poincare_value(3, 0.1),
    "nonvanishing_scan": lambda: nonvanishing_scan(3, [Fraction(1, 2), 0.1]),
    "coset_measure": lambda: coset_measure(AffinePermutation.identity(3), 1, 2.0),
    "distinction_integral": lambda: distinction_integral(3, 1, 2.0, 3),
}


@pytest.mark.parametrize("entry", FLOAT_CALLS)
def test_entry_point_rejects_a_float(entry):
    with pytest.raises(TypeError):
        FLOAT_CALLS[entry]()


def test_q0_must_be_an_integer():
    with pytest.raises(ValueError):
        distinction_integral(3, 1, Fraction(5, 2), 3)
    with pytest.raises(ValueError):
        coset_measure(AffinePermutation.identity(3), 1, Fraction(5, 2))
    # an integral Fraction is the integer it equals
    assert distinction_integral(3, 1, Fraction(3), 3).to_json() == distinction_integral(3, 1, 3, 3).to_json()


def test_nonvanishing_scan():
    report = nonvanishing_scan(3, [Fraction(-9, 10), Fraction(-1, 2), 0, Fraction(1, 2), Fraction(9, 10)])
    assert report["all_positive"]
    points = [Fraction(-1, q0**f) for q0 in (2, 3, 4, 5) for f in (1, 2)]
    assert nonvanishing_scan(2, points)["all_positive"]
    with pytest.raises(ValueError):
        nonvanishing_scan(3, [Fraction(1)])


def test_report_json_shape():
    report = distinction_integral(3, 1, 2, 4)
    data = report.to_json()
    assert data["closed_form"] == "1/1"
    assert data["chi_pi"] == "1/1"
    assert set(data) == {
        "e", "f", "q0", "L", "chi_pi",
        "partial_sum", "closed_form", "abs_error", "tail_bound", "per_term_ok", "ok",
    }


def test_integral_report_stores_no_constant():
    # chi_pi is 1 for every report, so to_json writes it without a field
    fields = ["e", "f", "q0", "L", "partial_sum", "closed_form", "abs_error", "tail_bound", "per_term_ok"]
    assert IntegralReport._fields == tuple(fields)
    assert list(vars(distinction_integral(3, 1, 2, 4))) == fields
