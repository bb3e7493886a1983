"""Spherical eigenvector: coefficient rule, eigen-equations, values."""

import dataclasses
import random
from fractions import Fraction

import pytest
from oracles import eigen_generator_reference
from test_verdicts import wrong_pi_power

import heckezonal.spherical as spherical
from heckezonal.hecke import HeckeAlgebra
from heckezonal.scalars import LaurentPoly, scalar_inverse, scalar_power
from heckezonal.spherical import (
    RequiresTrivialChiPi,
    SphericalParams,
    SphericalTruncation,
    matrix_coefficient_scalar,
    psi0_coefficient,
    verify_eigen,
    verify_eigen_generator,
    verify_eigen_pi,
)
from heckezonal.weyl import (
    AffinePermutation,
    ExtendedWeylElement,
    conjugate_by_pi,
    enumerate_by_length,
    generator,
    multiply,
    pi_element,
)


def test_psi0_coefficient_examples():
    p = SphericalParams.generic(3)
    q1 = p.q1
    one, s1 = ExtendedWeylElement.identity(3), generator(3, 1)
    assert psi0_coefficient(one.length(), one.k, p) == 1
    assert psi0_coefficient(s1.length(), s1.k, p) == -q1.inverse()
    w = multiply(pi_element(3), multiply(generator(3, 1), generator(3, 2)))
    assert w.length() == 2
    assert psi0_coefficient(w.length(), w.k, p) == q1.inverse() ** 2


def test_truncation_coefficient_rule():
    p = SphericalParams(2, 1, Fraction(3), chi_pi=Fraction(-1))
    trunc = SphericalTruncation.build(4, p)
    for w in trunc.element.support():
        c = trunc.element.coefficient(w)
        expected = scalar_power(-scalar_inverse(p.q1), w.length()) * scalar_power(
            p.chi_pi, -w.k
        )
        assert c == expected


CHI_PIS = [Fraction(1), Fraction(2), Fraction(-1, 3)]


@pytest.mark.parametrize("e", [3, 4])
@pytest.mark.parametrize("chi_pi", CHI_PIS)
def test_psi0_coefficient_oracle(e, chi_pi):
    # the closed coefficient (-1/q1)**l * chi_pi**(-k), written down without
    # the Laurent arithmetic under test; l is the BFS layer, not w.length()
    generic = SphericalParams.generic(e, chi_pi=chi_pi)
    numeric = SphericalParams(e, 2, Fraction(3), chi_pi)
    q1 = Fraction(3) ** 4
    for ell, layer in enumerate(enumerate_by_length(e, 4)):
        for w0 in layer:
            for k in range(-2, 3):
                w = ExtendedWeylElement(k, w0)
                unit = (-1) ** ell * chi_pi ** (-k)
                assert psi0_coefficient(w.length(), w.k, generic) == LaurentPoly.term(unit, -ell), w
                assert psi0_coefficient(w.length(), w.k, numeric) == unit / q1**ell, w


def test_psi0_table_matches_closed_formula():
    # random elements at e = 2..8 and |k| <= 3, each looked up twice
    rng = random.Random(141)
    q1 = Fraction(5) ** 2
    for e in range(2, 9):
        chi_pi = rng.choice(CHI_PIS)
        generic = SphericalParams.generic(e, chi_pi=chi_pi)
        numeric = SphericalParams(e, 1, Fraction(5), chi_pi)
        keys = set()
        for _ in range(40):
            w = ExtendedWeylElement.identity(e)
            for _ in range(rng.randrange(0, 9)):
                w = multiply(generator(e, rng.randrange(e)), w)
            w = ExtendedWeylElement(rng.randrange(-3, 4), w.w0)
            ell = len(w.w0.reduced_word())
            unit = (-1) ** ell * chi_pi ** (-w.k)
            keys.add((ell, w.k))
            for _ in range(2):
                assert psi0_coefficient(w.length(), w.k, generic) == LaurentPoly.term(unit, -ell), w
                assert psi0_coefficient(w.length(), w.k, numeric) == unit / q1**ell, w
        assert set(generic._psi0_table) == keys == set(numeric._psi0_table)


def test_psi0_table_is_per_params():
    # same (e, f, q0) and the same (length, k) keys, different chi_pi
    e = 3
    w = ExtendedWeylElement(1, generator(e, 1).w0)
    a = SphericalParams.generic(e, chi_pi=Fraction(2))
    b = SphericalParams.generic(e, chi_pi=Fraction(-1, 3))
    assert psi0_coefficient(w.length(), w.k, a) == LaurentPoly.term(Fraction(-1, 2), -1)
    assert psi0_coefficient(w.length(), w.k, b) == LaurentPoly.term(3, -1)
    assert a._psi0_table is not b._psi0_table
    assert a._psi0_table[(1, 1)] != b._psi0_table[(1, 1)]


@pytest.mark.parametrize("e", [3, 4])
def test_eigen_checks_catch_one_wrong_coefficient(e, monkeypatch):
    # a wrong value at (l(w0), k) = (1, 0) is read for u = s_1 by every
    # generator check (as c(u)) and by the pi check (as the right side)
    p = SphericalParams.generic(e, chi_pi=Fraction(2))
    bad = generator(e, 1)
    true_psi0 = spherical.psi0_coefficient

    def psi0_wrong_at_bad(ell, k, params):
        value = true_psi0(ell, k, params)
        return 2 * value if (ell, k) == (1, 0) else value

    monkeypatch.setattr(spherical, "psi0_coefficient", psi0_wrong_at_bad)
    witness = {"k": 0, "window": list(bad.w0.window)}
    for i in range(e):
        report = verify_eigen_generator(i, 3, p)
        assert not report.ok and witness in report.failures, i
    report = verify_eigen_pi(3, p)
    assert not report.ok and witness in report.failures


@pytest.mark.parametrize("e", [3, 4])
def test_eigen_checks_catch_an_element_in_a_wrong_layer(e):
    # x of layer 2 moved to layer 1, in the layers and in the map: its
    # inversion count disagrees with the layer it is read from, so each
    # of its cases fails in every generator check
    L = 3
    p = SphericalParams.generic(e, chi_pi=Fraction(-1, 3))
    layers, layer_of = spherical._layers(p, L)
    x = layers[2][0]
    moved = [list(layer) for layer in layers]
    moved[2].remove(x)
    moved[1].append(x)
    p._layer_table[L] = (moved, {**layer_of, x.window: 1})
    witnesses = [{"k": k, "window": list(x.window)} for k in (-1, 0, 1)]
    for i in range(e):
        report = verify_eigen_generator(i, L, p)
        assert not report.ok, i
        assert all(w in report.failures for w in witnesses), i


@pytest.mark.parametrize("e", [3, 4])
def test_eigen_checks_catch_a_wrong_length(e, monkeypatch):
    # with the layers and the map intact, an inversion count off by one
    # at x fails exactly x's three cases: a case passes only when its
    # verdict and its element's length check both hold
    L = 3
    p = SphericalParams.generic(e, chi_pi=Fraction(2))
    x = enumerate_by_length(e, L)[2][-1]
    true_length = AffinePermutation.length
    monkeypatch.setattr(
        AffinePermutation, "length", lambda w: true_length(w) + (w == x)
    )
    witnesses = [{"k": k, "window": list(x.window)} for k in (-1, 0, 1)]
    for i in range(e):
        report = verify_eigen_generator(i, L, p)
        assert report.failures == witnesses, i
        assert report.passed == report.checked - 3, i


def test_eigen_checks_catch_a_wrong_boundary_layer():
    # x has l(x) = L, so x itself is boundary and its layer is read only
    # as l(s_i u) for u = s_i x one layer down: a check that skipped that
    # lookup for some u would pass for some x.  Each x of layer L gets a
    # wrong entry (one layer too high, one too low, or none) in turn
    e, L = 3, 3
    p = SphericalParams.generic(e, chi_pi=Fraction(2))
    layers, layer_of = spherical._layers(p, L)
    boundary = layers[L]
    assert len(boundary) > 1
    for w0 in boundary:
        x = ExtendedWeylElement(0, w0)
        for wrong in (L + 1, L - 1, None):
            bad_map = dict(layer_of)
            if wrong is None:
                del bad_map[w0.window]
            else:
                bad_map[w0.window] = wrong
            p._layer_table[L] = (layers, bad_map)
            descents = 0
            for i in range(e):
                u = multiply(generator(e, i), x)
                if u.length() == L - 1:
                    descents += 1
                    report = verify_eigen_generator(i, L, p)
                    assert not report.ok, (w0, wrong, i)
                    witness = {"k": 0, "window": list(u.w0.window)}
                    assert witness in report.failures, (w0, wrong, i)
            assert descents > 0, w0


def test_eigen_checks_catch_a_flipped_case(monkeypatch):
    # the generator rule with its two cases swapped fails for every s_i
    honest = AffinePermutation.has_left_descent
    monkeypatch.setattr(AffinePermutation, "has_left_descent", lambda w0, j: not honest(w0, j))
    for e in (2, 3, 4):
        p = SphericalParams.generic(e, chi_pi=Fraction(-1, 3))
        for i in range(e):
            report = verify_eigen_generator(i, 3, p)
            assert not report.ok and report.passed == 0, (e, i)


@pytest.mark.parametrize("chi_pi", CHI_PIS)
def test_eigen_generator_matches_reference(chi_pi):
    # shared layers, descent-test cases and memoised verdicts against a
    # fresh BFS, length comparisons and the rule evaluated per case
    grid = [(e, L) for e in (2, 3, 4) for L in range(1, 6)] + [(5, 3)]
    for e, L in grid:
        p = SphericalParams.generic(e, chi_pi=chi_pi)
        for i in range(e):
            got = verify_eigen_generator(i, L, p).to_json()
            want = eigen_generator_reference(i, L, SphericalParams.generic(e, chi_pi=chi_pi))
            assert got == want.to_json(), (e, L, i)
            assert got["checked"] > 0 and got["ok"], (e, L, i)


@pytest.mark.parametrize("e", [2, 3])
def test_eigen_generator_generic(e):
    p = SphericalParams.generic(e)
    for i in range(e):
        report = verify_eigen_generator(i, 6, p)
        assert report.ok
        assert report.checked > 0
        assert report.boundary_skipped > 0


def test_eigen_generator_against_hecke_product():
    # independent route: truncate the formal sum as an honest algebra
    # element, convolve with [s_i] through the product machinery, and
    # compare interior coefficients with -Psi0
    for e in (2, 3):
        p = SphericalParams.generic(e)
        L = 5
        trunc = SphericalTruncation.build(L, p)
        algebra = trunc.element.algebra
        interior = [
            ExtendedWeylElement(k, w0)
            for ell, layer in enumerate(enumerate_by_length(e, L - 1))
            for w0 in layer
            for k in (-1, 0, 1)
        ]
        for i in range(e):
            lhs = algebra.product(algebra.generator_basis(i), trunc.element)
            for u in interior:
                assert lhs.coefficient(u) == -psi0_coefficient(u.length(), u.k, p), (e, i, u)


def test_eigen_length_one_case_by_hand():
    # coefficient at u = s_i: contribution 1*c(id) + (q1-1)*c(s_i)
    # equals 1 - (q1-1)/q1 = 1/q1 = -(-1/q1) = -c(s_i)
    p = SphericalParams.generic(2)
    q1 = p.q1
    u = generator(2, 1)
    cu = psi0_coefficient(u.length(), u.k, p)
    one = ExtendedWeylElement.identity(2)
    c_id = psi0_coefficient(one.length(), one.k, p)
    assert c_id + (q1 - 1) * cu == -cu == LaurentPoly.term(1, -1)


def test_eigen_pi():
    for e in (2, 3):
        p = SphericalParams.generic(e)
        report = verify_eigen_pi(6, p)
        assert report.ok and report.checked > 0 and report.boundary_skipped > 0
    # scaling by a nontrivial unit chi_pi
    p = SphericalParams(3, 1, Fraction(2), chi_pi=Fraction(-1))
    assert verify_eigen_pi(5, p).ok


def test_eigen_pi_lists_witnesses_in_layer_window_k_order(monkeypatch):
    # [pi**-1] in place of [pi] fails every interior case at chi_pi = 2;
    # the witnesses follow the BFS walk (each layer sorted by window), the
    # order the generator checks list theirs in
    wrong_pi_power(monkeypatch)
    (pi,) = [r for r in verify_eigen(3, 3, Fraction(2))["reports"] if r["kind"] == "pi"]
    walk = [
        {"k": k, "window": list(w0.window)}
        for layer in enumerate_by_length(3, 3)
        for w0 in layer
        for k in (-1, 0, 1)
    ]
    assert len(walk) == 57 and pi["failures"] == walk


def test_eigen_pi_catches_a_lost_term(monkeypatch):
    # a product that drops every pi**k x fails exactly x's cases: a key
    # missing from the left side reads as coefficient 0, never as a pass
    x = enumerate_by_length(3, 3)[2][0]
    honest = HeckeAlgebra._left_pi_power

    def losing(self, k, coeffs):
        return {key: c for key, c in honest(self, k, coeffs).items() if key[1] != x.window}

    monkeypatch.setattr(HeckeAlgebra, "_left_pi_power", losing)
    report = verify_eigen_pi(3, SphericalParams.generic(3, chi_pi=Fraction(2)))
    assert report.failures == [{"k": k, "window": list(x.window)} for k in (-1, 0, 1)]


def test_eigen_pi_builds_no_group_element_per_term(constructions, monkeypatch):
    # with the layers built, the check wraps two windows, pi's w0 and its
    # reduced word in the product, whatever the truncation's size, and
    # hashes no Laurent polynomial
    def unhashable(poly):
        raise AssertionError(f"hashed {poly!r}")

    monkeypatch.setattr(LaurentPoly, "__hash__", unhashable)
    p = SphericalParams.generic(5, chi_pi=Fraction(2))
    layers = spherical._layers(p, 5)[0]
    constructions.clear()
    report = verify_eigen_pi(5, p)
    assert report.ok and report.checked == 3 * sum(map(len, layers)) == 753
    assert len(constructions) <= 2, constructions


def test_psi0_two_sided_form():
    # the same formal sum arises with the pi-powers written on the right:
    # coefficients are conjugation-invariant because length is
    for e in (2, 3):
        p = SphericalParams.generic(e)
        L, K = 4, spherical.K
        trunc = SphericalTruncation.build(L, p)
        algebra = trunc.element.algebra
        right_form = {}
        for layer in enumerate_by_length(e, L):
            for w0 in layer:
                for k in range(-K, K + 1):
                    u = multiply(
                        ExtendedWeylElement(0, w0),
                        ExtendedWeylElement(k, AffinePermutation.identity(e)),
                    )
                    right_form[u] = psi0_coefficient(w0.length(), k, p)
        assert algebra.element(right_form) == trunc.element


def test_conjugation_by_pi_preserves_length():
    rng = random.Random(7)
    for _ in range(200):
        e = rng.choice([2, 3, 4])
        w = ExtendedWeylElement.identity(e)
        for _ in range(rng.randrange(0, 6)):
            w = multiply(generator(e, rng.randrange(e)), w)
        k = rng.randrange(-3, 4)
        assert conjugate_by_pi(w.w0, k).length() == w.length()


def test_uniqueness_forward_solve():
    # any coefficient rule with c(identity) = 1 satisfying the generator
    # eigen-identities is forced layer by layer: c(longer) = -c(shorter)/q1
    for e in (2, 3):
        p = SphericalParams.generic(e)
        L = 6
        values = {AffinePermutation.identity(e): LaurentPoly.constant(1)}
        layers = enumerate_by_length(e, L)
        for ell in range(1, L + 1):
            for w0 in layers[ell]:
                candidates = set()
                for i in range(e):
                    shorter = multiply(generator(e, i), ExtendedWeylElement(0, w0))
                    if shorter.length() == ell - 1:
                        candidates.add(-values[shorter.w0] * scalar_inverse(p.q1))
                assert len(candidates) == 1, "recurrence is path-dependent"
                values[w0] = candidates.pop()
        for ell in range(L):
            for w0 in layers[ell]:
                assert values[w0] == psi0_coefficient(w0.length(), 0, p)


def test_matrix_coefficient_values():
    p = SphericalParams.numeric(3, 2, 2)
    identity = AffinePermutation.identity(3)
    assert matrix_coefficient_scalar(identity, p) == 1
    s1 = generator(3, 1).w0
    assert matrix_coefficient_scalar(s1, p) == Fraction(-1, 64)
    # f = 1: the q-power is trivial and the value is (-1/q1)**l
    p1 = SphericalParams.numeric(3, 1, 2)
    assert matrix_coefficient_scalar(s1, p1) == Fraction(-1, 4)


def test_matrix_coefficient_generic_f1():
    p = SphericalParams.generic(3)
    s1 = generator(3, 1).w0
    assert matrix_coefficient_scalar(s1, p) == LaurentPoly.term(-1, -1)


def test_matrix_coefficient_requires_trivial_chi_pi():
    p = SphericalParams(3, 1, Fraction(2), chi_pi=Fraction(-1))
    with pytest.raises(RequiresTrivialChiPi):
        matrix_coefficient_scalar(AffinePermutation.identity(3), p)


def test_params_validation():
    with pytest.raises(ValueError):
        SphericalParams.numeric(3, 1, 1)
    with pytest.raises(ValueError):
        SphericalParams.numeric(1, 1, 2)
    with pytest.raises(ValueError):
        SphericalParams(3, 2, None)  # generic mode has f = 1


def test_params_take_q0_exactly():
    with pytest.raises(TypeError):
        SphericalParams.numeric(3, 1, 2.0)
    with pytest.raises(TypeError):
        SphericalParams(3, 1, 3.0)
    with pytest.raises(ValueError):
        SphericalParams.numeric(3, 1, Fraction(5, 2))
    assert type(SphericalParams.numeric(3, 1, 2).q0) is Fraction


def test_params_derive_q1():
    # generic mode is f = 1, where q = q1 is the Laurent variable
    p = SphericalParams.generic(3)
    assert p.f == 1 and p.q1 == LaurentPoly.variable()
    for m in range(-3, 4):
        assert p.q_power(m) == p.q1**m
    for e, f, q0 in ((3, 1, 2), (3, 2, 3), (5, 3, 5)):
        assert SphericalParams.numeric(e, f, q0).q1 == Fraction(q0) ** (2 * f)


def test_stored_fields_are_the_inputs():
    # every field a result is computed from; derived values are not stored
    assert [f.name for f in dataclasses.fields(SphericalParams)] == ["e", "f", "q0", "chi_pi"]
    assert [f.name for f in dataclasses.fields(SphericalTruncation)] == ["element"]
