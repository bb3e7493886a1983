"""Spherical eigenvector: coefficient rule, eigen-equations, values."""

import random
from fractions import Fraction

import pytest
from oracles import eigen_generator_reference, mutate, wrong_pi_power

import heckezonal.spherical as spherical
from heckezonal import cli
from heckezonal.hecke import HeckeAlgebra
from heckezonal.scalars import LaurentPoly, Monomial, scalar_inverse, scalar_power
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
    # random elements at e = 2..8 and |k| <= 3, each looked up twice, and
    # the walk's grid of one value per (layer, k) for l(w0) <= 3, |k| <= K
    rng = random.Random(141)
    q1 = Fraction(5) ** 2
    K = spherical.K
    for e in range(2, 9):
        chi_pi = rng.choice(CHI_PIS)
        generic = SphericalParams.generic(e, chi_pi=chi_pi)
        numeric = SphericalParams(e, 1, Fraction(5), chi_pi)
        for _ in range(40):
            w = ExtendedWeylElement.identity(e)
            for _ in range(rng.randrange(0, 9)):
                w = multiply(generator(e, rng.randrange(e)), w)
            w = ExtendedWeylElement(rng.randrange(-3, 4), w.w0)
            ell = len(w.w0.reduced_word())
            unit = (-1) ** ell * chi_pi ** (-w.k)
            for _ in range(2):
                assert psi0_coefficient(w.length(), w.k, generic) == LaurentPoly.term(unit, -ell), w
                assert psi0_coefficient(w.length(), w.k, numeric) == unit / q1**ell, w
        units = [[(-1) ** ell * chi_pi ** (-k) for k in range(-K, K + 1)] for ell in range(4)]
        assert spherical._walk(generic, 3)[1] == [
            [LaurentPoly.term(unit, -ell) for unit in row] for ell, row in enumerate(units)
        ]
        assert spherical._walk(numeric, 3)[1] == [
            [unit / q1**ell for unit in row] for ell, row in enumerate(units)
        ]


def test_psi0_table_is_per_params():
    # same (e, f, q0) and the same (length, k) keys, different chi_pi
    e = 3
    w = ExtendedWeylElement(1, generator(e, 1).w0)
    a = SphericalParams.generic(e, chi_pi=Fraction(2))
    b = SphericalParams.generic(e, chi_pi=Fraction(-1, 3))
    assert psi0_coefficient(w.length(), w.k, a) == LaurentPoly.term(Fraction(-1, 2), -1)
    assert psi0_coefficient(w.length(), w.k, b) == LaurentPoly.term(3, -1)
    values_a, values_b = spherical._walk(a, 1)[1], spherical._walk(b, 1)[1]
    assert a._eigen_table is not b._eigen_table
    assert values_a[1][1 + spherical.K] == LaurentPoly.term(Fraction(-1, 2), -1)
    assert values_b[1][1 + spherical.K] == LaurentPoly.term(3, -1)


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
def test_eigen_checks_catch_an_element_in_a_wrong_layer(e, monkeypatch):
    # x of layer 2 moved to layer 1 by the BFS, so also in the walk's
    # window -> layer map: its inversion count disagrees with the layer it
    # is read from, so each of its cases fails in every generator check
    L = 3
    p = SphericalParams.generic(e, chi_pi=Fraction(-1, 3))
    layers = enumerate_by_length(e, L)
    x = layers[2][0]
    moved = [list(layer) for layer in layers]
    moved[2].remove(x)
    moved[1].append(x)
    monkeypatch.setattr(spherical, "enumerate_by_length", lambda e, L: moved)
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


def test_eigen_checks_catch_a_wrong_boundary_layer(monkeypatch):
    # x has l(x) = L, so x itself is boundary and its layer is read only
    # as l(s_i u) for u = s_i x one layer down: a check that skipped that
    # lookup for some u would pass for some x.  The walk reads l(s_j u) at
    # (s_j u)**-1 = u**-1 s_j, the right step of u's inverse window, so
    # each x of layer L is in turn replaced, wherever a step lands on x's
    # inverse window, by the inverse window of an element one layer too
    # low or of one outside the layers.  The walk is built once per
    # parameters, so each wrong step gets fresh parameters
    e, L = 3, 3
    layers = enumerate_by_length(e, L + 1)
    boundary = layers[L]
    assert len(boundary) > 1
    honest = spherical._right_steps(e)
    for w0 in boundary:
        x = ExtendedWeylElement(0, w0)
        below = [(i, multiply(generator(e, i), x)) for i in range(e)]
        below = [(i, u) for i, u in below if u.length() == L - 1]
        assert below, w0
        target = w0.inverse().window
        for wrong in (layers[L - 1][0], layers[L + 1][0]):
            landing = wrong.inverse().window
            steps = tuple(
                lambda w, step=step, landing=landing, target=target:
                    landing if step(w) == target else step(w)
                for step in honest
            )
            monkeypatch.setattr(spherical, "_right_steps", lambda e, steps=steps: steps)
            p = SphericalParams.generic(e, chi_pi=Fraction(2))
            for i, u in below:
                report = verify_eigen_generator(i, L, p)
                assert not report.ok, (w0, wrong, i)
                witness = {"k": 0, "window": list(u.w0.window)}
                assert witness in report.failures, (w0, wrong, i)


def test_eigen_checks_fail_when_the_walk_reads_the_wrong_side(monkeypatch):
    # with inverse() the identity map, the walk reads the layer of w0 s_j
    # where it needs that of s_j w0: every generator check fails, so the
    # lookup through the inverse window reaches the verdict
    monkeypatch.setattr(AffinePermutation, "inverse", lambda w0: w0)
    for e in (2, 3, 4):
        p = SphericalParams.generic(e, chi_pi=Fraction(2))
        for i in range(e):
            assert not verify_eigen_generator(i, 4, p).ok, (e, i)


def test_eigen_checks_catch_a_flipped_case(monkeypatch):
    # the generator rule with its two cases swapped fails for every s_i
    honest = AffinePermutation.has_left_descent
    monkeypatch.setattr(AffinePermutation, "has_left_descent", lambda w0, j: not honest(w0, j))
    for e in (2, 3, 4):
        p = SphericalParams.generic(e, chi_pi=Fraction(-1, 3))
        for i in range(e):
            report = verify_eigen_generator(i, 3, p)
            assert not report.ok and report.passed == 0, (e, i)


def test_flipped_case_fails_every_generator_case_on_the_command_line(monkeypatch, capsys):
    # the same flip through the CLI: exit 1, every interior case of every
    # generator check listed in (layer, window, k) order, 171 witnesses in
    # all, and the pi check, which reads no descent, still passing
    honest_report = verify_eigen(3, 4, Fraction(2))
    honest = AffinePermutation.has_left_descent
    monkeypatch.setattr(AffinePermutation, "has_left_descent", lambda w0, j: not honest(w0, j))
    assert cli.run(["eigen", "--e", "3", "--L", "4", "--chi-pi=2"]) == 1
    walk = [
        {"k": k, "window": list(w0.window)}
        for layer in enumerate_by_length(3, 3)
        for w0 in layer
        for k in (-1, 0, 1)
    ]
    expected = dict(honest_report, ok=False, reports=[
        dict(r, passed=0, failures=walk, ok=False) if r["kind"] != "pi" else r
        for r in honest_report["reports"]
    ])
    assert sum(len(r["failures"]) for r in expected["reports"]) == 171
    assert capsys.readouterr().out == cli.emit("eigen", expected, "json")


def test_generator_checks_compute_each_step_once(monkeypatch):
    # the e generator checks of one job share one step table: each
    # (w0, s_j) is descent-tested once, each w0 is inverted once for the
    # layers of its e steps and has its inversion count taken once, over
    # the N(0..L-1) interior elements, and nothing is composed
    e, L = 4, 4
    calls = {"has_left_descent": 0, "compose": 0, "inverse": 0, "length": 0}
    inside = []

    def counted(cls, name, key):
        honest = getattr(cls, name)

        def wrapper(*args):
            if inside:
                calls[key] += 1
            return honest(*args)

        monkeypatch.setattr(cls, name, wrapper)

    counted(AffinePermutation, "has_left_descent", "has_left_descent")
    counted(AffinePermutation, "compose", "compose")
    counted(AffinePermutation, "inverse", "inverse")
    counted(ExtendedWeylElement, "length", "length")
    honest_check = spherical.verify_eigen_generator

    def generator_check(*args):
        inside.append(True)
        try:
            return honest_check(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(spherical, "verify_eigen_generator", generator_check)
    assert verify_eigen(e, L, Fraction(2))["ok"]
    interior = sum(map(len, enumerate_by_length(e, L - 1)))
    assert interior == 35
    assert calls == {"has_left_descent": e * interior, "compose": 0, "inverse": interior, "length": interior}


def test_eigen_job_walks_once(monkeypatch):
    # the e generator checks, the truncation and the pi check of one job
    # read one walk: one BFS, and one psi0 value per (layer, k) for
    # l(w0) <= L and |k| <= K, 5 * (L + 1) in all
    e, L = 4, 4
    calls = {"enumerate_by_length": 0, "psi0_coefficient": 0}
    for name in calls:
        honest = getattr(spherical, name)

        def counted(*args, name=name, honest=honest):
            calls[name] += 1
            return honest(*args)

        monkeypatch.setattr(spherical, name, counted)
    assert verify_eigen(e, L, Fraction(2))["ok"]
    assert calls == {"enumerate_by_length": 1, "psi0_coefficient": 25}


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
    # a product whose left relabel drops every pi**k x fails exactly x's
    # cases: a key missing from the left side reads as coefficient 0,
    # never as a pass
    x = enumerate_by_length(3, 3)[2][0]
    mutate(monkeypatch, HeckeAlgebra.product, [
        ("(k, w), c in acc.items()}", f"(k, w), c in acc.items() if w != {x.window!r}}}"),
    ], HeckeAlgebra)
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
    layers = spherical._walk(p, 5)[0]
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


def test_eigen_generator_validation_names_each_fault():
    p = SphericalParams.numeric(3, 1, 2)
    with pytest.raises(ValueError, match="^truncation L must be at least 1$"):
        verify_eigen_generator(0, 0, p)
    for i in (-1, 3):
        with pytest.raises(ValueError, match=rf"^generator index {i} out of range 0\.\.2$"):
            verify_eigen_generator(i, 2, p)
    assert verify_eigen_generator(2, 1, p).ok


def test_params_are_immutable_values():
    p = SphericalParams.numeric(3, 2, 3)
    assert p == SphericalParams(3, 2, Fraction(3), chi_pi=1) and hash(p) == hash(SphericalParams(3, 2, 3))
    assert p != SphericalParams.numeric(3, 2, 5) and p != SphericalParams.generic(3)
    assert p.q1 == 3**4  # a cached derived value is no input: it changes neither equality nor hash
    assert p == SphericalParams.numeric(3, 2, 3) and hash(p) == hash(SphericalParams.numeric(3, 2, 3))
    assert hash(p) == hash((3, 2, Fraction(3), 1)) and p != (3, 2, Fraction(3), 1)
    assert repr(p) == "SphericalParams(e=3, f=2, q0=3, chi_pi=1)"
    with pytest.raises(AttributeError, match="^SphericalParams is immutable$"):
        p.q0 = Fraction(5)
    with pytest.raises(AttributeError):
        del p.f
    assert p.q0 == 3 and p.f == 2


def test_params_take_q0_exactly():
    with pytest.raises(TypeError):
        SphericalParams.numeric(3, 1, 2.0)
    with pytest.raises(TypeError):
        SphericalParams(3, 1, 3.0)
    with pytest.raises(ValueError):
        SphericalParams.numeric(3, 1, Fraction(5, 2))
    assert type(SphericalParams.numeric(3, 1, 2).q0) is int
    assert type(SphericalParams.numeric(3, 1, Fraction(2)).q0) is int


def test_params_take_chi_pi_as_an_exact_unit():
    # a zero chi_pi is refused when the parameters are built, before an
    # eigen walk would reach psi0_coefficient's inverse of it
    with pytest.raises(ValueError, match="chi_pi must be a unit"):
        verify_eigen(3, 2, 0)
    with pytest.raises(ValueError, match="chi_pi must be a unit"):
        SphericalParams.generic(3, chi_pi=Fraction(0))
    with pytest.raises(TypeError):
        SphericalParams.generic(3, chi_pi=0.5)
    # the value is stored as given, so an int and its Fraction stay equal
    p = SphericalParams.generic(3, chi_pi=-1)
    assert p.chi_pi == -1 and type(p.chi_pi) is int and p == SphericalParams.generic(3, chi_pi=Fraction(-1))
    assert repr(p) == "SphericalParams(e=3, f=1, q0=None, chi_pi=-1)"


def test_params_derive_q1():
    # generic mode is f = 1, where q = q1 is the Laurent variable
    p = SphericalParams.generic(3)
    assert p.f == 1 and p.q1 == LaurentPoly.variable()
    for m in range(-3, 4):
        assert p.q_power(m) == p.q1**m
    for e, f, q0 in ((3, 1, 2), (3, 2, 3), (5, 3, 5)):
        assert SphericalParams.numeric(e, f, q0).q1 == Fraction(q0) ** (2 * f)


def test_numeric_q_powers_are_q0_monomials():
    # q1 = q0**(2f), q**m = q0**(2m) and -1/q1 are signed powers of q0,
    # and so is the closed coefficient built from them
    p = SphericalParams.numeric(3, 2, 3)
    s1 = generator(3, 1).w0
    values = {
        "q1": (p.q1, (3, 1, 4)),
        "q_power(-3)": (p.q_power(-3), (3, 1, -6)),
        "q_power(0)": (p.q_power(0), (3, 1, 0)),
        "neg_inv_q1": (p.neg_inv_q1(), (3, -1, -4)),
        "coefficient at s1": (matrix_coefficient_scalar(s1, p), (3, -1, -6)),
    }
    for name, (value, fields) in values.items():
        assert type(value) is Monomial and (value.base, value.sign, value.exp) == fields, name


def test_stored_fields_are_the_inputs():
    # every field a result is computed from; derived values are not stored
    assert SphericalParams._fields == ("e", "f", "q0", "chi_pi")
    assert list(vars(SphericalParams.numeric(3, 2, 3))) == ["e", "f", "q0", "chi_pi"]
    assert SphericalTruncation._fields == ("element",)
    assert list(vars(SphericalTruncation.build(1, SphericalParams.generic(2)))) == ["element"]
