"""Hecke algebra: basis products, defining relations, the character."""

import doctest
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from oracles import mutate, right_peeling_product, specialize

import heckezonal.hecke as hecke
from heckezonal import cli
import heckezonal.weyl as weyl
from heckezonal.hecke import HeckeAlgebra, chi, verify_presentation
from heckezonal.scalars import LaurentPoly
from heckezonal.spherical import SphericalParams, SphericalTruncation, verify_eigen_pi
from heckezonal.weyl import (
    AffinePermutation,
    ExtendedWeylElement,
    _simple,
    enumerate_by_length,
    generator,
    multiply,
    pi_element,
)


def generic_algebra(e):
    return HeckeAlgebra(e, LaurentPoly.variable())


def random_element(algebra, rng, max_len=4, terms=2, max_k=1):
    e = algebra.e
    coeffs = {}
    for _ in range(terms):
        w = ExtendedWeylElement.identity(e)
        for _ in range(rng.randrange(0, max_len + 1)):
            w = multiply(generator(e, rng.randrange(e)), w)
        k = rng.randrange(-max_k, max_k + 1)
        w = multiply(ExtendedWeylElement(k, AffinePermutation.identity(e)), w)
        coeffs[w] = coeffs.get(w, 0) + rng.randrange(-3, 4)
    return algebra.element(coeffs)


def test_doctests(pytestconfig):
    # --doctest-modules runs the module's examples; here they are only
    # found, so a deleted or mistyped >>> block cannot pass as zero run
    assert pytestconfig.getoption("doctestmodules")
    assert any(t.examples for t in doctest.DocTestFinder().find(hecke))


def test_basis_identity_and_pi_units():
    A = generic_algebra(3)
    one = A.one()
    h = random_element(A, random.Random(3))
    assert A.product(one, h) == h == A.product(h, one)
    p = A.basis(pi_element(3))
    p_inv = A.basis(pi_element(3).inverse())
    assert p * p_inv == one == p_inv * p


def test_basis_product_when_length_adds():
    A = generic_algebra(3)
    s1, s2 = generator(3, 1), generator(3, 2)
    assert A.basis(s1) * A.basis(s2) == A.basis(multiply(s1, s2))
    rng = random.Random(13)
    for _ in range(100):
        e = rng.choice([2, 3, 4])
        B = generic_algebra(e)
        u = ExtendedWeylElement.identity(e)
        for _ in range(rng.randrange(0, 4)):
            u = multiply(generator(e, rng.randrange(e)), u)
        v = ExtendedWeylElement.identity(e)
        for _ in range(rng.randrange(0, 4)):
            v = multiply(generator(e, rng.randrange(e)), v)
        uv = multiply(u, v)
        if uv.length() == u.length() + v.length():
            assert B.basis(u) * B.basis(v) == B.basis(uv)


def test_quadratic_relation_expanded():
    A = generic_algebra(2)
    q1 = A.q1
    s1 = A.generator_basis(1)
    expect = A.element({ExtendedWeylElement.identity(2): q1, generator(2, 1): q1 - 1})
    assert s1 * s1 == expect


def test_pi_relabels_generators():
    for e in (3, 4):
        A = generic_algebra(e)
        p = A.basis(pi_element(e))
        for i in range(2, e):
            assert p * A.generator_basis(i) == A.generator_basis(i - 1) * p


def test_left_pi_power_shortcut_matches_multiply():
    # [pi**k] * h relabels each [pi**j w0] of h to [pi**(j + k) w0], with
    # no letter to peel, checked against full-window multiply
    e = 4
    A = generic_algebra(e)
    coeffs = {
        ExtendedWeylElement(j, w0): j + 4
        for layer in enumerate_by_length(e, 4)
        for w0 in layer
        for j in range(-3, 4)
    }
    assert len(coeffs) == 483
    h = A.element(coeffs)
    for k in (-2, -1, 1, 3):
        pk = ExtendedWeylElement(k, AffinePermutation.identity(e))
        expect = {multiply(pk, w): c for w, c in coeffs.items()}
        assert (A.basis(pk) * h).coeffs == {(w.k, w.w0.window): c for w, c in expect.items()}


@pytest.mark.parametrize("e", range(2, 9))
def test_generator_step_matches_compose_and_descent(e):
    # the two-slot edit and its descent test against the group's own
    # compose and has_left_descent, on [s_i][pi**k w0], one term against
    # one, so peeled on the left: s_i pi**k = pi**k s_j, so the letter
    # i = j - k edits w0 at j
    A = generic_algebra(e)
    q1 = A.q1
    gens = [A.generator_basis(i) for i in range(e)]
    for layer in enumerate_by_length(e, 5):
        for w0 in layer:
            for j in range(e):
                sw0 = _simple(e, j).compose(w0).window
                for k in (-1, 0, 2):
                    w, sw = (k, w0.window), (k, sw0)
                    expect = {sw: q1, w: q1 - 1} if w0.has_left_descent(j) else {sw: 1}
                    got = gens[(j - k) % e] * A.basis(ExtendedWeylElement(k, w0))
                    assert got.coeffs == expect, (w0, j, k)


@pytest.mark.parametrize("e", range(2, 9))
def test_right_generator_step_matches_compose_and_length(e):
    # the right step and its descent test against the group's own compose
    # and length, on ([pi**k w0] + [pi**(k+1) w0])[s_j], two terms against
    # one, so peeled on the right: [pi**m w0][s_j] is [pi**m w0 s_j], with
    # no shift of j
    A = generic_algebra(e)
    q1 = A.q1
    gens = [A.generator_basis(j) for j in range(e)]
    for layer in enumerate_by_length(e, 5):
        for w0 in layer:
            for j in range(e):
                w0s = w0.compose(_simple(e, j))
                descent = w0s.length() == w0.length() - 1
                assert descent or w0s.length() == w0.length() + 1
                for k in (-1, 0, 2):
                    expect = {}
                    for m in (k, k + 1):
                        w, ws = (m, w0.window), (m, w0s.window)
                        expect.update({ws: q1, w: q1 - 1} if descent else {ws: 1})
                    h = A.basis(ExtendedWeylElement(k, w0)) + A.basis(ExtendedWeylElement(k + 1, w0))
                    assert (h * gens[j]).coeffs == expect, (w0, j, k)


def test_product_builds_no_group_element_per_term(constructions):
    # one AffinePermutation per term of the peeled factor, for its reduced
    # word, and none per term of the other factor: [s_i] * trunc peels
    # [s_i] on the left, trunc * [s_i] on the right
    p = SphericalParams.generic(3)
    trunc = SphericalTruncation.build(4, p).element
    A = trunc.algebra
    for i in range(3):
        s = A.basis(generator(3, i))
        for product in (lambda: s * trunc, lambda: trunc * s):
            constructions.clear()
            assert product().coeffs
            assert len(constructions) <= len(s.coeffs) == 1, constructions
    assert len(trunc.coeffs) == 155


def length_rule_left_generator(algebra, i, h):
    """[s_i] h by the two-case rule, the case picked by comparing lengths."""
    q1 = algebra.q1
    s = generator(algebra.e, i)
    out = algebra.zero()
    for w in h.support():
        c = h.coefficient(w)
        sw = multiply(s, w)
        if sw.length() == w.length() + 1:
            out = out + algebra.element({sw: c})
        else:
            out = out + algebra.element({sw: q1 * c, w: (q1 - 1) * c})
    return out


def test_left_generator_matches_length_rule():
    rng = random.Random(131)
    for e in range(2, 9):
        A = generic_algebra(e)
        for _ in range(10):
            coeffs = {}
            for _ in range(6):
                w = ExtendedWeylElement(rng.randrange(-3, 4), AffinePermutation.identity(e))
                for _ in range(rng.randrange(0, 9)):
                    w = multiply(generator(e, rng.randrange(e)), w)
                coeffs[w] = rng.randrange(1, 5)
            h = A.element(coeffs)
            for i in range(e):
                # one term against six: [s_i] is peeled on the left
                table = (A.generator_basis(i) * h).coeffs
                # the keys enter through the validating constructor
                got = A.element({
                    ExtendedWeylElement(k, AffinePermutation(e, win)): c
                    for (k, win), c in table.items()
                })
                assert got == length_rule_left_generator(A, i, h), (e, i)


@pytest.fixture
def peeled(monkeypatch) -> dict:
    """The products from here on, counted by the side they peel, read from
    the step each ``_peel`` is given: ``_left_step`` or ``_right_step``."""
    counts = {"left": 0, "right": 0}
    sides: list[set] = []
    honest_product, honest_peel = HeckeAlgebra.product, HeckeAlgebra._peel

    def product(self, h1, h2):
        sides.append(set())
        try:
            return honest_product(self, h1, h2)
        finally:
            for side in sides.pop():
                counts[side] += 1

    def peel(self, letters, coeffs, step, shift):
        sides[-1].add({"_left_step": "left", "_right_step": "right"}[step.__name__])
        return honest_peel(self, letters, coeffs, step, shift)

    monkeypatch.setattr(HeckeAlgebra, "product", product)
    monkeypatch.setattr(HeckeAlgebra, "_peel", peel)
    return counts


@pytest.mark.parametrize("e", range(2, 9))
def test_product_matches_right_peeling(e, peeled):
    # the library's product, on either path, against the oracle's right
    # peeling of h2's words, on 2-3-term elements with |k| <= 2 and generic q1
    rng = random.Random(160 + e)
    A = generic_algebra(e)
    for _ in range(40):
        h1, h2 = (
            random_element(A, rng, max_len=6, terms=rng.choice([2, 3]), max_k=2)
            for _ in range(2)
        )
        assert A.product(h1, h2) == right_peeling_product(h1, h2), (h1, h2)
    assert peeled["left"] and peeled["right"], peeled


def test_right_peeling_is_taken_where_the_right_factor_is_smaller(peeled):
    # every relation family compares 1 term with 1 or 2 terms with 2, and
    # eigen's [pi] * truncation has 1 term against many, so all peel on the
    # left; the associativity samples' (h0 h1) h2 mostly peel h2 on the right
    for e in range(2, 9):
        assert verify_presentation(e, 0, 1).ok
    assert peeled["right"] == 0 and peeled["left"] == 351, peeled
    assert verify_eigen_pi(4, SphericalParams.generic(3)).ok
    assert peeled == {"left": 352, "right": 0}
    peeled.update(left=0)
    assert verify_presentation(5, 25, 3).ok
    assert peeled == {"left": 120, "right": 27}


def test_product_never_returns_an_operand_table():
    # the first left term's table becomes the product's, so it must be a
    # new dict even when that term is the identity with coefficient 1
    A = generic_algebra(3)
    rng = random.Random(35)
    h = random_element(A, rng, terms=3)
    before = dict(h.coeffs)
    assert before
    for product in (A.one() * h, h * A.one()):
        assert product.coeffs is not h.coeffs and product == h
        product.coeffs.clear()
        assert h.coeffs == before


@pytest.mark.parametrize("e", [2, 3, 4])
def test_product_scales_its_first_term(e):
    # a left factor whose first term has a coefficient other than 1, a
    # plain int or a Laurent one, against right peeling
    A = generic_algebra(e)
    q = A.q1
    rng = random.Random(350 + e)
    s1, p = generator(e, 1), pi_element(e)
    for h1 in (A.element({s1: 3, p: q}), A.element({p: q, s1: 3})):
        assert next(iter(h1.coeffs.values())) != 1
        for _ in range(20):
            h2 = random_element(A, rng, max_len=5, terms=3, max_k=2)
            assert A.product(h1, h2) == right_peeling_product(h1, h2), (h1, h2)


def test_presentation_catches_flipped_conjugation(monkeypatch):
    # s_i pi**k = pi**k s_{i+k mod e}; the peel with its left shift
    # flipped to i - k sends [s_i][pi**k w0] to the wrong generator
    # whenever 2k != 0 mod e.  The flip is made in the source of _peel
    # itself, so the test fails if that shift moves
    # (ExtendedWeylElement.multiply is covered by the full-window
    # reference in test_weyl.py)
    assert verify_presentation(4).ok
    mutate(monkeypatch, HeckeAlgebra._peel, [("(i + shift * k) % e", "(i - shift * k) % e")], HeckeAlgebra)
    assert not verify_presentation(4).ok


def test_associativity_samples_catch_an_unreversed_product(monkeypatch, capsys):
    # peeling the left factor's reduced word front to back multiplies its
    # generators in reverse order; every relation family has a left factor
    # of length at most 1 and still passes, so only the associativity
    # samples see the fault
    mutate(monkeypatch, HeckeAlgebra.product, [("reversed(word)", "word")], HeckeAlgebra)
    assert cli.run(["presentation", "--e", "3", "--seed", "3", "--samples", "5"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["associativity_ok"] is False
    assert len(report["checks"]) == 7 and all(c["ok"] for c in report["checks"])


def test_associativity_samples_catch_a_flipped_right_descent(monkeypatch, capsys):
    # every relation family peels on the left, so only the associativity
    # samples' right peels, (h0 h1) h2 with h2 the smaller, see the fault
    assert verify_presentation(3, 5, 3).ok
    mutate(monkeypatch, weyl._right_step, [
        ("_right_steps(e)[j](w), descent", "_right_steps(e)[j](w), not descent"),
    ], weyl, hecke)
    assert cli.run(["presentation", "--e", "3", "--seed", "3", "--samples", "5"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["associativity_ok"] is False
    assert len(report["checks"]) == 7 and all(c["ok"] for c in report["checks"])


def test_one_fault_in_the_peel_breaks_both_sides(monkeypatch):
    # the two-case rule is written once, in _peel, so dropping its
    # (q1 - 1) term breaks a left-peeled and a right-peeled product alike;
    # each pair takes the descent case
    A = generic_algebra(3)
    s1, s2 = A.generator_basis(1), A.generator_basis(2)
    # one term against one: s1 peeled on the left; two against one: s2
    # peeled on the right
    pairs = [(s1, s1 * s2), (s1 * s2 + s2, s2)]
    for h1, h2 in pairs:
        assert A.product(h1, h2) == right_peeling_product(h1, h2)
    mutate(monkeypatch, HeckeAlgebra._peel, [("_accumulate(out, key, q1_minus_1 * c)", "pass")], HeckeAlgebra)
    for h1, h2 in pairs:
        assert A.product(h1, h2) != right_peeling_product(h1, h2), (h1, h2)


BROKEN_STEPS = {
    # s_j w0 with the value = j mod e lowered and the one = j + 1 raised
    "swapped-edit": [("edited[a] += 1", "edited[a] -= 1"), ("edited[b] -= 1", "edited[b] += 1")],
    # every term takes the other case of the two-case rule
    "flipped-descent": [("edited), a - w[a] > b - w[b] + 1", "edited), a - w[a] <= b - w[b] + 1")],
}


@pytest.mark.parametrize("edits", BROKEN_STEPS.values(), ids=BROKEN_STEPS)
def test_presentation_catches_a_broken_generator_step(edits, monkeypatch):
    # the edit and the descent test of s_j w0 live in weyl._left_step,
    # which the product's left peel calls
    assert verify_presentation(4).ok
    mutate(monkeypatch, weyl._left_step, edits, weyl, hecke)
    try:
        ok = verify_presentation(4).ok
    except ValueError:
        # the swapped edit leaves W0, so a later letter finds no slot
        ok = False
    assert not ok


def test_descent_case_by_hand():
    # e=2: [s0][s0 s1] = q1 [s1] + (q1-1) [s0 s1]
    A = generic_algebra(2)
    q1 = A.q1
    s0, s1 = generator(2, 0), generator(2, 1)
    s0s1 = multiply(s0, s1)
    assert s0s1.length() == 2
    lhs = A.basis(s0) * A.basis(s0s1)
    assert lhs == A.element({s1: q1, s0s1: q1 - 1})


def test_associativity_generic():
    rng = random.Random(17)
    for e in (2, 3):
        A = generic_algebra(e)
        for _ in range(60):
            h1, h2, h3 = (random_element(A, rng) for _ in range(3))
            assert (h1 * h2) * h3 == h1 * (h2 * h3)


def test_element_and_basis_reject_another_rank():
    A = HeckeAlgebra(3, Fraction(4))
    w = ExtendedWeylElement.identity(2)
    with pytest.raises(ValueError, match="^rank mismatch between element and algebra$"):
        A.element({ExtendedWeylElement.identity(3): 1, w: 1})
    with pytest.raises(ValueError, match="^rank mismatch$"):
        A.basis(w)
    assert A.element({ExtendedWeylElement.identity(3): 1}) == A.one()


def test_algebra_needs_rank_two():
    with pytest.raises(ValueError, match="^rank e must be at least 2$"):
        HeckeAlgebra(1, LaurentPoly.variable())


def test_a_scalar_multiplies_on_either_side():
    A = generic_algebra(3)
    h = A.generator_basis(1) + A.basis(pi_element(3))
    for c in (Fraction(-2, 3), 5, LaurentPoly.variable() - 1):
        assert h * c == c * h == h.scale(c), c


def test_mode_and_rank_mismatch():
    A = generic_algebra(3)
    B = HeckeAlgebra(3, Fraction(4))
    C = generic_algebra(2)
    with pytest.raises(ValueError):
        A.product(A.one(), B.one())
    with pytest.raises(ValueError):
        A.product(A.one(), C.one())
    for other in (B, C):
        with pytest.raises(ValueError, match="^rank/mode mismatch$"):
            A.one() + other.one()


@pytest.mark.parametrize("e", [2, 3, 4])
def test_presentation(e):
    report = verify_presentation(e)
    assert report.ok
    by_name = {c["name"]: c for c in report.checks}
    if e == 2:
        assert not by_name["i"]["vacuous"]
        assert not by_name["ii"]["vacuous"]
        assert not by_name["iii"]["vacuous"]
        assert by_name["iv"]["vacuous"]
        assert by_name["v"]["vacuous"]
        assert by_name["vi"]["vacuous"]
    if e == 4:
        assert by_name["v"]["cases"] == 2
    assert not by_name["s0-consequences"]["axiom"]


def test_presentation_counts_each_case_as_it_is_built():
    # family (vi) has about e**2 / 2 cases: built all at once, their
    # products held 1.15 MB at e = 40
    tracemalloc.start()
    try:
        assert verify_presentation(40).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak


def test_chi_examples():
    for e in (2, 3, 4):
        A = generic_algebra(e)
        for i in range(e):
            assert chi(A.generator_basis(i)) == -1
        rng = random.Random(23)
        for _ in range(50):
            h = random_element(A, rng, terms=1)
            support = h.support()
            if support:
                (w,) = support
                assert chi(A.basis(w)) == (-1) ** w.length()


def test_chi_multiplicative_under_generators():
    # chi([s_i] * [w]) = -chi([w]) through both branches of the product
    # rule, which needs the exact cancellation q1 - (q1 - 1) = 1
    for e in (2, 3):
        A = generic_algebra(e)
        for ell, layer in enumerate(enumerate_by_length(e, 6)):
            for w0 in layer:
                h = A.basis(ExtendedWeylElement(0, w0))
                for i in range(e):
                    assert chi(A.generator_basis(i) * h) == -((-1) ** ell)
                for k in (1, -1):
                    assert chi(A.basis(pi_element(e)) * h) == (-1) ** ell
    # and on products of random 2-3-term elements, for several chi_pi
    rng = random.Random(37)
    for e in (2, 3, 4, 5):
        A = generic_algebra(e)
        for chi_pi in (Fraction(1), Fraction(2), Fraction(-1, 3)):
            for _ in range(10):
                h1, h2 = (random_element(A, rng, terms=rng.choice([2, 3])) for _ in range(2))
                assert chi(h1 * h2, chi_pi) == chi(h1, chi_pi) * chi(h2, chi_pi), (chi_pi, h1, h2)


def test_chi_pi_value():
    A = generic_algebra(3)
    p2 = A.basis(ExtendedWeylElement(2, AffinePermutation.identity(3)))
    assert chi(p2, Fraction(-1)) == 1
    assert chi(A.basis(pi_element(3)), Fraction(-1)) == -1
    with pytest.raises(ValueError):
        chi(p2, 0)


def test_specialization_commutes_with_product():
    rng = random.Random(29)
    A = generic_algebra(3)
    for _ in range(40):
        h1, h2 = random_element(A, rng), random_element(A, rng)
        x = Fraction(rng.randrange(2, 8))
        numeric = HeckeAlgebra(3, x)
        assert specialize(h1 * h2, x) == numeric.product(specialize(h1, x), specialize(h2, x))
