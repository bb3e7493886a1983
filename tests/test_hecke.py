"""Hecke algebra: basis products, defining relations, the character."""

import inspect
import random
import textwrap
import tracemalloc
from fractions import Fraction

import pytest
from oracles import right_peeling_product, specialize

import heckezonal.hecke as hecke
from heckezonal.hecke import HeckeAlgebra, chi, verify_presentation
from heckezonal.scalars import LaurentPoly
from heckezonal.spherical import SphericalParams, SphericalTruncation
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
    # pi**k * (pi**j w0) = pi**(j + k) w0, checked against full-window multiply
    e = 4
    A = generic_algebra(e)
    coeffs = {
        ExtendedWeylElement(j, w0): j + 4
        for layer in enumerate_by_length(e, 4)
        for w0 in layer
        for j in range(-3, 4)
    }
    assert len(coeffs) == 483
    table = {(w.k, w.w0.window): c for w, c in coeffs.items()}
    for k in (-2, -1, 1, 3):
        pk = ExtendedWeylElement(k, AffinePermutation.identity(e))
        expect = {multiply(pk, w): c for w, c in coeffs.items()}
        assert A._left_pi_power(k, table) == {(w.k, w.w0.window): c for w, c in expect.items()}


@pytest.mark.parametrize("e", range(2, 9))
def test_generator_step_matches_compose_and_descent(e):
    # the two-slot edit and its descent test against the group's own
    # compose and has_left_descent, on the one-term table [pi**k w0]:
    # s_i pi**k = pi**k s_j, so the letter i = j - k edits w0 at j
    A = generic_algebra(e)
    q1 = A.q1
    for layer in enumerate_by_length(e, 5):
        for w0 in layer:
            for j in range(e):
                sw0 = _simple(e, j).compose(w0).window
                for k in (-1, 0, 2):
                    w, sw = (k, w0.window), (k, sw0)
                    expect = {sw: q1, w: q1 - 1} if w0.has_left_descent(j) else {sw: 1}
                    assert A._left_generator((j - k) % e, {w: 1}) == expect, (w0, j, k)


def test_product_builds_no_group_element_per_term(constructions):
    # one AffinePermutation per left-factor term, for its reduced word,
    # and none per term of the right factor
    p = SphericalParams.generic(3)
    trunc = SphericalTruncation.build(4, p).element
    A = trunc.algebra
    for i in range(3):
        left = A.basis(generator(3, i))
        constructions.clear()
        assert (left * trunc).coeffs
        assert len(constructions) <= len(left.coeffs) == 1, constructions
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
                table = A._left_generator(i, h.coeffs)
                # the keys enter through the validating constructor
                got = A.element({
                    ExtendedWeylElement(k, AffinePermutation(e, win)): c
                    for (k, win), c in table.items()
                })
                assert got == length_rule_left_generator(A, i, h), (e, i)


@pytest.mark.parametrize("e", range(2, 9))
def test_product_matches_right_peeling(e):
    # left peeling of h1's words against right peeling of h2's words, on
    # 2-3-term elements with |k| <= 2 and generic q1
    rng = random.Random(160 + e)
    A = generic_algebra(e)
    for _ in range(40):
        h1, h2 = (
            random_element(A, rng, max_len=6, terms=rng.choice([2, 3]), max_k=2)
            for _ in range(2)
        )
        assert A.product(h1, h2) == right_peeling_product(h1, h2), (h1, h2)


def mutate_left_generator(monkeypatch, edits):
    """Patch HeckeAlgebra._left_generator with its own source, edited.

    Each (old, new) pair must occur exactly once in the source, so a
    test fails if the text it mutates moves.
    """
    source = textwrap.dedent(inspect.getsource(HeckeAlgebra._left_generator))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = {}
    exec(source, vars(hecke), namespace)
    monkeypatch.setattr(HeckeAlgebra, "_left_generator", namespace["_left_generator"])


def test_presentation_catches_flipped_conjugation(monkeypatch):
    # s_i pi**k = pi**k s_{i+k mod e}; the product's generator step with
    # its shift flipped to i - k sends [s_i][pi**k w0] to the wrong
    # generator whenever 2k != 0 mod e.  The flip is made in the source of
    # _left_generator itself, so the test fails if that shift moves
    # (ExtendedWeylElement.multiply is covered by the full-window
    # reference in test_weyl.py)
    assert verify_presentation(4).ok
    mutate_left_generator(monkeypatch, [("(i + k) % e", "(i - k) % e")])
    assert not verify_presentation(4).ok


BROKEN_STEPS = {
    # s_j w0 with the value = j mod e lowered and the one = j + 1 raised
    "swapped-edit": [("edited[a] += 1", "edited[a] -= 1"), ("edited[b] -= 1", "edited[b] += 1")],
    # every term takes the other case of the two-case rule
    "flipped-descent": [("a - win[a] > b - win[b] + 1", "a - win[a] <= b - win[b] + 1")],
}


@pytest.mark.parametrize("edits", BROKEN_STEPS.values(), ids=BROKEN_STEPS)
def test_presentation_catches_a_broken_generator_step(edits, monkeypatch):
    assert verify_presentation(4).ok
    mutate_left_generator(monkeypatch, edits)
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


def test_mode_and_rank_mismatch():
    A = generic_algebra(3)
    B = HeckeAlgebra(3, Fraction(4))
    C = generic_algebra(2)
    with pytest.raises(ValueError):
        A.product(A.one(), B.one())
    with pytest.raises(ValueError):
        A.product(A.one(), C.one())


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
