"""Extended affine Weyl group: windows, lengths, words, enumeration."""

import doctest
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import apply, project_to_finite, random_element_reference

import heckezonal.weyl
from heckezonal.scalars import Value
from heckezonal.weyl import (
    AffinePermutation,
    EnumerationCapExceeded,
    ExtendedWeylElement,
    all_reduced_words,
    conjugate_by_pi,
    enumerate_by_length,
    generator,
    multiply,
    perm_compose,
    pi_element,
)


def random_element(e, rng, max_len=6, max_k=2):
    w = ExtendedWeylElement.identity(e)
    for _ in range(rng.randrange(0, max_len + 1)):
        w = multiply(generator(e, rng.randrange(e)), w)
    shift = ExtendedWeylElement(rng.randrange(-max_k, max_k + 1), AffinePermutation.identity(e))
    return multiply(shift, w)


def bfs_distance(target: ExtendedWeylElement) -> int:
    """Cayley-graph distance from the identity, ignoring the pi power."""
    e = target.e
    goal = target.w0
    frontier = {AffinePermutation.identity(e)}
    seen = set(frontier)
    dist = 0
    gens = [generator(e, i).w0 for i in range(e)]
    while goal not in frontier:
        frontier = {s.compose(w) for w in frontier for s in gens} - seen
        seen |= frontier
        dist += 1
        assert dist < 50, "runaway BFS"
    return dist


def test_doctests():
    failures, attempted = doctest.testmod(heckezonal.weyl)
    assert failures == 0 and attempted > 0


def test_generator_examples():
    assert generator(3, 1).w0.window == (2, 1, 3)
    assert multiply(generator(3, 1), generator(3, 1)) == ExtendedWeylElement.identity(3)
    # s_0 agrees with the conjugate pi s_1 pi**-1 and has length 1
    pi = pi_element(3)
    conj = multiply(multiply(pi, generator(3, 1)), pi.inverse())
    assert conj == generator(3, 0)
    assert generator(3, 0).length() == 1
    with pytest.raises(ValueError):
        generator(3, 3)
    with pytest.raises(ValueError):
        AffinePermutation.identity(1)
    # the sampler's identity is validated once per rank, and still raises
    with pytest.raises(ValueError):
        ExtendedWeylElement.identity(1)
    with pytest.raises(ValueError):
        heckezonal.weyl.random_element(1, random.Random(0))


def test_random_element_matches_reference():
    # every (k, window) drawn, and the rng state after the draws
    for e in range(2, 7):
        for seed in range(8):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(30):
                got = heckezonal.weyl.random_element(e, rng)
                want = random_element_reference(e, ref)
                assert (got.k, got.w0.window) == (want.k, want.w0.window), (e, seed)
            assert rng.getstate() == ref.getstate(), (e, seed)


def test_random_element_validates_its_window(monkeypatch):
    # a product window pushed off W0 by one reaches the validating
    # constructor at the end of the draw; seed 1 draws one generator first
    honest = AffinePermutation.compose

    def off_by_one(self, other):
        first, *rest = honest(self, other).window
        return AffinePermutation._raw(self.e, (first + 1, *rest))

    monkeypatch.setattr(AffinePermutation, "compose", off_by_one)
    assert random.Random(1).randrange(0, 5) == 1
    with pytest.raises(ValueError, match="^window shift sum must be a multiple of e$"):
        heckezonal.weyl.random_element(3, random.Random(1))


def test_pi_element_relations():
    # conjugation by pi lowers the generator index mod e
    for e in (2, 3, 4):
        pi = pi_element(e)
        for i in range(e):
            conj = multiply(multiply(pi, generator(e, i)), pi.inverse())
            assert conj == generator(e, (i - 1) % e)
    # pi**e is central
    for e in (2, 3, 4):
        pe = ExtendedWeylElement(e, AffinePermutation.identity(e))
        for i in range(e):
            s = generator(e, i)
            assert multiply(pe, s) == multiply(s, pe)
    assert multiply(pi_element(2), pi_element(2).inverse()) == ExtendedWeylElement.identity(2)


def test_multiply_canonical_form():
    rng = random.Random(5)
    for _ in range(200):
        e = rng.choice([2, 3, 4, 5])
        a, b = random_element(e, rng), random_element(e, rng)
        prod = multiply(a, b)
        assert sum(prod.w0.window) == e * (e + 1) // 2
        one = ExtendedWeylElement.identity(e)
        assert multiply(a, a.inverse()) == one == multiply(a.inverse(), a)
        w0_inv = a.w0.inverse()
        assert a.w0.compose(w0_inv) == one.w0 == w0_inv.compose(a.w0)
    # Coxeter order 3 for adjacent generators
    prod = multiply(generator(3, 1), generator(3, 2))
    assert multiply(multiply(prod, prod), prod) == ExtendedWeylElement.identity(3)
    with pytest.raises(ValueError):
        multiply(generator(2, 1), generator(3, 1))


def test_length_examples_and_oracle():
    assert ExtendedWeylElement.identity(3).length() == 0
    for e in (2, 3, 4):
        for i in range(e):
            assert generator(e, i).length() == 1
    w = multiply(generator(3, 1), multiply(generator(3, 2), generator(3, 1)))
    assert w.length() == 3 == bfs_distance(w)
    rng = random.Random(11)
    for _ in range(80):
        e = rng.choice([2, 3])
        a = random_element(e, rng, max_len=5)
        assert a.length() == bfs_distance(a)


def test_length_is_pi_invariant_and_symmetric():
    rng = random.Random(21)
    for _ in range(300):
        e = rng.choice([2, 3, 4])
        a, b = random_element(e, rng), random_element(e, rng)
        assert a.inverse().length() == a.length()
        assert multiply(a, b).length() <= a.length() + b.length()
        i = rng.randrange(e)
        assert abs(multiply(generator(e, i), a).length() - a.length()) == 1
        shifted = ExtendedWeylElement(a.k + 3, a.w0)
        assert shifted.length() == a.length()


def test_reduced_word():
    assert AffinePermutation.identity(4).reduced_word() == []
    assert generator(4, 2).w0.reduced_word() == [2]
    rng = random.Random(31)
    for _ in range(150):
        e = rng.choice([2, 3, 4])
        a = random_element(e, rng)
        word = a.w0.reduced_word()
        assert len(word) == a.length() == bfs_distance(a)
        acc = ExtendedWeylElement.identity(e)
        for i in word:
            acc = multiply(acc, generator(e, i))
        assert acc.w0 == a.w0


def reference_inverse(w: AffinePermutation) -> AffinePermutation:
    """w**-1 through the validating constructor, from a residue table."""
    e = w.e
    by_residue = {(v - 1) % e: (j, v) for j, v in enumerate(w.window)}
    win = []
    for target in range(1, e + 1):
        j, v = by_residue[(target - 1) % e]
        win.append((j + 1) + (target - v))
    return AffinePermutation(e, tuple(win))


def reference_reduced_word(w: AffinePermutation) -> list[int]:
    """Lowest-index left descent first, rebuilding w**-1 for every index tried."""
    word = []
    while w != AffinePermutation.identity(w.e):
        for i in range(w.e):
            inv = reference_inverse(w)
            if apply(inv, i) > apply(inv, i + 1):
                word.append(i)
                w = generator(w.e, i).w0.compose(w)
                break
    return word


class Twin(Value):
    """A value type with the fields of AffinePermutation, and no checks."""

    __slots__ = _fields = ("e", "window")

    def __init__(self, e, window):
        Twin.e.__set__(self, e)
        Twin.window.__set__(self, window)


def assert_matches_validated(w: AffinePermutation) -> None:
    """A trusted result: equal and hash-equal to the same window through
    the validating constructor (which raises if it is invalid), hashed and
    printed by its fields, unequal to a value of another type, with no
    __dict__ and frozen."""
    checked = AffinePermutation(w.e, w.window)
    assert w == checked and hash(w) == hash(checked) == hash((w.e, w.window))
    assert repr(w) == f"AffinePermutation(e={w.e!r}, window={w.window!r})"
    assert w != Twin(w.e, w.window) and w != (w.e, w.window)
    assert not hasattr(w, "__dict__")
    with pytest.raises(AttributeError):
        w.window = checked.window
    with pytest.raises(AttributeError):
        del w.window


def test_values_print_their_fields():
    s1 = generator(3, 1)
    assert repr(s1.w0) == "AffinePermutation(e=3, window=(2, 1, 3))"
    assert repr(s1) == "ExtendedWeylElement(k=0, w0=AffinePermutation(e=3, window=(2, 1, 3)))"
    with pytest.raises(AttributeError, match="^AffinePermutation is immutable$"):
        s1.w0.e = 4
    with pytest.raises(AttributeError, match="^ExtendedWeylElement is immutable$"):
        del s1.k


def test_trusted_results_are_valid_windows():
    rng = random.Random(61)
    for e in range(2, 9):
        for i in range(e):
            assert_matches_validated(generator(e, i).w0)
        for layer in enumerate_by_length(e, 3):
            for w0 in layer:
                assert_matches_validated(w0)
        for _ in range(40):
            a, b = random_element(e, rng, max_len=10), random_element(e, rng, max_len=10)
            ab = a.w0.compose(b.w0)
            assert_matches_validated(ab)
            assert all(apply(ab, x) == apply(a.w0, apply(b.w0, x)) for x in range(-2 * e, 2 * e))
            inv = a.w0.inverse()
            assert_matches_validated(inv)
            assert inv == reference_inverse(a.w0)
            assert inv.compose(a.w0) == AffinePermutation.identity(e)
            for w in (multiply(a, b), a.inverse()):
                assert_matches_validated(w.w0)
                assert hash(w) == hash((w.k, w.w0))
                assert repr(w) == f"ExtendedWeylElement(k={w.k!r}, w0={w.w0!r})"
                assert w != w.w0 and w != (w.k, w.w0)
                assert not hasattr(w, "__dict__")
                with pytest.raises(AttributeError):
                    w.k = 0
                with pytest.raises(AttributeError):
                    del w.k
            for k in range(-e, e + 1):
                c = conjugate_by_pi(a.w0, k)
                assert_matches_validated(c)
                assert c.length() == a.length()


def reference_multiply(a: ExtendedWeylElement, b: ExtendedWeylElement) -> ExtendedWeylElement:
    """a * b by evaluating the bijections on 1..e, through the validating constructor."""
    full = tuple(apply(a, apply(b, x)) for x in range(1, a.e + 1))
    return ExtendedWeylElement.from_full_window(a.e, full)


def test_equal_elements_hash_equal():
    # elements built along different routes: products of generators and
    # pi, the validating full-window constructor, and double inverses
    rng = random.Random(29)
    for e in range(2, 7):
        built = []
        for _ in range(40):
            w = random_element(e, rng, max_len=4, max_k=1)
            built += [w, ExtendedWeylElement.from_full_window(e, w.full_window()), w.inverse().inverse()]
            built.append(multiply(w, multiply(generator(e, 0), generator(e, 0))))
        equal_pairs = 0
        for a in built:
            for b in built:
                if a == b:
                    assert hash(a) == hash(b), (a, b)
                    equal_pairs += 1
        assert equal_pairs >= 4 * len(built)  # each equals its three rebuilds


def test_multiply_matches_full_window_reference():
    rng = random.Random(111)
    for e in range(2, 9):
        for _ in range(30):
            a, b, c = (random_element(e, rng, max_len=10, max_k=3) for _ in range(3))
            ab = multiply(a, b)
            assert ab == reference_multiply(a, b), (a, b)
            assert ExtendedWeylElement.from_full_window(e, ab.full_window()) == ab
            assert multiply(ab, c) == multiply(a, multiply(b, c))


def test_conjugate_by_pi_matches_apply_formula():
    rng = random.Random(121)
    for e in range(2, 9):
        for _ in range(20):
            w0 = random_element(e, rng, max_len=10, max_k=0).w0
            for k in range(-2 * e, 2 * e + 1):
                expect = tuple(apply(w0, x + k) - k for x in range(1, e + 1))
                assert conjugate_by_pi(w0, k).window == expect, (w0.window, k)


def test_has_left_descent_matches_length():
    rng = random.Random(71)
    for e in range(2, 9):
        for _ in range(40):
            a = random_element(e, rng, max_len=10, max_k=0)
            for i in range(e):
                shorter = multiply(generator(e, i), a).length() < a.length()
                assert a.w0.has_left_descent(i) == shorter, (a.w0.window, i)


@pytest.mark.parametrize("e", range(2, 8))
def test_window_steps_match_apply(e):
    # s_j on the integers, written out here: it raises x = j mod e by 1
    # and lowers x = j + 1 mod e by 1, for j = 0 as for j >= 1.  The
    # generators are not used, as _simple reads the step table, and
    # neither is compose; each step is checked against apply.
    def s(j, x):
        return x + 1 if (x - j) % e == 0 else x - 1 if (x - j - 1) % e == 0 else x

    steps = heckezonal.weyl._right_steps(e)
    assert len(steps) == e
    for layer in enumerate_by_length(e, 4):
        for w0 in layer:
            win, ell = w0.window, w0.length()
            for j in range(e):
                right = tuple(apply(w0, s(j, x)) for x in range(1, e + 1))
                assert steps[j](win) == right, (win, j)
                left, descent = heckezonal.weyl._left_step(win, j, e)
                assert left == tuple(s(j, apply(w0, x)) for x in range(1, e + 1)), (win, j)
                assert descent == (AffinePermutation(e, left).length() == ell - 1), (win, j)


def test_reduced_word_matches_reference():
    rng = random.Random(81)
    for e in range(2, 9):
        for _ in range(40):
            w0 = random_element(e, rng, max_len=10).w0
            word = w0.reduced_word()
            assert word == reference_reduced_word(w0), w0.window
            assert len(word) == w0.length()


@pytest.mark.parametrize("e", range(2, 7))
def test_reduced_word_round_trip_on_layers(e):
    # every element of the layers, not a sample: the word has the layer's
    # length and its generators multiply back to the element
    for ell, layer in enumerate(enumerate_by_length(e, 5)):
        for w0 in layer:
            word = w0.reduced_word()
            assert len(word) == ell, w0.window
            acc = AffinePermutation.identity(e)
            for i in word:
                acc = acc.compose(generator(e, i).w0)
            assert acc == w0, (w0.window, word)


PERMS = st.integers(1, 8).flatmap(
    lambda e: st.tuples(st.permutations(range(1, e + 1)), st.permutations(range(1, e + 1)))
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(PERMS)
def test_perm_compose_applies_the_right_factor_first(pq):
    p, q = (dict(enumerate(perm, start=1)) for perm in pq)
    composed = perm_compose(*map(tuple, pq))
    assert composed == tuple(p[q[i]] for i in range(1, len(p) + 1))


def test_all_reduced_words_multiply_back():
    rng = random.Random(41)
    for _ in range(40):
        e = rng.choice([3, 4])
        a = random_element(e, rng, max_len=4, max_k=0)
        words = all_reduced_words(a.w0)
        assert words and all(len(w) == a.length() for w in words)
        for word in words:
            acc = ExtendedWeylElement.identity(e)
            for i in word:
                acc = multiply(acc, generator(e, i))
            assert acc == a


def reference_all_reduced_words(w0):
    """The descent recursion on elements, one has_left_descent call per
    generator and node, as all_reduced_words was first written."""
    cache = {}

    def walk(w):
        if w == AffinePermutation.identity(w.e):
            return [[]]
        if w in cache:
            return cache[w]
        words = []
        for i in range(w.e):
            if w.has_left_descent(i):
                for tail in walk(generator(w.e, i).w0.compose(w)):
                    words.append([i] + tail)
        cache[w] = words
        return words

    return walk(w0)


@pytest.mark.parametrize("e", range(2, 8))
def test_all_reduced_words_matches_descent_recursion(e):
    # same words in the same order, on every element of length <= 5
    for layer in enumerate_by_length(e, 5):
        for w0 in layer:
            assert all_reduced_words(w0) == reference_all_reduced_words(w0), w0.window


def test_has_left_descent_at_shifted_index():
    # s_i * pi**k * w0 = pi**k * s_j * w0 with j = i + k mod e, so s_i
    # lengthens pi**k w0 iff w0 has no left descent at j
    assert not ExtendedWeylElement.identity(3).w0.has_left_descent(1)
    assert generator(3, 1).w0.has_left_descent(1)
    rng = random.Random(51)
    for _ in range(1000):
        e = rng.choice([2, 3, 4])
        a = random_element(e, rng)
        i = rng.randrange(e)
        direct = multiply(generator(e, i), a).length() == a.length() + 1
        assert (not a.w0.has_left_descent((i + a.k) % e)) == direct


def test_coxeter_relations():
    # s_i**2 = 1 everywhere; for e >= 3 adjacent pairs around the cycle
    # braid with order 3 and non-adjacent pairs commute
    for e in (2, 3, 4, 5):
        for i in range(e):
            assert multiply(generator(e, i), generator(e, i)) == ExtendedWeylElement.identity(e)
    for e in (3, 4, 5):
        for i in range(e):
            for j in range(i + 1, e):
                adjacent = (j - i) % e in (1, e - 1)
                prod = multiply(generator(e, i), generator(e, j))
                order = 3 if adjacent else 2
                acc = ExtendedWeylElement.identity(e)
                for _ in range(order):
                    acc = multiply(acc, prod)
                assert acc == ExtendedWeylElement.identity(e), (e, i, j)


def test_enumerate_by_length_examples():
    assert [len(x) for x in enumerate_by_length(2, 3)] == [1, 2, 2, 2]
    assert [len(x) for x in enumerate_by_length(3, 3)] == [1, 3, 6, 9]
    for e in (2, 3, 4, 5):
        layers = enumerate_by_length(e, 1)
        assert layers[0] == [AffinePermutation.identity(e)]
        assert len(layers[1]) == e


def test_enumerate_layers_visit_order_independent():
    # a local BFS applying generators in the reverse order must produce
    # the same layer sets
    for e in (2, 3, 4):
        layers = enumerate_by_length(e, 6)
        gens = [generator(e, i).w0 for i in reversed(range(e))]
        seen = {AffinePermutation.identity(e)}
        frontier = set(seen)
        for depth in range(1, 7):
            frontier = {s.compose(w) for w in frontier for s in gens} - seen
            seen |= frontier
            assert frontier == set(layers[depth])


def reference_enumerate(e, max_length):
    """The object-based BFS: compose on AffinePermutation, objects in seen."""
    gens = [generator(e, i).w0 for i in range(e)]
    identity = AffinePermutation.identity(e)
    seen = {identity}
    layers = [[identity]]
    for _ in range(max_length):
        frontier = set()
        for w in layers[-1]:
            for s in gens:
                u = s.compose(w)
                if u not in seen:
                    frontier.add(u)
        seen |= frontier
        layers.append(sorted(frontier, key=lambda p: p.window))
    return layers


@pytest.mark.parametrize("e, lengths", [
    (2, (0, 1, 7, 20)), (3, (0, 2, 9)), (4, (1, 6)), (5, (3, 5)), (6, (2, 4)), (7, (1, 4)),
    (8, (1, 4)),
])
def test_enumerate_matches_object_bfs(e, lengths):
    for L in lengths:
        layers = enumerate_by_length(e, L)
        reference = reference_enumerate(e, L)
        assert [[w.window for w in layer] for layer in layers] == [
            [w.window for w in layer] for layer in reference
        ]
        for layer in layers:
            for w in layer:
                assert w.e == e
                AffinePermutation(e, w.window)  # the validating constructor


def test_enumerate_never_calls_length(monkeypatch):
    # the BFS distance is the oracle that length() is checked against
    def forbidden(self):
        raise AssertionError("enumerate_by_length called length()")

    monkeypatch.setattr(AffinePermutation, "length", forbidden)
    for e, L in ((2, 9), (3, 6), (5, 4), (8, 3)):
        enumerate_by_length(e, L)


def test_enumerate_cap(monkeypatch):
    monkeypatch.setattr(heckezonal.weyl, "ENUM_CAP", 50)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_by_length(4, 10)

    # the cap is tested as each element joins the frontier: `total > cap`
    # tries the subclass's reflected __lt__ first, which records the total
    class Cap(int):
        largest = 0

        def __lt__(self, total):
            Cap.largest = max(Cap.largest, total)
            return int(self) < total

    monkeypatch.setattr(heckezonal.weyl, "ENUM_CAP", Cap(7))
    with pytest.raises(EnumerationCapExceeded):
        enumerate_by_length(5, 6)
    # testing it once per layer would first see 1 + 5 + 15 = 21
    assert Cap.largest == 8


def test_project_to_finite():
    assert project_to_finite(generator(3, 1)) == (2, 1, 3)
    assert project_to_finite(generator(4, 0)) == (4, 2, 3, 1)
    # s0 s1 s0 = s1 s0 s1 projects consistently
    a = multiply(generator(3, 0), multiply(generator(3, 1), generator(3, 0)))
    b = multiply(generator(3, 1), multiply(generator(3, 0), generator(3, 1)))
    assert a == b
    assert project_to_finite(a) == perm_compose(
        project_to_finite(generator(3, 0)),
        perm_compose(project_to_finite(generator(3, 1)), project_to_finite(generator(3, 0))),
    )
    assert project_to_finite(ExtendedWeylElement(4, AffinePermutation.identity(4))) == (1, 2, 3, 4)
    rng = random.Random(61)
    for _ in range(300):
        e = rng.choice([2, 3, 4])
        a, b = random_element(e, rng), random_element(e, rng)
        assert project_to_finite(multiply(a, b)) == perm_compose(
            project_to_finite(a), project_to_finite(b)
        )


@pytest.mark.parametrize("window, message", [
    ((1, 2), "^window must have exactly e entries$"),
    ((1, 2, 3, 4), "^window must have exactly e entries$"),
    # residues 1, 1, 1 mod 3, with the shift sum of W0
    ((4, 1, 1), r"^window residues mod e must permute 1\.\.e$"),
    # residues 1, 2, 3, but the sum 4 + 2 + 3 = 9 is not 1 + 2 + 3
    ((4, 2, 3), r"^window shift sum must be zero \(not in W0\)$"),
])
def test_window_checks_name_each_fault(window, message):
    with pytest.raises(ValueError, match=message):
        AffinePermutation(3, window)
    # each faulty window breaks one rule; a window of W0 passes
    assert AffinePermutation(3, (3, 1, 2)).window == (3, 1, 2)
