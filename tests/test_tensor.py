"""Place operators, the evaluation map, and the operator-model oracle."""

import doctest
import json
import random
from fractions import Fraction

import pytest
from oracles import (
    TensorVector, apply_operator, ev_reference, pair, project_to_finite,
    mutate, reduced_word_independence_reference,
)

from heckezonal import cli, tensor
from heckezonal.scalars import Monomial, scalar_inverse, scalar_power
from heckezonal.spherical import SphericalParams, matrix_coefficient_scalar
from heckezonal.tensor import (
    PlaceOperator,
    ev,
    gamma_operator,
    t_operator,
    word_perm,
)
from heckezonal.weyl import (
    AffinePermutation,
    ExtendedWeylElement,
    _left_step,
    _simple,
    all_reduced_words,
    conjugate_by_pi,
    enumerate_by_length,
    generator,
    multiply,
)


def inverse_operator(op):
    """op**-1 from the inverted permutation and the inverse scale."""
    perm = [0] * op.e
    for i, image in enumerate(op.perm, start=1):
        perm[image - 1] = i
    return PlaceOperator(op.e, tuple(perm), scalar_inverse(op.scale))


def word_operator(word, e):
    op = PlaceOperator.identity(e)
    for idx in word:
        op = op.compose(t_operator(idx, e))
    return op


def assert_matches_validated(op):
    """A trusted operator: equal and hash-equal to its perm and scale
    through the validating constructor, hashed and printed by its fields,
    unequal to a value of another type, with no __dict__ and frozen."""
    checked = PlaceOperator(op.e, op.perm, op.scale)
    assert op == checked and hash(op) == hash(checked) == hash((op.e, op.perm, op.scale))
    assert repr(op) == f"PlaceOperator(e={op.e!r}, perm={op.perm!r}, scale={op.scale!r})"
    assert op != (op.e, op.perm, op.scale) and op != AffinePermutation.identity(op.e)
    assert not hasattr(op, "__dict__")
    with pytest.raises(AttributeError):
        op.scale = checked.scale
    with pytest.raises(AttributeError):
        del op.scale


def test_doctests():
    failures, attempted = doctest.testmod(tensor)
    assert failures == 0 and attempted > 0


def test_trusted_operators_match_validated():
    # ev and compose results over Fraction and Laurent scales; power
    # results are checked in test_power_matches_compose_fold
    for p in (SphericalParams.numeric(4, 2, 3), SphericalParams.generic(4)):
        for layer in enumerate_by_length(4, 3):
            for w0 in layer:
                for k in range(-4, 5):
                    op = ev(ExtendedWeylElement(k, w0), p)
                    assert_matches_validated(op)
                    assert_matches_validated(op.compose(t_operator(k % 4, 4)))


def test_operators_print_their_fields():
    assert repr(t_operator(1, 3)) == "PlaceOperator(e=3, perm=(2, 1, 3), scale=1)"
    with pytest.raises(AttributeError, match="^PlaceOperator is immutable$"):
        t_operator(1, 3).perm = (1, 2, 3)


def test_t_operator_slots():
    v = TensorVector.pure([[1, 0], [0, 1], [2, 3]])
    # t_1 swaps the first two slots of a pure tensor
    swapped = apply_operator(t_operator(1, 3), v)
    assert swapped == TensorVector.pure([[0, 1], [1, 0], [2, 3]])
    # t_0 swaps the outer slots
    outer = apply_operator(t_operator(0, 3), v)
    assert outer == TensorVector.pure([[2, 3], [0, 1], [1, 0]])
    for e in (2, 3, 4):
        for i in range(e):
            t = t_operator(i, e)
            assert t.compose(t) == PlaceOperator.identity(e)
    with pytest.raises(ValueError):
        t_operator(3, 3)


def test_gamma_rotation():
    v = TensorVector.pure([[1, 0], [0, 1], [2, 3]])
    rotated = apply_operator(gamma_operator(3), v)
    # contents move one step right: (a, b, c) -> (c, a, b)
    assert rotated == TensorVector.pure([[2, 3], [1, 0], [0, 1]])
    for e in (2, 3, 4, 5):
        assert gamma_operator(e).power(e) == PlaceOperator.identity(e)


def test_gamma_conjugation_shifts_t_indices():
    # direct composition shows gamma**-1 t_1 gamma = t_0, equivalently
    # conjugation by gamma raises t-indices by one (mod e), mirroring how
    # the rotation group element lowers s-indices
    for e in (3, 4, 5):
        g = gamma_operator(e)
        for i in range(e):
            conj = g.compose(t_operator(i, e)).compose(inverse_operator(g))
            assert conj == t_operator((i + 1) % e, e)
    g = gamma_operator(3)
    assert inverse_operator(g).compose(t_operator(1, 3)).compose(g) == t_operator(0, 3)


def test_composition_matches_application():
    rng = random.Random(3)
    for _ in range(50):
        e = rng.choice([2, 3])
        d = 2
        ops = [t_operator(rng.randrange(e), e) for _ in range(2)] + [gamma_operator(e)]
        rng.shuffle(ops)
        op1, op2 = ops[0], ops[1]
        data = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(d**e))
        v = TensorVector(e, d, data)
        assert apply_operator(op1.compose(op2), v) == apply_operator(
            op1, apply_operator(op2, v)
        )


def test_ev_examples():
    p = SphericalParams.numeric(3, 1, 2)
    assert ev(ExtendedWeylElement.identity(3), p) == PlaceOperator.identity(3)
    # f = 1: scale 1, bare transposition
    op = ev(generator(3, 1), p)
    assert op.perm == (2, 1, 3) and op.scale == 1
    # f = 2: scale q**(-1) per letter
    p2 = SphericalParams.numeric(3, 2, 2)
    op2 = ev(generator(3, 1), p2)
    assert op2.scale == Fraction(1, 4)


def test_ev_reduced_word_independence():
    # exhaustive over all reduced words, e in {3, 4}, length <= 6
    for e in (3, 4):
        p = SphericalParams.numeric(e, 2, 2)
        for layer in enumerate_by_length(e, 6):
            for w0 in layer:
                words = all_reduced_words(w0)
                ops = {word_operator(word, e) for word in words}
                assert len(ops) == 1, (e, w0.window, len(words))


def test_ev_braid_pair_agree():
    # two distinct reduced words of s0 s1 s0 = s1 s0 s1
    e = 3
    p = SphericalParams.numeric(e, 2, 3)
    a = multiply(generator(e, 0), multiply(generator(e, 1), generator(e, 0)))
    b = multiply(generator(e, 1), multiply(generator(e, 0), generator(e, 1)))
    assert a == b
    assert word_operator([0, 1, 0], e) == word_operator([1, 0, 1], e)
    assert ev(a, p) == ev(b, p)


def fold_ev(w, p):
    """ev as a fold of t_operator compositions, one PlaceOperator per letter."""
    word = conjugate_by_pi(w.w0, w.k).reduced_word()
    op = word_operator(word, p.e).compose(gamma_operator(p.e).power(w.k))
    exponent = -(p.f * (p.f - 1) // 2) * len(word)
    return PlaceOperator(p.e, op.perm, p.q_power(exponent) * op.scale)


def test_ev_matches_compose_fold():
    rng = random.Random(91)
    for e in range(2, 9):
        p = SphericalParams.numeric(e, rng.choice([1, 2, 3]), rng.choice([2, 3, 5]))
        for _ in range(30):
            w = ExtendedWeylElement.identity(e)
            for _ in range(rng.randrange(0, 11)):
                w = multiply(generator(e, rng.randrange(e)), w)
            w = ExtendedWeylElement(rng.randrange(-e, e + 1), w.w0)
            assert ev(w, p) == fold_ev(w, p), (e, w)


def test_ev_matches_compose_fold_over_k_range():
    # k over three full rotations each way: Gamma**k is read by k mod e
    rng = random.Random(97)
    for e in range(2, 8):
        p = SphericalParams.numeric(e, rng.choice([2, 3]), rng.choice([2, 3, 5]))
        for _ in range(8):
            w0 = ExtendedWeylElement.identity(e)
            for _ in range(rng.randrange(0, 8)):
                w0 = multiply(generator(e, rng.randrange(e)), w0)
            for k in range(-3 * e, 3 * e + 1):
                w = ExtendedWeylElement(k, w0.w0)
                assert ev(w, p) == fold_ev(w, p), (e, w)


def test_ev_tables_once_per_params(monkeypatch):
    calls = []
    real_gamma = tensor.gamma_operator
    monkeypatch.setattr(tensor, "gamma_operator", lambda e: calls.append(e) or real_gamma(e))
    e = 4
    p = SphericalParams.numeric(e, 2, 3)
    w0 = multiply(generator(e, 0), multiply(generator(e, 2), generator(e, 1))).w0
    for k in range(-3 * e, 3 * e + 1):
        ev(ExtendedWeylElement(k, w0), p)
    # one Gamma power per nonzero residue k mod e, not one per k
    assert calls == [e] * (e - 1)
    words, gammas, _ = p._ev_tables
    assert sorted(gammas) == list(range(1, e))
    # each entry reads the slots of Gamma**r: applied to the identity, it is that perm
    identity = PlaceOperator.identity(e).perm
    assert all(gammas[r](identity) == real_gamma(e).power(r).perm for r in gammas)
    # a word entry is ev's k = 0 operator, returned itself at k = e
    first = ev(ExtendedWeylElement(0, w0), p)
    assert words[w0.window] is first and ev(ExtendedWeylElement(e, w0), p) is first
    assert first == PlaceOperator(e, word_perm(w0.reduced_word(), e), Fraction(1, 3**6))
    # parameters differing only in f keep their own tables and scales
    p1 = SphericalParams.numeric(e, 1, 3)
    assert ev(ExtendedWeylElement(0, w0), p1).scale == 1
    assert ev(ExtendedWeylElement(0, w0), p).scale == Fraction(1, 3**6)
    assert p1._ev_tables[2] == {3: 1}  # the scales by word length
    assert p._ev_tables[2] == {3: Fraction(1, 3**6)}


def test_ev_reads_its_gamma_power(monkeypatch):
    # ev's Gamma table is read from PlaceOperator.power, not derived beside
    # it: a power that advances each cycle n + 1 steps changes ev's perm
    # at every k != 0 mod e and leaves k = 0 mod e, the table's word, alone
    e = 4
    cases = [ExtendedWeylElement(k, w0) for layer in enumerate_by_length(e, 3)
             for w0 in layer for k in range(-e, 2 * e)]
    honest = SphericalParams.numeric(e, 2, 3)
    want = [fold_ev(w, honest) for w in cases]
    advanced = [("cycle[(j + n) % m]", "cycle[(j + n + 1) % m]")]
    mutate(monkeypatch, PlaceOperator.power, advanced, PlaceOperator)
    p = SphericalParams.numeric(e, 2, 3)
    for w, op in zip(cases, want):
        got = ev(w, p)
        assert got.scale == op.scale and (got.perm == op.perm) is (w.k % e == 0), w


def test_ev_table_hit_builds_no_group_element(constructions, monkeypatch):
    # the first sweep wraps one element per distinct conjugate window, for
    # its reduced word; a second sweep over the same (w0, k) finds every
    # window in the table and builds no element and no word
    words_taken = []
    honest = AffinePermutation.reduced_word
    monkeypatch.setattr(AffinePermutation, "reduced_word", lambda self: words_taken.append(self) or honest(self))
    e = 4
    p = SphericalParams.numeric(e, 2, 3)
    cases = [ExtendedWeylElement(k, w0) for layer in enumerate_by_length(e, 4)
             for w0 in layer for k in range(-e, 2 * e)]
    constructions.clear()
    first = [ev(w, p) for w in cases]
    windows = len(p._ev_tables[0])
    assert len(constructions) == len(words_taken) == windows == 69
    constructions.clear()
    words_taken.clear()
    second = [ev(w, p) for w in cases]
    assert constructions == [] and words_taken == []
    assert second == first and len(p._ev_tables[0]) == windows


def test_ev_rank_mismatch_raises():
    p = SphericalParams.numeric(4, 2, 3)
    with pytest.raises(ValueError, match="^rank mismatch$"):
        ev(ExtendedWeylElement.identity(3), p)
    assert ev(ExtendedWeylElement.identity(4), p) == PlaceOperator.identity(4)


def test_compose_rank_mismatch_raises():
    with pytest.raises(ValueError, match="^rank mismatch$"):
        t_operator(1, 3).compose(t_operator(1, 4))
    with pytest.raises(ValueError, match="^rank mismatch$"):
        t_operator(1, 4).compose(t_operator(1, 3))


def test_ev_matches_reference_over_layers():
    # one params object per e, so the word table fills and is then read:
    # every k in -e..2e-1 conjugates w0 into a window the table may hold
    cases = 0
    for e in range(2, 7):
        p = SphericalParams.numeric(e, 2, 3)
        layers = enumerate_by_length(e, 5 if e < 6 else 4)
        for layer in layers:
            for w0 in layer:
                for k in range(-e, 2 * e):
                    w = ExtendedWeylElement(k, w0)
                    got, want = ev(w, p), ev_reference(w, p)
                    assert (got.perm, got.scale) == (want.perm, want.scale), (e, w)
                    cases += 1
        # conjugation by pi permutes each layer: one word per window met
        words = p._ev_tables[0]
        assert len(words) == sum(len(layer) for layer in layers)
    assert cases == 9477


def test_coefficient_fails_on_wrong_conjugate(monkeypatch):
    # a conjugate window off by s_1 for k = 1 mod e: ev must read the
    # conjugate, not a word derived from w0 alone, so the k = 1
    # closed-form checks and the sampled k-invariance both fail
    assert tensor.verify_coefficient(4, 2, 3, 4, 1, 25)["ok"] is True
    honest = tensor._conjugate_window

    def patched(win, k, e):
        conj = honest(win, k, e)
        return _left_step(conj, 1, e)[0] if k % e == 1 else conj

    monkeypatch.setattr(tensor, "_conjugate_window", patched)
    report = tensor.verify_coefficient(4, 2, 3, 4, 1, 25)
    assert (report["checked"], report["mismatches"]) == (276, 69)
    assert report["sampled_k_invariance_ok"] is False
    assert report["ok"] is False


def test_coefficient_counts_every_k_of_a_layer_with_a_wrong_scale(monkeypatch):
    # q_power one power of q too high at the exponent of word length 2
    # (f = 2: q**-2), with the closed form kept from before the fault:
    # ev's one scale object for length 2 is wrong, and each of the e
    # values of k at every element of layer 2 counts once, the k != 0
    # ones too, though they share the k = 0 scale object
    e = 4
    layers = enumerate_by_length(e, 4)
    p = SphericalParams.numeric(e, 2, 3)
    closed = [matrix_coefficient_scalar(layer[0], p) for layer in layers]
    monkeypatch.setattr(tensor, "matrix_coefficient_scalar", lambda w0, p: closed[w0.length()])
    honest = SphericalParams.q_power
    monkeypatch.setattr(SphericalParams, "q_power", lambda self, m: honest(self, m + (m == -2)))
    report = tensor.verify_coefficient(e, 2, 3, 4, 1, 25)
    assert (report["checked"], report["mismatches"]) == (276, e * len(layers[2])) == (276, 40)
    assert report["reduced_word_independence"]["ok"] and report["sampled_k_invariance_ok"]
    assert report["ok"] is False


@pytest.mark.parametrize("f", [1, 2])
def test_coefficient_fails_on_a_scale_one_q_exponent_off(monkeypatch, capsys, f):
    # ev's scale at layer 2 alone is one power of q too high: the monomial
    # comparison op.scale != expected fails for every (w0, k) of that layer
    # and nowhere else, while the word check and the samples, which do not
    # read the scale against the closed form, still pass
    argv = ["coefficient", "--e", "3", "--f", str(f), "--q0", "3", "--L", "4", "--samples", "5"]
    assert cli.run(argv) == 0
    capsys.readouterr()
    mutate(monkeypatch, tensor.ev, [
        ("p.q_power(-(p.f * (p.f - 1) // 2) * ell)", "p.q_power(-(p.f * (p.f - 1) // 2) * ell + (ell == 2))"),
    ], tensor)
    assert cli.run(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["mismatches"] == 3 * len(enumerate_by_length(3, 2)[2]) == 18
    assert report["reduced_word_independence"]["ok"] and report["sampled_k_invariance_ok"]


def test_scales_are_q0_monomials_and_the_unit_is_1():
    # ev's scale q**(-f(f-1)/2 * l) is the monomial q0**(-f(f-1) * l); a bare
    # place permutation has the int scale 1, so composing with t_j hands
    # the other scale back unchanged
    p = SphericalParams.numeric(3, 3, 2)
    op = ev(ExtendedWeylElement(1, enumerate_by_length(3, 2)[2][0]), p)
    assert type(op.scale) is Monomial and (op.scale.base, op.scale.sign, op.scale.exp) == (2, 1, -12)
    t = t_operator(1, 3)
    assert type(t.scale) is int and t.scale == 1 and PlaceOperator.identity(3).scale == 1
    assert op.compose(t).scale is op.scale and t.compose(op).scale is op.scale
    twice = op.compose(op).scale
    assert type(twice) is Monomial and (twice.sign, twice.exp) == (1, -24)


@pytest.mark.parametrize("e", range(2, 8))
def test_word_perm_matches_compose_fold(e):
    # the slot-swap perms of all reduced words of an element form the
    # same set as the t_operator/compose products along those words
    for layer in enumerate_by_length(e, 5):
        for w0 in layer:
            words = all_reduced_words(w0)
            swapped = {word_perm(word, e) for word in words}
            folded = {word_operator(word, e).perm for word in words}
            assert swapped == folded and len(swapped) == 1, w0.window


def _word_check(capsys):
    code = cli.run(["coefficient", "--e", "3", "--f", "2"])
    return code, json.loads(capsys.readouterr().out)["reduced_word_independence"]


def test_coefficient_word_check_fails_on_foreign_word(monkeypatch, capsys):
    # the anchor, the first element of layer 6, gets the extra word of
    # anchor * s_j for an ascent j: its slot-swap perm is the layered perm
    # times a transposition, so the anchor's word set has two perms
    assert _word_check(capsys) == (0, {"elements": 64, "ok": True})
    anchor = enumerate_by_length(3, 6)[6][0]
    ascent = next(j for j in range(3) if anchor.compose(_simple(3, j)).length() == 7)
    honest = tensor.all_reduced_words

    def patched(w0):
        words = honest(w0)
        return words + [words[0] + [ascent]] if w0 == anchor else words

    monkeypatch.setattr(tensor, "all_reduced_words", patched)
    witness = list(anchor.window)
    assert _word_check(capsys) == (1, {"elements": 64, "ok": False, "witness": witness})


def test_coefficient_word_check_fails_below_the_top_layer(monkeypatch, capsys):
    # word_perm wrong on [0, 1, 0] alone: the layered check forms that
    # word only at s_0 s_1 s_0 = s_1 s_0 s_1 in layer 3, and every longer
    # word, the anchor's included, still gets the honest perm
    honest = tensor.word_perm

    def patched(word, e):
        return honest(list(word) + [1], e) if list(word) == [0, 1, 0] else honest(word, e)

    monkeypatch.setattr(tensor, "word_perm", patched)
    s0, s1 = generator(3, 0), generator(3, 1)
    witness = list(multiply(s0, multiply(s1, s0)).w0.window)
    assert _word_check(capsys) == (1, {"elements": 64, "ok": False, "witness": witness})


def test_coefficient_word_check_reads_evs_perm(monkeypatch, capsys):
    # ev's perm at k = 0 of one layer-2 element with two slots swapped and
    # its scale kept: the closed-form checks still pass, but the element's
    # descents compose to the honest perm, so the word check names it
    target = enumerate_by_length(3, 2)[2][-1]
    honest = tensor.ev

    def patched(w, p):
        op = honest(w, p)
        if w.k == 0 and w.w0 == target:
            perm = list(op.perm)
            perm[0], perm[1] = perm[1], perm[0]
            return PlaceOperator(op.e, tuple(perm), op.scale)
        return op

    monkeypatch.setattr(tensor, "ev", patched)
    witness = list(target.window)
    assert _word_check(capsys) == (1, {"elements": 64, "ok": False, "witness": witness})


def _broken_t0(monkeypatch):
    honest = tensor.t_operator
    monkeypatch.setattr(tensor, "t_operator", lambda i, e: honest(1 if i == 0 else i, e))


def _broken_letter_0_swap(monkeypatch):
    # letter 0 swaps slots (1, 2), as letter 1 does, instead of (1, e)
    honest = tensor.word_perm
    monkeypatch.setattr(tensor, "word_perm", lambda word, e: honest([i or 1 for i in word], e))


def test_coefficient_word_check_fails_on_wrong_t0(monkeypatch, capsys):
    # t_0 swapping slots (1, 2) instead of (1, e) breaks the operator
    # product along words that use it, not the slot-swap perms: s_0 is
    # the first element of layer 1
    _broken_t0(monkeypatch)
    witness = list(_simple(3, 0).window)
    assert _word_check(capsys) == (1, {"elements": 64, "ok": False, "witness": witness})


def _broken_t0_and_swap(monkeypatch):
    # both models take t_0 = t_1, so they agree on every word and only the
    # braid relations fail: t_0 no longer commutes with t_2 once e >= 4
    _broken_t0(monkeypatch)
    _broken_letter_0_swap(monkeypatch)


@pytest.mark.parametrize("fault, shows", [
    (None, None), (_broken_t0, (3, 1)), (_broken_letter_0_swap, (3, 1)), (_broken_t0_and_swap, (4, 2)),
])
@pytest.mark.parametrize("e", range(2, 8))
def test_word_check_matches_reference(e, fault, shows, monkeypatch):
    # the layered check and the per-element enumeration of every reduced
    # word give one verdict, element count and witness; a fault shows from
    # the rank and length in `shows` on (at e = 2 the letters 0 and 1 swap
    # the same two slots)
    if fault:
        fault(monkeypatch)
    for L in range(7):
        got = tensor.verify_coefficient(e, 1, 2, L, 1, 0)["reduced_word_independence"]
        assert got == reduced_word_independence_reference(e, L), (e, L)
        assert got["ok"] is (shows is None or e < shows[0] or L < shows[1]), (e, L)


def compose_fold_power(op, n):
    """op**n as |n| repeated compositions of op, or of its inverse for n < 0."""
    base = op if n >= 0 else inverse_operator(op)
    result = PlaceOperator.identity(op.e)
    for _ in range(abs(n)):
        result = result.compose(base)
    return result


def test_power_matches_compose_fold():
    rng = random.Random(151)
    for e in range(2, 9):
        ops = [gamma_operator(e), t_operator(0, e)]
        for _ in range(4):
            perm = list(range(1, e + 1))
            rng.shuffle(perm)
            ops.append(PlaceOperator(e, tuple(perm), Fraction(rng.choice([-3, 2, 5]), rng.choice([1, 4]))))
        for op in ops:
            for n in range(-2 * e, 2 * e + 1):
                got = op.power(n)
                assert got == compose_fold_power(op, n), (op, n)
                assert_matches_validated(got)


def test_coefficient_fails_on_non_reduced_word(monkeypatch):
    # with f = 2 every letter scales by q**-1, so two extra letters that
    # cancel in the group still change the operator scale
    argv = ["coefficient", "--e", "3", "--f", "2", "--L", "3", "--samples", "2"]
    assert cli.run(argv) == 0
    honest = AffinePermutation.reduced_word
    monkeypatch.setattr(AffinePermutation, "reduced_word", lambda self: honest(self) + [0, 0])
    assert cli.run(argv) == 1


def test_ev_perm_extends_projection_on_w0():
    # on the Coxeter part the slot permutation of the operator equals the
    # residue projection of the group element; the rotation parts differ
    # by inversion (gamma rotates against the projection of pi)
    p = SphericalParams.numeric(3, 1, 2)
    for layer in enumerate_by_length(3, 5):
        for w0 in layer:
            w = ExtendedWeylElement(0, w0)
            assert ev(w, p).perm == project_to_finite(w)
    from heckezonal.weyl import pi_element

    gamma_perm = gamma_operator(3).perm
    assert gamma_perm == project_to_finite(pi_element(3).inverse())


def test_pure_pairing():
    v = TensorVector.pure([[Fraction(1), Fraction(0)]] * 3)
    vt = TensorVector.pure([[Fraction(1), Fraction(1)]] * 3)
    assert pair(v, vt) == 1
    # pure tensors with equal factors are invariant under place permutations
    assert apply_operator(t_operator(1, 3), v) == v
    assert apply_operator(gamma_operator(3), v) == v


def test_cross_model_identity():
    # (-1/q1)**l * scale(ev) equals the closed coefficient form, and the
    # pairing only sees the scale on rotation-invariant pure tensors
    v = TensorVector.pure([[Fraction(1), Fraction(0)]] * 3)
    vt = TensorVector.pure([[Fraction(1), Fraction(1)]] * 3)
    for f in (1, 2):
        for q0 in (2, 3):
            p = SphericalParams.numeric(3, f, q0)
            neg_inv_q1 = -scalar_inverse(p.q1)
            for ell, layer in enumerate(enumerate_by_length(3, 4)):
                for w0 in layer:
                    closed = matrix_coefficient_scalar(w0, p)
                    for k in (0, 1, 2):
                        op = ev(ExtendedWeylElement(k, w0), p)
                        assert scalar_power(neg_inv_q1, ell) * op.scale == closed
                        assert pair(apply_operator(op, v), vt) == op.scale * pair(v, vt)
