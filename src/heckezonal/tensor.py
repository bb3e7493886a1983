"""Place-permutation operators on an e-fold tensor power, and the operator
model of the matrix-coefficient values.

Operators are stored symbolically as (permutation, scalar) pairs: the
permutation is in destination one-line form (the content of slot i moves
to slot perm[i-1]), so composition of operators is ordinary composition
of permutations and the scalar multiplies along.

The evaluation map sends a group element w0 * pi**k to

    scale = (q**(-f(f-1)/2))**l(w0)
    perm  = t_{i_1} o ... o t_{i_l} o Gamma**k

for any reduced word [i_1, ..., i_l] of w0, where t_i swaps slots
(i, i+1), t_0 swaps slots (1, e) and Gamma rotates contents one step to
the right.  The result is reduced-word independent because the t_i
satisfy the same braid relations as the group generators.  Note the
rotation runs against the group projection: conjugation by Gamma raises
t-indices (Gamma o t_i o Gamma**-1 = t_{i+1 mod e}) while conjugation by
pi lowers s-indices, so t_0 = Gamma**-1 o t_1 o Gamma.

``word_perm`` builds the t-factor permutation by swapping slots of one
list per letter.  Gamma**e is the identity with scale 1, so Gamma**k
depends only on k mod e, and the q-power scale depends on the word only
through its length: ``ev`` reads both from tables on the SphericalParams
instance, filled on first use, which live and die with the parameters.
A third table there holds, by the window of each conjugate w_left that
``ev`` has met, its reduced word's permutation and length: every
conjugate of a BFS layer element is another element of that layer, so a
sweep over k computes one word per distinct window, not one per call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .scalars import ExactScalar, scalar_power
from .spherical import SphericalParams, matrix_coefficient_scalar
from .weyl import (
    ExtendedWeylElement, all_reduced_words, conjugate_by_pi, enumerate_by_length, perm_compose,
    random_element,
)

__all__ = [
    "PlaceOperator",
    "t_operator",
    "gamma_operator",
    "word_perm",
    "ev",
    "verify_coefficient",
]


@dataclass(frozen=True)
class PlaceOperator:
    """A scaled place permutation of e tensor slots."""

    e: int
    perm: tuple[int, ...]
    scale: ExactScalar = Fraction(1)

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, self.e + 1)):
            raise ValueError("perm must be a permutation of 1..e in one-line form")

    @classmethod
    def _raw(cls, e: int, perm: tuple[int, ...], scale: ExactScalar) -> "PlaceOperator":
        """Wrap a perm already known to permute 1..e, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "scale", scale)
        return self

    @classmethod
    def identity(cls, e: int) -> "PlaceOperator":
        return cls(e, tuple(range(1, e + 1)))

    def compose(self, other: "PlaceOperator") -> "PlaceOperator":
        """self o other: other acts first; permutations compose, scales multiply."""
        if self.e != other.e:
            raise ValueError("rank mismatch")
        return PlaceOperator._raw(
            self.e, perm_compose(self.perm, other.perm), self.scale * other.scale
        )

    def power(self, n: int) -> "PlaceOperator":
        """self**n for any integer n: each cycle of perm advances n steps."""
        perm = self.perm
        out = [0] * self.e
        for start in perm:
            if out[start - 1]:
                continue
            cycle = [start]
            while (nxt := perm[cycle[-1] - 1]) != start:
                cycle.append(nxt)
            m = len(cycle)
            for j, x in enumerate(cycle):
                out[x - 1] = cycle[(j + n) % m]
        return PlaceOperator._raw(self.e, tuple(out), scalar_power(self.scale, n))


def t_operator(i: int, e: int) -> PlaceOperator:
    """The slot transposition t_i: (i, i+1) for i >= 1, (1, e) for i = 0."""
    if not 0 <= i <= e - 1:
        raise ValueError(f"operator index {i} out of range 0..{e - 1}")
    perm = list(range(1, e + 1))
    if i >= 1:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    else:
        perm[0], perm[e - 1] = perm[e - 1], perm[0]
    return PlaceOperator(e, tuple(perm))


def gamma_operator(e: int) -> PlaceOperator:
    """The rotation: slot i's content moves to slot i+1, slot e's wraps to 1."""
    if e < 2:
        raise ValueError("rank e must be at least 2")
    return PlaceOperator(e, tuple((i % e) + 1 for i in range(1, e + 1)))


def word_perm(word, e: int) -> tuple[int, ...]:
    """The permutation of t_{i_1} o ... o t_{i_l} for word [i_1, ..., i_l].

    Right-composing with t_i swaps slots (i, i+1), or (1, e) for i = 0.
    """
    perm = list(range(1, e + 1))
    for idx in word:
        a = idx - 1 if idx else e - 1
        perm[a], perm[idx] = perm[idx], perm[a]
    return tuple(perm)


def ev(w: ExtendedWeylElement, p: SphericalParams) -> PlaceOperator:
    """Operator value of the dual spherical element at w = w_left * pi**k.

    The canonical form pi**k * w0 is first rewritten as w_left * pi**k
    with w_left = pi**k w0 pi**-k (same length), whose reduced word
    supplies the t-factors; Gamma**k composes on the right.  Scale and
    all pairings against rotation-invariant vectors are identical for
    either bracketing.  Gamma**(k mod e) and the q-power of each word
    length come from tables on ``p``; Gamma has scale 1, so that q-power
    is the whole scale.

    w_left is computed on every call.  Its reduced word's permutation and
    length are kept on ``p`` by w_left's window, so a word is computed
    once per distinct conjugate, and a wrong conjugate still reaches the
    word and the scale.
    """
    if w.e != p.e:
        raise ValueError("rank mismatch")
    w_left = conjugate_by_pi(w.w0, w.k)
    words = p._ev_word_table
    entry = words.get(w_left.window)
    if entry is None:
        word = w_left.reduced_word()
        entry = words[w_left.window] = (word_perm(word, p.e), len(word))
    perm, ell = entry
    r = w.k % p.e
    gammas = p._ev_gamma_table
    gamma_k = gammas.get(r)
    if gamma_k is None:
        gamma_k = gammas[r] = gamma_operator(p.e).power(r)
    scales = p._ev_scale_table
    scale = scales.get(ell)
    if scale is None:
        scale = scales[ell] = p.q_power(-(p.f * (p.f - 1) // 2) * ell)
    return PlaceOperator._raw(p.e, perm_compose(perm, gamma_k.perm), scale)


def verify_coefficient(e: int, f: int, q0: int, L: int, seed: int, samples: int) -> dict:
    """The operator model against the closed coefficient form, as a report.

    ``ev`` at pi**k w0 must match the closed form for k in 0..e-1 and
    l(w0) <= L, all reduced words of each w0 with l(w0) <= min(L, 6) must
    give one place permutation, and ``samples`` elements drawn by
    ``weyl.random_element`` from random.Random(seed) must keep their
    scale when their pi-power shifts.
    """
    p = SphericalParams.numeric(e, f, q0)
    neg_inv_q1 = p.neg_inv_q1()
    layers = enumerate_by_length(e, L)
    checked = mismatches = 0
    for ell, layer in enumerate(layers):
        # the closed form reads w0 only through l(w0): one value per layer,
        # and each element's inversion count is checked against the layer;
        # (-1/q1)**ell * scale == closed is tested as scale == expected
        closed = matrix_coefficient_scalar(layer[0], p)
        expected = closed / scalar_power(neg_inv_q1, ell)
        for w0 in layer:
            if w0.length() != ell:
                mismatches += 1
            for k in range(e):
                checked += 1
                if ev(ExtendedWeylElement(k, w0), p).scale != expected:
                    mismatches += 1
    # Matsumoto: any two reduced words are linked by braid moves, so all
    # words of w0 give one perm exactly when the t_i satisfy the braid
    # relations.  Each word's perm comes from slot swaps (word_perm, as in
    # ev); the operator product of t_operator factors along the first
    # word joins the same set, a cross-check independent of the swap rule
    ts = [t_operator(i, e) for i in range(e)]
    word_ok = True
    words_checked = 0
    for layer in layers[: min(L, 6) + 1]:
        for w0 in layer:
            words = all_reduced_words(w0)
            op = PlaceOperator.identity(e)
            for idx in words[0]:
                op = op.compose(ts[idx])
            perms = {op.perm}
            perms.update(word_perm(word, e) for word in words)
            words_checked += 1
            if len(perms) != 1:
                word_ok = False
    rng = random.Random(seed)
    sampled_ok = True
    for _ in range(samples):
        w = random_element(e, rng)
        shifted = ExtendedWeylElement(w.k + rng.randrange(-e, e + 1), w.w0)
        if ev(w, p).scale != ev(shifted, p).scale:
            sampled_ok = False
    return {
        "e": e, "f": f, "q0": int(p.q0), "L": L, "seed": seed,
        "checked": checked, "mismatches": mismatches,
        "reduced_word_independence": {"elements": words_checked, "ok": word_ok},
        "sampled_k_invariance_ok": sampled_ok,
        "ok": mismatches == 0 and word_ok and sampled_ok,
    }
