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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import ExactScalar, scalar_power
from .spherical import SphericalParams
from .weyl import ExtendedWeylElement, conjugate_by_pi, perm_compose

__all__ = [
    "PlaceOperator",
    "t_operator",
    "gamma_operator",
    "word_perm",
    "ev",
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
    """
    if w.e != p.e:
        raise ValueError("rank mismatch")
    word = conjugate_by_pi(w.w0, w.k).reduced_word()
    r = w.k % p.e
    gammas = p._ev_gamma_table
    gamma_k = gammas.get(r)
    if gamma_k is None:
        gamma_k = gammas[r] = gamma_operator(p.e).power(r)
    scales = p._ev_scale_table
    scale = scales.get(len(word))
    if scale is None:
        scale = scales[len(word)] = p.q_power(-(p.f * (p.f - 1) // 2) * len(word))
    return PlaceOperator._raw(p.e, perm_compose(word_perm(word, p.e), gamma_k.perm), scale)

