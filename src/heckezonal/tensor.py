"""Place-permutation operators on an e-fold tensor power, and the operator
model of the matrix-coefficient values.

Operators are stored symbolically as (permutation, scalar) pairs: the
permutation is in destination one-line form (the content of slot i moves
to slot perm[i-1]), so composition of operators is ordinary composition
of permutations and the scalar multiplies along.  Dense coordinate
vectors exist only for spot-check applications and are capped in size.

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

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .scalars import ExactScalar, scalar_inverse, scalar_power
from .spherical import SphericalParams
from .weyl import ExtendedWeylElement, conjugate_by_pi, perm_compose

__all__ = [
    "PlaceOperator",
    "TensorVector",
    "t_operator",
    "gamma_operator",
    "word_perm",
    "ev",
    "apply_operator",
    "pair",
]

DEFAULT_DIMENSION_CAP = 4096


def _invert_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, image in enumerate(perm, start=1):
        inv[image - 1] = i
    return tuple(inv)


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

    def inverse(self) -> "PlaceOperator":
        return PlaceOperator._raw(self.e, _invert_perm(self.perm), scalar_inverse(self.scale))

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

    def __mul__(self, other):
        if isinstance(other, PlaceOperator):
            return self.compose(other)
        return NotImplemented

    def to_json(self) -> dict:
        from .scalars import scalar_to_json

        return {"perm": list(self.perm), "scale": scalar_to_json(self.scale)}


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


@dataclass(frozen=True)
class TensorVector:
    """Dense coordinate vector in the e-fold tensor power of a d-space."""

    e: int
    d: int
    data: tuple

    def __post_init__(self):
        if len(self.data) != self.d**self.e:
            raise ValueError("data length must be d**e")

    @classmethod
    def pure(cls, factors, cap: int = DEFAULT_DIMENSION_CAP) -> "TensorVector":
        """The pure tensor v_1 (x) ... (x) v_e from per-slot coordinate lists."""
        e = len(factors)
        if e < 2:
            raise ValueError("need at least two tensor slots")
        d = len(factors[0])
        if any(len(v) != d for v in factors):
            raise ValueError("all slot vectors must share one dimension")
        if d**e > cap:
            raise ValueError(f"dimension cap exceeded: d**e = {d**e} > {cap}")
        data = []
        for index in itertools.product(range(d), repeat=e):
            value = Fraction(1)
            for slot, a in enumerate(index):
                value = value * factors[slot][a]
            data.append(value)
        return cls(e, d, tuple(data))

    def _flat(self, index: tuple[int, ...]) -> int:
        flat = 0
        for a in index:
            flat = flat * self.d + a
        return flat


def apply_operator(op: PlaceOperator, v: TensorVector) -> TensorVector:
    """Apply a place operator to a dense vector.

    With destination permutation p, the output coordinate at multi-index
    c is scale * v[b] where b_i = c_{p(i)}.
    """
    if op.e != v.e:
        raise ValueError("rank mismatch")
    out = []
    for c in itertools.product(range(v.d), repeat=v.e):
        b = tuple(c[op.perm[i] - 1] for i in range(v.e))
        out.append(op.scale * v.data[v._flat(b)])
    return TensorVector(v.e, v.d, tuple(out))


def pair(v: TensorVector, vt: TensorVector) -> ExactScalar:
    """Full coordinate contraction of a vector against a dual vector."""
    if v.e != vt.e or v.d != vt.d:
        raise ValueError("dimension mismatch")
    total = Fraction(0)
    for a, b in zip(v.data, vt.data):
        total = total + a * b
    return total
