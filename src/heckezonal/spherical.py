"""The spherical eigenvector of the one-dimensional character, and the
explicit matrix-coefficient values it produces.

The infinite formal sum Psi0 assigns the coefficient

    (-1/q1)**l(w0) * chi_pi**(-k)

to the basis element [pi**k w0].  It is the unique (up to scalar)
eigenvector of left convolution: [s_i] * Psi0 = -Psi0 for every generator
and [pi] * Psi0 = chi_pi * Psi0.  The verifiers here check those
identities coefficient by coefficient on a finite truncation; indices
whose convolution preimage leaves the truncation are reported as
unchecked boundary, never as failures.  Every check compares the
indices with |k| <= K - 1, for the module constant K = 2; the pi check's
truncation also holds the shells |k| = K, as boundary.

The coefficient depends on [pi**k w0] only through (l(w0), k), so
``psi0_coefficient`` takes exactly that pair.  One eigen job walks W0
once (``_walk``): the BFS layers, one psi0 value per (layer, k), and the
generator checks' group facts, kept on the SphericalParams instance by
L.  Whichever check comes first builds all of it, so the truncation or
the pi check called alone also builds the generator facts.  Each check
reads the walk and lists a failing witness in (layer, window, k) order.
The facts are each element's inversion count against its layer, and per
generator s_j the case and the layer of s_j w0, still from ``length()``,
the descent test and the BFS, so the BFS distance and ``length()`` stay
independent witnesses of each other.  The layer of s_j w0 is read at its
inverse w0**-1 s_j, a right step from w0's inverse window.

In the trivial-chi_pi regime the normalized matrix coefficient at
w0 * pi**k is the closed form

    (-1/q1)**l(w0) * q**(-f(f-1)/2 * l(w0)),      q = q0**2, q1 = q**f,

independent of k, so ``matrix_coefficient_scalar`` takes w0 alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .hecke import HeckeAlgebra, HeckeElement
from .scalars import (
    ExactScalar, LaurentPoly, Monomial, Value, _as_fraction, format_rational, scalar_inverse, scalar_power,
)
from .weyl import (
    AffinePermutation,
    ExtendedWeylElement,
    _right_steps,
    enumerate_by_length,
    enumeration_cost,
    pi_element,
)

__all__ = [
    "SphericalParams",
    "SphericalTruncation",
    "RequiresTrivialChiPi",
    "psi0_coefficient",
    "EigenReport",
    "verify_eigen_generator",
    "verify_eigen_pi",
    "verify_eigen",
    "eigen_cost",
    "matrix_coefficient_scalar",
]


# The truncation holds pi**k w0 for |k| <= K.  [pi] shifts k by one, so
# the eigen-equations are compared on |k| <= K - 1.
K = 2


class RequiresTrivialChiPi(ValueError):
    """The closed matrix-coefficient form needs chi_pi = 1."""


def exact_q0(q0) -> int:
    """q0 as an int, for every library entry that takes q0: an integer of
    at least 2, where a float raises ``TypeError``."""
    x = _as_fraction(q0)
    if x.denominator != 1 or x < 2:
        raise ValueError("q0 must be an integer of at least 2")
    return x.numerator


class SphericalParams(Value):
    """Parameters (e, f, q0) with q = q0**2 and q1 = q**f = q0**(2f), and
    the value chi_pi of the character at [pi], a nonzero exact rational.

    q0 is an integer prime power in numeric mode, where q1 and each
    q-power are :class:`~heckezonal.scalars.Monomial` powers of q0, so a
    value built from them by products, quotients and powers is a signed
    power of q0 too, computed and compared by its exponent.  Generic mode
    is q0 = None and f = 1: q1 = q is then a formal Laurent variable.

    A :class:`Value` by its four inputs.  The instance dict holds them,
    and ``cached_property`` keeps the derived values and tables there.
    """

    _fields = ("e", "f", "q0", "chi_pi")

    def __init__(self, e: int, f: int, q0: int | None, chi_pi: Fraction = 1):
        if e < 2:
            raise ValueError("rank e must be at least 2")
        if f < 1:
            raise ValueError("f must be a positive integer")
        if q0 is None:
            if f != 1:
                raise ValueError("generic mode has f = 1")
        else:
            q0 = exact_q0(q0)
        if _as_fraction(chi_pi) == 0:
            raise ValueError("chi_pi must be a unit")
        super().__init__(e, f, q0, chi_pi)

    @classmethod
    def numeric(cls, e: int, f: int, q0) -> "SphericalParams":
        return cls(e, f, q0)

    @classmethod
    def generic(cls, e: int, chi_pi=1) -> "SphericalParams":
        return cls(e, 1, None, chi_pi)

    @cached_property
    def q1(self) -> ExactScalar:
        return LaurentPoly.variable() if self.q0 is None else Monomial(self.q0, 1, 2 * self.f)

    def q_power(self, m: int) -> ExactScalar:
        """q**m for integer m, with q = q0**2 (q = q1 in generic mode)."""
        if self.q0 is not None:
            return Monomial(self.q0, 1, 2 * m)
        if m == 0:
            return Fraction(1)
        return scalar_power(self.q1, m)

    @cached_property
    def _neg_inv_q1(self) -> ExactScalar:
        # computed on first use and stored on the instance, so it lives
        # exactly as long as these parameters
        return -scalar_inverse(self.q1)

    def neg_inv_q1(self) -> ExactScalar:
        return self._neg_inv_q1

    @cached_property
    def _eigen_table(self) -> dict:
        # the walk of each truncation L, filled by _walk
        return {}

    @cached_property
    def _ev_tables(self) -> tuple[dict, dict, dict]:
        # tensor.ev's word, Gamma-power and scale tables, filled by ev
        return {}, {}, {}

    def algebra(self) -> HeckeAlgebra:
        return HeckeAlgebra(self.e, self.q1)


def psi0_coefficient(ell: int, k: int, p: SphericalParams) -> ExactScalar:
    """Coefficient of the formal eigenvector at [pi**k w0] with l(w0) = ell:
    (-1/q1)**ell * chi_pi**(-k)."""
    return scalar_power(p.neg_inv_q1(), ell) * scalar_power(p.chi_pi, -k)


def _walk(p: SphericalParams, L: int) -> tuple[list, list, list, dict]:
    """The walk of an eigen job over W0 of length at most L, built once per
    (p, L) by the first check that asks, so ``build`` or the pi check
    called alone also builds the generator facts.  It holds:

    - layers, the BFS layers;
    - values[ell][k + K] = psi0_coefficient(ell, k, p), for ell <= L and
      |k| <= K;
    - facts, per layer ell < L the pair (lengths, steps): lengths[n] says
      whether the n-th element w0 has inversion count ell
      (``ExtendedWeylElement.length``), and steps[n*e + j] is the
      interned pair (up, l(s_j w0)): up negates the left-descent test of
      w0 at j, and l(s_j w0) = l(w0**-1 s_j) is read from a window ->
      layer map local to the walk (None outside the layers) at the step
      ``_right_steps(e)[j]`` of w0's inverse window, one ``inverse`` per
      w0;
    - verdicts, the table the e generator checks share.
    """
    entry = p._eigen_table.get(L)
    if entry is None:
        e = p.e
        layers = enumerate_by_length(e, L)
        values = [[psi0_coefficient(ell, k, p) for k in range(-K, K + 1)] for ell in range(L + 1)]
        layer_of = {w0.window: ell for ell, layer in enumerate(layers) for w0 in layer}
        right = list(enumerate(_right_steps(e)))
        interned: dict = {}
        facts = []
        for ell, layer in enumerate(layers[:L]):
            lengths = [ExtendedWeylElement(0, w0).length() == ell for w0 in layer]
            steps = []
            for w0 in layer:
                inv = w0.inverse().window
                for j, step in right:
                    pair = (not w0.has_left_descent(j), layer_of.get(step(inv)))
                    steps.append(interned.setdefault(pair, pair))
            facts.append((lengths, steps))
        entry = p._eigen_table[L] = (layers, values, facts, {})
    return entry


class SphericalTruncation(Value):
    """The eigenvector restricted to {pi**k w0 : |k| <= K, l(w0) <= L},
    for the module constant K.

    ``build`` writes the element's ``(k, window)`` keys (see
    ``HeckeElement``) straight from the walk's layers and its values,
    one per (layer, k), and builds no group element per term.
    """

    _fields = ("element",)

    @classmethod
    def build(cls, L: int, p: SphericalParams) -> "SphericalTruncation":
        # every value is a nonzero unit and every window has rank e, so
        # the table is wrapped as it is, without algebra.element's checks
        layers, values = _walk(p, L)[:2]
        coeffs = {}
        for layer, row in zip(layers, values):
            pairs = list(zip(range(-K, K + 1), row))
            for w0 in layer:
                for k, c in pairs:
                    coeffs[(k, w0.window)] = c
        return cls(HeckeElement(p.algebra(), coeffs))


class EigenReport(Value):
    """Outcome of one truncated eigen-equation check: the cases checked,
    the boundary indices skipped, and a ``{"k", "window"}`` witness of
    each failing case, the index pi**k w0 by the window of w0."""

    _fields = ("kind", "checked", "boundary_skipped", "failures")

    @property
    def passed(self) -> int:
        return self.checked - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return self._json(*self._fields, "passed", "ok")


def verify_eigen_generator(i: int, L: int, p: SphericalParams) -> EigenReport:
    """Check [s_i] * Psi0 = -Psi0 coefficient-wise inside the truncation.

    For a target index u the convolution coefficient is assembled from
    the two-case generator rule: with u' = s_i u,

        coefficient = q1 * c(u')            if l(u') = l(u) + 1
        coefficient = c(u') + (q1 - 1) c(u) if l(u') = l(u) - 1

    and must equal -c(u).  Indices of length L sit on the truncation
    boundary (their preimage u' may have length L + 1) and are counted
    as skipped.  Both sides carry the same chi_pi**(-k) factor, so the
    verdict is independent of the value of chi_pi.

    The indices, the values and the facts of each case come from the
    walk of ``_walk``: u' is pi**k * s_{i+k mod e} * w0, its layer comes
    from the BFS, and the case from a left-descent test of w0 at
    i + k mod e, not from the two layers, so a wrong case choice still
    breaks the identity.  A case passes only when w0's inversion count is
    its layer too; a u' outside the layers fails its case.  The verdict
    depends only on the integers (case, l(u), l(u'), k), not on i, so it
    is computed once per distinct key and (p, L).
    """
    if L < 1:
        raise ValueError("truncation L must be at least 1")
    e = p.e
    if not 0 <= i <= e - 1:
        raise ValueError(f"generator index {i} out of range 0..{e - 1}")
    q1 = p.q1
    q1_minus_1 = q1 - 1
    # s_i * pi**k = pi**k * s_j with j = i + k mod e
    shifted = [(k, (i + k) % e) for k in range(1 - K, K)]
    layers, values, facts, verdicts = _walk(p, L)
    checked = 0
    failures = []
    for ell, (layer, (lengths, steps)) in enumerate(zip(layers, facts)):
        checked += len(layer) * len(shifted)
        for n, (w0, length_ok) in enumerate(zip(layer, lengths)):
            for k, j in shifted:
                up, ell_su = steps[n * e + j]
                key = (up, ell, ell_su, k)
                ok = verdicts.get(key)
                if ok is None:
                    if ell_su is None:
                        ok = False
                    else:
                        cu = values[ell][k + K]
                        csu = values[ell_su][k + K]
                        lhs = q1 * csu if up else csu + q1_minus_1 * cu
                        ok = lhs == -cu
                    verdicts[key] = ok
                if not (ok and length_ok):
                    failures.append({"k": k, "window": list(w0.window)})
    return EigenReport(f"generator s_{i}", checked, len(shifted) * len(layers[L]), failures)


def verify_eigen_pi(L: int, p: SphericalParams) -> EigenReport:
    """Check [pi] * Psi0 = chi_pi * Psi0 on a truncation.

    The left side is computed through the Hecke product (so canonical
    relabeling of pi-powers is exercised) and read by ``(k, window)``
    key; the right side is chi_pi times the walk's value of each
    (layer, k).  Comparison walks the layers of ``_walk``, the ones the
    generator checks of the same parameters use, over |k| <= K - 1, for
    the module constant K; the shells |k| = K are boundary.  So a failing
    witness is listed in (layer, window, k) order, as the generator
    checks list theirs, and no group element is built per term.
    """
    truncation = SphericalTruncation.build(L, p).element
    algebra = truncation.algebra
    lhs = algebra.product(algebra.basis(pi_element(p.e)), truncation).coeffs
    layers, values = _walk(p, L)[:2]
    failures = []
    for layer, row in zip(layers, values):
        expected = [(k, p.chi_pi * row[k + K]) for k in range(1 - K, K)]
        for w0 in layer:
            for k, rhs in expected:
                if lhs.get((k, w0.window), 0) != rhs:
                    failures.append({"k": k, "window": list(w0.window)})
    size = sum(map(len, layers))
    # the shells k = -K and k = K, each a copy of the layers, are boundary
    return EigenReport("pi", (2 * K - 1) * size, 2 * size, failures)


def verify_eigen(e: int, L: int, chi_pi) -> dict:
    """Every eigen-equation of Psi0 at generic q1, as one report: each
    [s_i], and [pi], on one set of parameters."""
    p = SphericalParams.generic(e, chi_pi=chi_pi)
    reports = [verify_eigen_generator(i, L, p) for i in range(e)]
    reports.append(verify_eigen_pi(L, p))
    return {
        "e": e, "L": L, "chi_pi": format_rational(chi_pi), "mode": "generic-q1",
        "reports": [r.to_json() for r in reports],
        "ok": all(r.ok for r in reports),
    }


def eigen_cost(e: int, L: int) -> dict:
    """What ``verify_eigen(e, L, chi_pi)`` holds: its BFS of n elements;
    per element, the walk's length flag and e steps, and the 2(2K+1)
    Hecke terms of the truncation and the pi product, each a key tuple of
    two slots and a dict entry of three; per length 0..L, the walk's 2K+1
    psi0 values, each a Laurent monomial and its one-term dict, 12 slots,
    and their row list of four; and per length 1..L, at most 2(2K-1)
    verdicts (a 4-tuple key and a dict entry, six slots each), the layer,
    flag and step lists (four each), the fact pair and two interned steps
    (three each), two ints for the length (two each), and two slots more
    per Hecke term of the two elements every such length has at least:
    a table that grows, the truncation's or the pi product's (its one
    shifted copy), holds its old and new arrays at once.  At e = 2 these
    outweigh what the two elements' own slots leave room for."""
    cost = enumeration_cost(e, L)
    n = cost["elements"]
    terms = 2 * (2 * K + 1)
    per_length = 2 * (2 * K - 1) * 6 + 3 * 4 + 3 * 3 + 2 * 2 + 2 * terms * 2
    slots = (e + 1 + terms * 5) * n + (12 * (2 * K + 1) + 4) * (L + 1) + per_length * L
    return {"elements": n, "slots": cost["slots"] + slots}


def matrix_coefficient_scalar(w0: AffinePermutation, p: SphericalParams) -> ExactScalar:
    """Normalized matrix-coefficient value at w0 * pi**k, the same for every k.

    Only defined in the trivial chi_pi regime.
    """
    if p.chi_pi != 1:
        raise RequiresTrivialChiPi(
            "RequiresTrivialChiPi: closed coefficient form assumes chi_pi = 1"
        )
    ell = w0.length()
    exponent = -(p.f * (p.f - 1) // 2) * ell
    return scalar_power(p.neg_inv_q1(), ell) * p.q_power(exponent)
