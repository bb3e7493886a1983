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
``psi0_coefficient`` takes exactly that pair and keeps its values in a
table on the SphericalParams instance, filled on first use: the Laurent
powers are computed once per distinct pair, and the table lives and dies
with the parameters it was computed for.  The BFS layers of W0 and the
map from each window to its layer are kept on the parameters the same
way, keyed by L, so the generator checks and the truncation of one job
share a single ``enumerate_by_length``, and every coefficient is read by
layer.  Both eigen checks walk those layers: each computes one value per
(layer, k) and lists a failing witness in (layer, window, k) order.
Each element's inversion count is still checked against its layer once,
so the BFS distance and ``length()`` stay independent witnesses of each
other.

In the trivial-chi_pi regime the normalized matrix coefficient at
w0 * pi**k is the closed form

    (-1/q1)**l(w0) * q**(-f(f-1)/2 * l(w0)),      q = q0**2, q1 = q**f,

independent of k, so ``matrix_coefficient_scalar`` takes w0 alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .hecke import HeckeAlgebra, HeckeElement
from .scalars import ExactScalar, LaurentPoly, _as_fraction, format_rational, scalar_inverse, scalar_power
from .weyl import (
    AffinePermutation,
    ExtendedWeylElement,
    _simple,
    enumerate_by_length,
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
    "matrix_coefficient_scalar",
]


# The truncation holds pi**k w0 for |k| <= K.  [pi] shifts k by one, so
# the eigen-equations are compared on |k| <= K - 1.
K = 2


class RequiresTrivialChiPi(ValueError):
    """The closed matrix-coefficient form needs chi_pi = 1."""


def exact_q0(q0) -> Fraction:
    """q0 as a Fraction, for every library entry that takes q0: an
    integer of at least 2, where a float raises ``TypeError``."""
    q0 = _as_fraction(q0)
    if q0.denominator != 1 or q0 < 2:
        raise ValueError("q0 must be an integer of at least 2")
    return q0


@dataclass(frozen=True)
class SphericalParams:
    """Parameters (e, f, q0) with q = q0**2 and q1 = q**f = q0**(2f).

    q0 is an integer prime power in numeric mode.  Generic mode is
    q0 = None and f = 1: q1 = q is then a formal Laurent variable.
    """

    e: int
    f: int
    q0: Fraction | None
    chi_pi: ExactScalar = 1

    def __post_init__(self):
        if self.e < 2:
            raise ValueError("rank e must be at least 2")
        if self.f < 1:
            raise ValueError("f must be a positive integer")
        if self.q0 is None:
            if self.f != 1:
                raise ValueError("generic mode has f = 1")
        else:
            object.__setattr__(self, "q0", exact_q0(self.q0))

    @classmethod
    def numeric(cls, e: int, f: int, q0) -> "SphericalParams":
        return cls(e, f, q0)

    @classmethod
    def generic(cls, e: int, chi_pi=1) -> "SphericalParams":
        return cls(e, 1, None, chi_pi)

    @cached_property
    def q1(self) -> ExactScalar:
        return LaurentPoly.variable() if self.q0 is None else self.q0 ** (2 * self.f)

    def q_power(self, m: int) -> ExactScalar:
        """q**m for integer m, with q = q0**2 (q = q1 in generic mode)."""
        if m == 0:
            return Fraction(1)
        if self.q0 is None:
            return scalar_power(self.q1, m)
        return self.q0 ** (2 * m)

    @cached_property
    def _neg_inv_q1(self) -> ExactScalar:
        # computed on first use and stored on the instance, so it lives
        # exactly as long as these parameters
        return -scalar_inverse(self.q1)

    def neg_inv_q1(self) -> ExactScalar:
        return self._neg_inv_q1

    @cached_property
    def _psi0_table(self) -> dict:
        # psi0 coefficients by (l(w0), k), filled by psi0_coefficient
        return {}

    @cached_property
    def _layer_table(self) -> dict:
        # BFS layers of W0 and their window -> layer map by truncation L,
        # filled by _layers
        return {}

    @cached_property
    def _ev_gamma_table(self) -> dict:
        # Gamma**r by r = k mod e, filled by tensor.ev
        return {}

    @cached_property
    def _ev_scale_table(self) -> dict:
        # ev's q-power scale by reduced-word length, filled by tensor.ev
        return {}

    @cached_property
    def _ev_word_table(self) -> dict:
        # (word_perm, length) of a reduced word by the window of the W0
        # element it spells, filled by tensor.ev
        return {}

    def algebra(self) -> HeckeAlgebra:
        return HeckeAlgebra(self.e, self.q1)


def psi0_coefficient(ell: int, k: int, p: SphericalParams) -> ExactScalar:
    """Coefficient of the formal eigenvector at [pi**k w0] with l(w0) = ell.

    The value (-1/q1)**ell * chi_pi**(-k) is computed once per (ell, k)
    and kept in the parameters' table.
    """
    key = (ell, k)
    table = p._psi0_table
    value = table.get(key)
    if value is None:
        value = scalar_power(p.neg_inv_q1(), ell) * scalar_power(p.chi_pi, -k)
        table[key] = value
    return value


def _layers(p: SphericalParams, L: int) -> tuple[list, dict]:
    """The BFS layers of W0 of length at most L and the window -> layer map.

    Both are built once per (p, L).
    """
    entry = p._layer_table.get(L)
    if entry is None:
        layers = enumerate_by_length(p.e, L)
        layer_of = {w0.window: ell for ell, layer in enumerate(layers) for w0 in layer}
        entry = p._layer_table[L] = (layers, layer_of)
    return entry


@dataclass
class SphericalTruncation:
    """The eigenvector restricted to {pi**k w0 : |k| <= K, l(w0) <= L},
    for the module constant K.

    ``build`` writes the element's ``(k, window)`` keys (see
    ``HeckeElement``) straight from the BFS layers, one psi0 value per
    (layer, k), and builds no group element per term.
    """

    element: HeckeElement

    @classmethod
    def build(cls, L: int, p: SphericalParams) -> "SphericalTruncation":
        # every value is a nonzero unit and every window has rank e, so
        # the table is wrapped as it is, without algebra.element's checks
        ks = range(-K, K + 1)
        coeffs = {}
        for ell, layer in enumerate(_layers(p, L)[0]):
            values = [(k, psi0_coefficient(ell, k, p)) for k in ks]
            for w0 in layer:
                for k, c in values:
                    coeffs[(k, w0.window)] = c
        return cls(HeckeElement(p.algebra(), coeffs))


@dataclass
class EigenReport:
    """Outcome of one truncated eigen-equation check."""

    kind: str
    checked: int = 0
    passed: int = 0
    boundary_skipped: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.passed == self.checked

    def record(self, ok: bool, k: int, window: tuple[int, ...]) -> None:
        """Count one case at the index pi**k w0, w0 of this window.

        The witness dict is built only for a failing case.
        """
        self.checked += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append({"k": k, "window": list(window)})

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "checked": self.checked,
            "passed": self.passed,
            "boundary_skipped": self.boundary_skipped,
            "failures": self.failures,
            "ok": self.ok,
        }


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

    The indices come from the BFS layers shared with the truncation, and
    l(u') from their window -> layer map (``_layers``); u' is built as
    pi**k * s_{i+k mod e} * w0 with one ``compose``.  Each w0 of layer
    ell has its inversion count checked against ell once, and a case
    passes only when that check holds too; a u' missing from the map
    fails its case.  The case is read from a left-descent test of w0 at
    i + k mod e (``has_left_descent``, O(e)), not from the two layers, so a wrong
    case choice still breaks the identity.  The verdict depends only on
    the integers (case, l(u), l(u'), k), so it is computed once per
    distinct key within the call.
    """
    if L < 1:
        raise ValueError("truncation L must be at least 1")
    e = p.e
    if not 0 <= i <= e - 1:
        raise ValueError(f"generator index {i} out of range 0..{e - 1}")
    report = EigenReport(kind=f"generator s_{i}")
    q1 = p.q1
    q1_minus_1 = q1 - 1
    # s_i * pi**k = pi**k * s_j with j = i + k mod e
    shifted = [(k, (i + k) % e) for k in range(1 - K, K)]
    simple = {j: _simple(e, j) for _, j in shifted}
    layers, layer_of = _layers(p, L)
    verdicts: dict = {}
    for ell, layer in enumerate(layers[:L]):
        for w0 in layer:
            length_ok = ExtendedWeylElement(0, w0).length() == ell
            for k, j in shifted:
                ell_su = layer_of.get(simple[j].compose(w0).window)
                up = not w0.has_left_descent(j)
                key = (up, ell, ell_su, k)
                ok = verdicts.get(key)
                if ok is None:
                    if ell_su is None:
                        ok = False
                    else:
                        cu = psi0_coefficient(ell, k, p)
                        csu = psi0_coefficient(ell_su, k, p)
                        lhs = q1 * csu if up else csu + q1_minus_1 * cu
                        ok = lhs == -cu
                    verdicts[key] = ok
                report.record(ok and length_ok, k, w0.window)
    report.boundary_skipped = len(shifted) * len(layers[L])
    return report


def verify_eigen_pi(L: int, p: SphericalParams) -> EigenReport:
    """Check [pi] * Psi0 = chi_pi * Psi0 on a truncation.

    The left side is computed through the Hecke product (so canonical
    relabeling of pi-powers is exercised) and read by ``(k, window)``
    key; the right side is chi_pi times one ``psi0_coefficient`` per
    (layer, k).  Comparison walks the truncation's BFS layers, the ones
    the generator checks of the same parameters use, over |k| <= K - 1,
    for the module constant K; the shells |k| = K are boundary.  So a
    failing witness is listed in (layer, window, k) order, as the
    generator checks list theirs, and no group element is built per
    term.
    """
    truncation = SphericalTruncation.build(L, p).element
    algebra = truncation.algebra
    lhs = algebra.product(algebra.basis(pi_element(p.e)), truncation).coeffs
    layers = _layers(p, L)[0]
    report = EigenReport(kind="pi")
    for ell, layer in enumerate(layers):
        expected = [(k, p.chi_pi * psi0_coefficient(ell, k, p)) for k in range(1 - K, K)]
        for w0 in layer:
            for k, rhs in expected:
                report.record(lhs.get((k, w0.window), 0) == rhs, k, w0.window)
    # the shells k = -K and k = K, each a copy of the layers
    report.boundary_skipped = 2 * sum(map(len, layers))
    return report


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
