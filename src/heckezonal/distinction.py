"""Double-coset sums of the explicit matrix coefficient against
Iwahori-type volumes, growth series of the affine Weyl group, and the
closed Poincare-series value they converge to.

With the parahoric normalized to volume 1, the double coset indexed by
w0 * pi**k has volume q0**(f**2 * l(w0)) (a block version of the
Iwahori-Matsumoto volume formula, k-independent because the rotation
normalizes the subgroup).  Each volume times the normalized coefficient
value collapses exactly to (-1/q0**f)**l(w0): the exponents satisfy
f**2 - 2f - f(f-1) = -f.  Summing over the e rotation classes and all of
W0 therefore gives

    e * P(-1/q0**f)

for the Poincare series P(X) = sum X**l(w0).  Bott's formula for affine
A_{e-1} (Bott, Bull. SMF 84, 1956; Macdonald, Math. Ann. 199, 1972)
gives it in closed form,

    P(X) = (1 - X**e) / (1 - X)**e = [e]_X / (1 - X)**(e-1),

with [e]_X = 1 + X + ... + X**(e-1): the product
prod_{i=1}^{e-1} (1 - X**(i+1)) / ((1 - X)(1 - X**i)) over the exponents
of the finite symmetric group telescopes to it.  Its Maclaurin
coefficients N(l) = C(l+e-1, e-1) - C(l-1, e-1) are cross-checked
against breadth-first enumeration, and N(0) + ... + N(L) =
C(L+e, e) - C(L, e).  Both factors of [e]_X / (1 - X)**(e-1) are
positive on (-1, 1), so P never vanishes there.  As every term depends
on w0 only through l(w0), the sum is taken once per BFS layer, and each
element of a layer is checked to have the layer's length.  All
arithmetic is exact; truncation quality is reported through the exact
tail bound e * sum_{l > L} N(l) (1/q0**f)**l rather than any floating
tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .scalars import LaurentPoly, _as_fraction, format_rational
from .spherical import SphericalParams, exact_q0, matrix_coefficient_scalar
from .weyl import AffinePermutation, enumerate_by_length

__all__ = [
    "IntegralReport",
    "RequiresOddE",
    "coset_measure",
    "per_term_value",
    "growth_bfs",
    "growth_closed_form",
    "poincare_closed_form",
    "poincare_series_coefficients",
    "poincare_value",
    "w0_count",
    "distinction_integral",
    "nonvanishing_scan",
]


class RequiresOddE(ValueError):
    """The distinction sum is computed in the odd-rank regime only."""


def coset_measure(w0: AffinePermutation, f: int, q0) -> Fraction:
    """Volume q0**(f**2 * l(w0)) of the double coset at w0 * pi**k, for every k."""
    q0 = exact_q0(q0)
    if f < 1:
        raise ValueError("f must be a positive integer")
    return q0 ** (f * f * w0.length())


def per_term_value(w0: AffinePermutation, f: int, q0) -> Fraction:
    """Volume times normalized coefficient value for one coset.

    Computed as the product of the two independent factors; it must
    collapse to (-1/q0**f)**l(w0) by the exponent cancellation.
    """
    p = SphericalParams.numeric(w0.e, f, q0)
    return coset_measure(w0, f, q0) * matrix_coefficient_scalar(w0, p)


def growth_bfs(e: int, max_length: int) -> tuple[int, ...]:
    """Counts N(0..max_length) of W0 elements by length, from the BFS layers.

    They are reported as found: a count that disagrees with the closed
    form is a failing row of the ``growth`` check, not an error here.
    """
    return tuple(len(layer) for layer in enumerate_by_length(e, max_length))


@functools.lru_cache(maxsize=None)
def poincare_closed_form(e: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Numerator 1 - X**e and denominator (1 - X)**e of the length
    generating function, Bott's P(X) = [e]_X / (1 - X)**(e-1).

    The denominator is expanded by the binomial theorem, so both have
    degree e.  Built once per e: ``LaurentPoly`` is immutable, so
    callers share the result.
    """
    if e < 2:
        raise ValueError("rank e must be at least 2")
    den = LaurentPoly({k: (-1) ** k * comb(e, k) for k in range(e + 1)})
    return LaurentPoly.constant(1) - LaurentPoly.variable() ** e, den


def poincare_series_coefficients(e: int, max_degree: int) -> list[int]:
    """Maclaurin coefficients of the closed form, by exact long division;
    the denominator has e + 1 terms, so this takes O(max_degree * e).

    The denominator's constant term is C(e, 0) = 1, so each step is a
    subtraction and every coefficient is an integer; the closed form's
    coefficients are ints, so each is an ``int``.
    """
    num, den = poincare_closed_form(e)
    n, d = num.coefficients(), den.coefficients()
    del d[0]
    coeffs: list[int] = []
    for deg in range(max_degree + 1):
        coeffs.append(n.get(deg, 0) - sum(dj * coeffs[deg - j] for j, dj in d.items() if j <= deg))
    return coeffs


def growth_closed_form(e: int, max_length: int) -> tuple[int, ...]:
    """Counts N(0..max_length) read from the closed form's coefficients.

    Each is returned as computed, never truncated: a wrong value, integral
    or not, is a failing row of the ``growth`` check.
    """
    return tuple(poincare_series_coefficients(e, max_length))


def poincare_value(e: int, x) -> Fraction:
    """Exact value of the closed form at a rational point of (-1, 1).

    The denominator (1 - x)**e has no zero there, so only the interval
    is checked.
    """
    x = _as_fraction(x)
    if not -1 < x < 1:
        raise ValueError("evaluation point must lie in the open interval (-1, 1)")
    num, den = poincare_closed_form(e)
    return num.evaluate(x) / den.evaluate(x)


def w0_count(e: int, L: int, cap: int) -> int:
    """N(0) + ... + N(L) = C(L+e, e) - C(L, e), the elements of W0 of
    length at most L; when the lower bound 1 + e*L exceeds cap, that
    bound instead.

    N(l) >= N(1) = e for l >= 1, so the bound holds, and it keeps the
    count cheap far over the cap: the binomials are computed only when
    e*L < cap.
    """
    bound = 1 + e * L
    if bound > cap:
        return bound
    return comb(L + e, e) - comb(L, e)


@dataclass(frozen=True)
class IntegralReport:
    """Exact truncated double-coset sum against its closed-form value."""

    e: int
    f: int
    q0: Fraction
    L: int
    partial_sum: Fraction
    closed_form: Fraction
    abs_error: Fraction
    tail_bound: Fraction
    per_term_ok: bool

    @property
    def ok(self) -> bool:
        """Every term collapses as derived and the sum is within the tail bound."""
        return self.per_term_ok and self.abs_error <= self.tail_bound

    def to_json(self) -> dict:
        return {
            "e": self.e,
            "f": self.f,
            "q0": int(self.q0),
            "L": self.L,
            "chi_pi": "1/1",  # the sum is derived for the trivial chi_pi only
            "partial_sum": format_rational(self.partial_sum),
            "closed_form": format_rational(self.closed_form),
            "abs_error": format_rational(self.abs_error),
            "tail_bound": format_rational(self.tail_bound),
            "per_term_ok": self.per_term_ok,
            "ok": self.ok,
        }


def distinction_integral(e: int, f: int, q0, L: int) -> IntegralReport:
    """Truncated coset expansion of the invariant-pairing integral.

    partial_sum = e * sum over l(w0) <= L of volume * coefficient,
    normalized by the vector pairing; the k-sum over the e rotation
    classes contributes the factor e because every term is
    k-independent.  A term depends on w0 only through l(w0), so the sum
    is taken per BFS layer: every element's inversion count is checked
    against its layer index, and the layer adds len(layer) copies of
    the term of its first element, itself checked against
    (-1/q0**f)**l.  closed_form = e * P(-1/q0**f).  The exact tail
    bound dominates |partial_sum - closed_form| and shrinks
    geometrically with L.
    """
    if e % 2 == 0:
        raise RequiresOddE("RequiresOddE: the coset sum is derived for odd e")
    q0 = exact_q0(q0)
    if L < 0:
        raise ValueError("truncation L must be nonnegative")
    y = Fraction(1) / q0**f
    layers = enumerate_by_length(e, L)
    inner = Fraction(0)
    tail_partial = Fraction(0)
    per_term_ok = True
    for ell, layer in enumerate(layers):
        if any(w0.length() != ell for w0 in layer):
            per_term_ok = False
        term = per_term_value(layer[0], f, q0)
        if term != (-y) ** ell:
            per_term_ok = False
        inner += len(layer) * term
        tail_partial += len(layer) * y**ell
    partial = e * inner
    closed = e * poincare_value(e, -y)
    tail_bound = e * (poincare_value(e, y) - tail_partial)
    return IntegralReport(
        e=e,
        f=f,
        q0=q0,
        L=L,
        partial_sum=partial,
        closed_form=closed,
        abs_error=abs(partial - closed),
        tail_bound=tail_bound,
        per_term_ok=per_term_ok,
    )


def nonvanishing_scan(e: int, samples) -> dict:
    """Exact positivity of the closed form at rational points of (-1, 1)."""
    rows = []
    all_positive = True
    for x in samples:
        value = poincare_value(e, x)
        positive = value > 0
        all_positive = all_positive and positive
        rows.append({"x": format_rational(x), "value": format_rational(value), "positive": positive})
    return {"e": e, "all_positive": all_positive, "samples": rows}
