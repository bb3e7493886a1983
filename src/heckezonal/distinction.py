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
from fractions import Fraction

from .scalars import LaurentPoly, Monomial, Value, _as_fraction, format_rational
from .spherical import SphericalParams, exact_q0, matrix_coefficient_scalar
from .weyl import AffinePermutation, enumeration_cost, enumerate_by_length

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
    "distinction_integral",
    "nonvanishing_scan",
    "growth_cost",
    "integral_cost",
    "poincare_cost",
]


class RequiresOddE(ValueError):
    """The distinction sum is computed in the odd-rank regime only."""


def coset_measure(w0: AffinePermutation, f: int, q0) -> Monomial:
    """Volume q0**(f**2 * l(w0)) of the double coset at w0 * pi**k, for every k."""
    q0 = exact_q0(q0)
    if f < 1:
        raise ValueError("f must be a positive integer")
    return Monomial(q0, 1, f * f * w0.length())


def per_term_value(w0: AffinePermutation, f: int, q0) -> Monomial:
    """Volume times normalized coefficient value for one coset.

    Computed as the product of the two independent factors, each a
    signed power of q0; it must collapse to (-1/q0**f)**l(w0) by the
    exponent cancellation.
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
    degree e; its row is built as C(e, k+1) = C(e, k) * (e - k) / (k + 1),
    one small multiplication and division per term, not a separate
    binomial each.  Built once per e: ``LaurentPoly`` is immutable, so
    callers share the result.
    """
    if e < 2:
        raise ValueError("rank e must be at least 2")
    row = [1]
    for k in range(e):
        row.append(row[k] * (e - k) // (k + 1))
    den = LaurentPoly({k: -c if k % 2 else c for k, c in enumerate(row)})
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


def growth_cost(e: int, L: int) -> dict:
    """What the growth check holds: the BFS of ``growth_bfs``, and the
    closed form's (1 - X)**e, whose binomials are the Poincare bound at 0."""
    return {**enumeration_cost(e, L), **poincare_cost(e, [Fraction(0)])}


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


class IntegralReport(Value):
    """Exact truncated double-coset sum against its closed-form value."""

    _fields = ("e", "f", "q0", "L", "partial_sum", "closed_form", "abs_error", "tail_bound", "per_term_ok")
    # the sum is derived for the trivial chi_pi only
    chi_pi = Fraction(1)

    @property
    def ok(self) -> bool:
        """Every term collapses as derived and the sum is within the tail bound."""
        return self.per_term_ok and self.abs_error <= self.tail_bound

    def to_json(self) -> dict:
        return self._json(*self._fields, "chi_pi", "ok")


def integral_cost(e: int, f: int, q0: int, L: int) -> dict:
    """What ``distinction_integral(e, f, q0, L)`` holds: its BFS, and the
    digits of its values.  With Q = q0**f, each is at most 2e * 2**e in
    size (e times a series at +-1/Q, at most (1 - 1/Q)**-e), with a
    denominator dividing Q**L (Q + 1)**e or Q**L (Q - 1)**e, so numerator
    and denominator are below 2**(1 + b + e + m*L + c*e) for the bit
    lengths b of e, m of Q - 1 and c of Q.  Past 2**16 bits, f times the
    bit length of q0 stands for m and c, Q unbuilt: over 29,000 digits.
    """
    m = c = f * q0.bit_length()
    if c < 1 << 16:
        q = q0**f
        m, c = (q - 1).bit_length(), q.bit_length()
    bits = 1 + e.bit_length() + e + m * L + c * e
    return {**enumeration_cost(e, L), "digits": bits * 30103 // 100000 + 1}


def _over_q0(numerators: dict, q0: int) -> Fraction:
    """sum c * q0**x over the items (x, c), as one Fraction: int terms
    over the lowest power of q0, reduced once."""
    low = min(numerators, default=0)
    total = sum(c * q0 ** (x - low) for x, c in numerators.items())
    return Fraction(total, q0**-low) if low < 0 else Fraction(total * q0**low)


def distinction_integral(e: int, f: int, q0, L: int) -> IntegralReport:
    """Truncated coset expansion of the invariant-pairing integral.

    partial_sum = e * sum over l(w0) <= L of volume * coefficient,
    normalized by the vector pairing; the k-sum over the e rotation
    classes contributes the factor e because every term is
    k-independent.  A term depends on w0 only through l(w0), so the sum
    is taken per BFS layer: every element's inversion count is checked
    against its layer index, and the layer adds len(layer) copies of
    the term of its first element, itself checked against
    (-1/q0**f)**l as a signed power of q0: their signs and exponents must
    agree, and no term is built as a rational to be compared.  Nor is
    one built to be added: the layers' counts, signed, are summed as int
    numerators by the exponent of their term, over one power of q0, and
    each sum becomes one Fraction at the end (a term that is not a power
    of q0 is added as its exact value).  closed_form = e * P(-1/q0**f).
    The exact tail bound dominates |partial_sum - closed_form| and
    shrinks geometrically with L.
    """
    if e % 2 == 0:
        raise RequiresOddE("RequiresOddE: the coset sum is derived for odd e")
    q0 = exact_q0(q0)
    if L < 0:
        raise ValueError("truncation L must be nonnegative")
    y = Monomial(q0, 1, -f)
    layers = enumerate_by_length(e, L)
    # int numerators by q0-exponent: sum of count * sign * q0**exponent
    inner, tail = {}, {}
    rest = 0  # terms that are not powers of q0, summed exactly
    per_term_ok = True
    for ell, layer in enumerate(layers):
        if any(w0.length() != ell for w0 in layer):
            per_term_ok = False
        term = per_term_value(layer[0], f, q0)
        if term != (-y) ** ell:
            per_term_ok = False
        if type(term) is Monomial and term.base == q0:
            inner[term.exp] = inner.get(term.exp, 0) + term.sign * len(layer)
        else:
            rest += len(layer) * term
        tail[-f * ell] = len(layer)  # y**ell
    partial = e * (_over_q0(inner, q0) + rest)
    closed = e * poincare_value(e, -y)
    tail_bound = e * (poincare_value(e, y) - _over_q0(tail, q0))
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


# nonvanishing_scan's default points: 0 and -1/q0**f for q0 in 2..5, f in 1..2
POINTS = tuple(sorted({Fraction(0)} | {Fraction(-1, q0**f) for q0 in (2, 3, 4, 5) for f in (1, 2)}))


def nonvanishing_scan(e: int, points=None) -> dict:
    """Exact positivity of the closed form at rational points of (-1, 1),
    by default at ``POINTS``."""
    rows = []
    all_positive = True
    for x in POINTS if points is None else points:
        value = poincare_value(e, x)
        positive = value > 0
        all_positive = all_positive and positive
        rows.append({"x": format_rational(x), "value": format_rational(value), "positive": positive})
    return {"e": e, "all_positive": all_positive, "samples": rows}


def poincare_cost(e: int, points=None) -> dict:
    """The digits of the exact values ``nonvanishing_scan(e, points)``
    reports: at x = a/b, |a| < b, (b**e - a**e) / (b - a)**e has a
    numerator below 2 * b**e and a denominator (b - a)**e, and an integer
    below 2**n has at most n * log10(2) + 1 < 0.30103 n + 1 digits."""
    bits = 0
    for x in POINTS if points is None else points:
        b = x.denominator
        bits = max(bits, e * b.bit_length() + 1, e * (b - x.numerator).bit_length())
    return {"digits": bits * 30103 // 100000 + 1}
