"""Reference models that the tests compare the package against.

None of these runs on a path of the ``heckezonal`` command, so they are
kept with the tests and not shipped.  Each is written independently of
the code it checks:

- ``FractionLaurentPoly``: a Laurent polynomial whose every coefficient
  is a ``Fraction``, with the package's ring operations written over
  Fractions alone.  test_scalars.py checks that ``LaurentPoly``, which
  keeps integral coefficients as ints, agrees with it on every
  operation.
- ``TensorVector`` (with ``pure``), ``apply_operator`` and ``pair``: a
  dense coordinate model of the e-fold tensor power of a d-space.
  test_tensor.py checks the slot moves of ``t_operator`` and
  ``gamma_operator``, that composing place operators matches applying
  them in turn, and the pairing of ``ev`` values on rotation-invariant
  pure tensors against the closed coefficient form.
- ``project_to_finite``: reduction mod e of an extended Weyl element.
  test_weyl.py checks that it is a homomorphism; test_tensor.py checks
  that ``ev``'s permutation equals it on W0 and that Gamma's permutation
  is its image of pi**-1.
- ``apply``: an (extended) affine permutation evaluated at any integer.
  test_weyl.py checks ``compose``, ``multiply``, ``conjugate_by_pi`` and
  the reduced-word reference against it.
- ``random_element_reference``: the sampled element as a product of
  generators and pi**k through ``multiply``.  test_weyl.py checks that
  ``random_element``, which shifts and validates one window at the end,
  draws the same elements and leaves the rng in the same state.
- ``evaluate`` and ``specialize``: substitution of q1 by a rational.
  test_hecke.py checks that specialization commutes with the product.
- ``right_peeling_product``: the Hecke product by the right two-case
  rule along the right factor's reduced word, whatever the factors'
  sizes, with every element built by ``multiply`` and each case read
  from its own ``_has_right_descent``.  ``HeckeAlgebra.product`` peels
  the right factor too when it has strictly fewer terms, but on window
  tables through ``HeckeAlgebra._peel`` and ``weyl._right_step``;
  test_hecke.py compares the two on pairs that take each of the
  library's paths.
- ``ev_reference``: the evaluation map with a fresh conjugate, reduced
  word, Gamma power and scale on every call, no table.  test_tensor.py
  compares ``ev``, which keeps each conjugate's word in a per-params
  table, with it.
- ``reduced_word_independence_reference``: the reduced-word check with
  every reduced word of every element enumerated.  test_tensor.py checks
  that ``verify_coefficient``, which composes ``ev``'s operator of each
  element of the layer below with t_j at a right descent j, gives the
  same verdict, element count and witness, honest and with two faults.
- ``eigen_generator_reference``: the check [s_i] * Psi0 = -Psi0 by a
  fresh BFS, both lengths compared for every case and the generator
  rule evaluated for every case.  test_spherical.py compares
  ``verify_eigen_generator``, which shares its layers, reads the case
  from a descent test and memoises verdicts, with it.
- ``bott_product_series``: the growth series of W0 as Bott's product
  prod_{i=1}^{e-1} (1 - X**(i+1)) / ((1 - X)(1 - X**i)), expanded in
  integers factor by factor.  test_distinction.py checks the closed
  form (1 - X**e) / (1 - X)**e, its binomial coefficients, ``w0_count``
  and the BFS layer sizes against it.
- ``coset_sums``: the distinction sum's partial sum, closed value and
  tail bound as integer sums over the counts of ``bott_product_series``
  and the closed form written in Fractions, never through
  ``per_term_value``.  test_distinction.py checks
  ``distinction_integral``'s three values against it, at large f too.
- ``mat_vec``: a matrix times a vector.  test_gelfand.py checks that the
  computed fixed vectors are fixed with it.
- ``inverse_by_search``: the index j with rho(i) rho(j) = 1, found by
  multiplying matrices.  test_gelfand.py checks that ``inverse_index``,
  a read of the group table, agrees with it on faithful representations.
- ``sign_by_inversions``: (-1) to the number of inversions of a
  permutation.  test_gelfand.py checks the sign representation with it.
- ``commutant_dimension``: the dimension of the space of matrices that
  commute with the generator images, by elimination.  test_gelfand.py
  checks that ``is_irreducible``, a character norm read from traces and
  the group table, is true exactly when it is 1.

Two helpers are test tooling, not models: ``mutate`` patches a package
function with its own source, edited, so a test can show that a check
fails when the code it guards is broken, and ``wrong_pi_power`` is the
one such fault that several test files share.
"""

from __future__ import annotations

import inspect
import itertools
import textwrap
from dataclasses import dataclass
from fractions import Fraction

from heckezonal import tensor
from heckezonal.gelfand import mat_identity, mat_mul, rref
from heckezonal.hecke import HeckeAlgebra, HeckeElement
from heckezonal.scalars import LaurentPoly, NonInvertibleError
from heckezonal.spherical import EigenReport, SphericalParams, psi0_coefficient
from heckezonal.tensor import PlaceOperator, gamma_operator, word_perm
from heckezonal.weyl import (
    AffinePermutation,
    ExtendedWeylElement,
    all_reduced_words,
    conjugate_by_pi,
    enumerate_by_length,
    generator,
    multiply,
    perm_compose,
)


# -- Laurent polynomials ---------------------------------------------------


class FractionLaurentPoly:
    """``sum c_n * x**n`` with nonzero ``Fraction`` coefficients only."""

    def __init__(self, coeffs=None):
        self._coeffs = {}
        for n, c in (coeffs or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"expected an exact rational, got {type(c).__name__}")
            if c:
                self._coeffs[int(n)] = Fraction(c)

    def coefficients(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def _coerce(self, other):
        if isinstance(other, FractionLaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionLaurentPoly({0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        coeffs = dict(self._coeffs)
        for n, c in other._coeffs.items():
            coeffs[n] = coeffs.get(n, Fraction(0)) + c
        return FractionLaurentPoly(coeffs)

    __radd__ = __add__

    def __neg__(self):
        return FractionLaurentPoly({n: -c for n, c in self._coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        coeffs: dict[int, Fraction] = {}
        for n1, c1 in self._coeffs.items():
            for n2, c2 in other._coeffs.items():
                coeffs[n1 + n2] = coeffs.get(n1 + n2, Fraction(0)) + c1 * c2
        return FractionLaurentPoly(coeffs)

    __rmul__ = __mul__

    def inverse(self) -> "FractionLaurentPoly":
        if len(self._coeffs) != 1:
            raise NonInvertibleError("only monomials are units in the Laurent ring")
        ((n, c),) = self._coeffs.items()
        return FractionLaurentPoly({-n: 1 / c})

    def __pow__(self, n: int):
        base = self if n >= 0 else self.inverse()
        result = FractionLaurentPoly({0: 1})
        for _ in range(abs(n)):
            result = result * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._coeffs == other._coeffs

    def __hash__(self):
        # a constant (zero included) equals a scalar, so it hashes as one
        if all(n == 0 for n in self._coeffs):
            return hash(sum(self._coeffs.values(), Fraction(0)))
        return hash(frozenset(self._coeffs.items()))

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        if x == 0 and any(n < 0 for n in self._coeffs):
            raise ZeroDivisionError("cannot evaluate at 0: negative exponents present")
        return sum((c * x**n for n, c in self._coeffs.items()), Fraction(0))


# -- dense tensors ---------------------------------------------------------


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
    def pure(cls, factors) -> "TensorVector":
        """The pure tensor v_1 (x) ... (x) v_e from per-slot coordinate lists."""
        e = len(factors)
        if e < 2:
            raise ValueError("need at least two tensor slots")
        d = len(factors[0])
        if any(len(v) != d for v in factors):
            raise ValueError("all slot vectors must share one dimension")
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


def apply_operator(op, v: TensorVector) -> TensorVector:
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


def pair(v: TensorVector, vt: TensorVector):
    """Full coordinate contraction of a vector against a dual vector."""
    if v.e != vt.e or v.d != vt.d:
        raise ValueError("dimension mismatch")
    total = Fraction(0)
    for a, b in zip(v.data, vt.data):
        total = total + a * b
    return total


# -- the affine Weyl group -------------------------------------------------


def apply(w, x: int) -> int:
    """w(x) for an AffinePermutation or an ExtendedWeylElement, any integer x.

    The window gives w on 1..e and w(x + e) = w(x) + e gives the rest;
    (pi**k w0)(x) = w0(x) - k.
    """
    if isinstance(w, ExtendedWeylElement):
        return apply(w.w0, x) - w.k
    j = (x - 1) % w.e
    return w.window[j] + (x - 1 - j)


def project_to_finite(a: ExtendedWeylElement) -> tuple[int, ...]:
    """Reduction mod e: the induced permutation of residues {1..e}.

    Returned in one-line notation, entry i-1 holding the image of i.
    This is a group homomorphism sending s_i (i >= 1) to the
    transposition (i, i+1), s_0 to (1, e), and pi to the e-cycle
    i -> i-1, the slot cycle of the rotation operator on tensor places.
    """
    e = a.e
    return tuple(((v - 1) % e) + 1 for v in a.full_window())


def random_element_reference(e: int, rng) -> ExtendedWeylElement:
    """The draw of ``weyl.random_element`` made in the group: 0..4
    generators, each multiplied on the left with ``multiply``, then pi**k
    for k in -1..1 multiplied on the left too, reading rng in the same
    order."""
    w = ExtendedWeylElement.identity(e)
    for _ in range(rng.randrange(0, 5)):
        w = multiply(generator(e, rng.randrange(e)), w)
    return multiply(ExtendedWeylElement(rng.randrange(-1, 2), AffinePermutation.identity(e)), w)


def bott_product_series(e: int, max_degree: int) -> list[int]:
    """Coefficients of X**0..X**max_degree of
    prod_{i=1}^{e-1} (1 - X**(i+1)) / ((1 - X)(1 - X**i))."""
    series = [1] + [0] * max_degree
    for i in range(1, e):
        series = [c - (series[n - i - 1] if n > i else 0) for n, c in enumerate(series)]
        for step in (1, i):  # divided by 1 - X, then by 1 - X**i
            for n in range(step, len(series)):
                series[n] += series[n - step]
    return series


def coset_sums(e: int, f: int, q0: int, L: int) -> tuple[Fraction, Fraction, Fraction]:
    """e * sum_{l <= L} N(l) (-1/Q)**l, e * P(-1/Q) and
    e * sum_{l > L} N(l) (1/Q)**l for Q = q0**f, with N(l) from
    ``bott_product_series`` and P(X) = (1 - X**e) / (1 - X)**e.

    Each partial sum is one integer over Q**L, summed by Horner's rule.
    """
    Q = q0**f
    counts = bott_product_series(e, L)
    signed = unsigned = 0
    for l, n in enumerate(counts):
        signed = signed * Q + (-1) ** l * n
        unsigned = unsigned * Q + n
    y = Fraction(1, Q)
    closed = e * (1 - (-y) ** e) / (1 + y) ** e
    tail = e * ((1 - y**e) / (1 - y) ** e - Fraction(unsigned, Q**L))
    return e * Fraction(signed, Q**L), closed, tail


# -- the Hecke algebra -----------------------------------------------------


def evaluate(p, x) -> Fraction:
    """Specialize a scalar at a rational; rationals pass through."""
    if isinstance(p, LaurentPoly):
        return p.evaluate(x)
    return Fraction(p)


def specialize(h: HeckeElement, x) -> HeckeElement:
    """Evaluate generic coefficients at q1 = x, landing in a numeric algebra."""
    target = HeckeAlgebra(h.algebra.e, evaluate(h.algebra.q1, x))
    return target.element({w: evaluate(h.coefficient(w), x) for w in h.support()})


def _has_right_descent(x: ExtendedWeylElement, j: int) -> bool:
    # l(x s_j) < l(x) iff x(j) > x(j+1); x(0) = x(e) - e, and the pi
    # power shifts every value alike
    win = x.w0.window
    if j == 0:
        return win[-1] - len(win) > win[0]
    return win[j - 1] > win[j]


def right_peeling_product(h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
    """h1 * h2 from the right two-case rule, peeling the right factor.

    The library peels the right factor too when it has fewer terms, on
    window tables; this model builds every element by ``multiply`` and
    reads each case from ``_has_right_descent``, whatever the sizes.

    For a term [pi**k v0] of h2, every [x] of h1 is first relabeled to
    [x pi**k]; then, along a reduced word j_1 ... j_l of v0,

        [x][s_j] = [x s_j]                     if l(x s_j) = l(x) + 1
        [x][s_j] = q1 [x s_j] + (q1 - 1) [x]   if l(x s_j) = l(x) - 1

    with the case read from a right descent of x's window.
    """
    algebra = h1.algebra
    e, q1 = algebra.e, algebra.q1
    identity = AffinePermutation.identity(e)
    out: dict = {}
    for v in h2.support():
        cv = h2.coefficient(v)
        pk = ExtendedWeylElement(v.k, identity)
        acc = {multiply(x, pk): h1.coefficient(x) for x in h1.support()}
        for j in v.w0.reduced_word():
            s = generator(e, j)
            nxt: dict = {}
            for x, c in acc.items():
                xs = multiply(x, s)
                if _has_right_descent(x, j):
                    nxt[xs] = nxt.get(xs, 0) + q1 * c
                    nxt[x] = nxt.get(x, 0) + (q1 - 1) * c
                else:
                    nxt[xs] = nxt.get(xs, 0) + c
            acc = nxt
        for x, c in acc.items():
            out[x] = out.get(x, 0) + cv * c
    return algebra.element(out)


# -- the evaluation map ------------------------------------------------------


def ev_reference(w: ExtendedWeylElement, p: SphericalParams) -> PlaceOperator:
    """ev at w = pi**k w0, everything computed afresh on every call.

    The t-factors come from a reduced word of pi**k w0 pi**-k, Gamma**(k
    mod e) composes on the right, and the scale is q**(-f(f-1)/2) to the
    word length.
    """
    e = p.e
    word = conjugate_by_pi(w.w0, w.k).reduced_word()
    gamma_k = gamma_operator(e).power(w.k % e)
    scale = p.q_power(-(p.f * (p.f - 1) // 2) * len(word))
    return PlaceOperator(e, perm_compose(word_perm(word, e), gamma_k.perm), scale)


def reduced_word_independence_reference(e: int, L: int) -> dict:
    """The reduced-word check of ``verify_coefficient``, element by element.

    Every w0 with l(w0) <= min(L, 6) lists all its reduced words through
    ``all_reduced_words``; their ``word_perm`` perms and the product of
    ``t_operator`` factors along the first word must be one perm.  Nothing
    is carried from the layer below.  ``word_perm`` and ``t_operator`` are
    read from the tensor module at call time, so a patched one reaches
    this model and the package alike.  A failing report names the window
    of the first failing element in layer order.
    """
    ts = [tensor.t_operator(i, e) for i in range(e)]
    elements, witness = 0, None
    for layer in enumerate_by_length(e, min(L, 6)):
        for w0 in layer:
            words = all_reduced_words(w0)
            op = PlaceOperator.identity(e)
            for idx in words[0]:
                op = op.compose(ts[idx])
            perms = {op.perm} | {tensor.word_perm(word, e) for word in words}
            elements += 1
            if len(perms) != 1 and witness is None:
                witness = list(w0.window)
    report = {"elements": elements, "ok": witness is None}
    if witness is not None:
        report["witness"] = witness
    return report


# -- the spherical eigenvector ---------------------------------------------


def eigen_generator_reference(i: int, L: int, p: SphericalParams) -> EigenReport:
    """[s_i] * Psi0 = -Psi0 checked case by case, nothing shared or memoised.

    Every index u = pi**k w0 with l(w0) < L and |k| <= 1 is checked: the
    case of the generator rule comes from comparing l(s_i u) with l(u),
    and q1 * c(s_i u) or c(s_i u) + (q1 - 1) c(u) is compared with -c(u).
    Indices with l(w0) = L are counted as boundary.
    """
    checked = boundary_skipped = 0
    failures = []
    q1 = p.q1
    s = generator(p.e, i)
    for ell, layer in enumerate(enumerate_by_length(p.e, L)):
        for w0 in layer:
            for k in (-1, 0, 1):
                if ell >= L:
                    boundary_skipped += 1
                    continue
                u = ExtendedWeylElement(k, w0)
                su = multiply(s, u)
                cu = psi0_coefficient(u.length(), u.k, p)
                csu = psi0_coefficient(su.length(), su.k, p)
                if su.length() == u.length() + 1:
                    lhs = q1 * csu
                else:
                    lhs = csu + (q1 - 1) * cu
                checked += 1
                if lhs != -cu:
                    failures.append({"k": u.k, "window": list(u.w0.window)})
    return EigenReport(f"generator s_{i}", checked, boundary_skipped, failures)


# -- exact linear algebra --------------------------------------------------


def mat_vec(a, v) -> tuple[Fraction, ...]:
    return tuple(
        sum((a[i][j] * v[j] for j in range(len(v))), Fraction(0))
        for i in range(len(a))
    )


# -- finite groups -----------------------------------------------------------


def inverse_by_search(rep, i: int) -> int:
    ident = mat_identity(rep.dimension)
    return next(j for j, m in enumerate(rep.matrices) if mat_mul(rep.matrices[i], m) == ident)


def sign_by_inversions(perm: tuple[int, ...]) -> int:
    pairs = itertools.combinations(perm, 2)
    return (-1) ** sum(a > b for a, b in pairs)


def commutant_dimension(rep) -> int:
    """Dimension over the rationals of the matrices M with rho(g) M = M rho(g).

    A matrix commutes with every rho(g) iff it commutes with the
    generator images, so only those give conditions.
    """
    d = rep.dimension
    rows: list[list[Fraction]] = []
    for g in (rep.matrices[s] for s in rep.generators):
        # rows of g*M - M*g = 0 as linear conditions on the d*d unknowns M
        for i in range(d):
            for j in range(d):
                row = [Fraction(0)] * (d * d)
                for k in range(d):
                    row[k * d + j] += g[i][k]
                    row[i * d + k] -= g[k][j]
                rows.append(row)
    _, pivots = rref(rows)
    return d * d - len(pivots)


def mutate(monkeypatch, fn, edits, *homes):
    """Patch fn with its own source, edited, in each of homes.

    Each (old, new) pair must occur exactly once in the source, so a
    test fails if the text it mutates moves.  The edited function reads
    the globals of fn's own module.
    """
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = {}
    exec(source, fn.__globals__, namespace)
    for home in homes:
        monkeypatch.setattr(home, fn.__name__, namespace[fn.__name__])


def wrong_pi_power(monkeypatch):
    """Make ``HeckeAlgebra.product`` relabel a left peel's pi**m x as
    pi**-m x, a fault that breaks the pi relations."""
    mutate(monkeypatch, HeckeAlgebra.product, [("(k + m, w)", "(k - m, w)")], HeckeAlgebra)
