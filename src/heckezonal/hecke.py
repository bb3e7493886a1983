"""The generic affine Hecke algebra H(e, q1) on the extended Weyl group.

Elements are finite formal sums sum c_w [w] over canonical-form group
elements with exact coefficients (see ``scalars.ExactScalar``).  At generic
q1 the structure constants lie in Z[q, q**-1], so products of elements
with integer Laurent coefficients stay there, and their coefficient
arithmetic is on ints; only chi(pi) brings in a rational.  Products are
computed by peeling the reduced words of one factor, letter by letter,
through the two-case generator rule, on the left

    [s_i][w] = [s_i w]                     if l(s_i w) = l(w) + 1
    [s_i][w] = q1 [s_i w] + (q1 - 1) [w]   if l(s_i w) = l(w) - 1

or on the right

    [w][s_j] = [w s_j]                     if l(w s_j) = l(w) + 1
    [w][s_j] = q1 [w s_j] + (q1 - 1) [w]   if l(w s_j) = l(w) - 1

together with [pi]**k acting by relabeling.  By default the left factor
is peeled: a term [pi**m u0] applies the letters of u0's word to the
right factor, last letter first, then relabels each [pi**k w0] to
[pi**(k + m) w0].  When the right factor has strictly fewer terms, it is
peeled instead: a term [pi**m v0] first relabels each [pi**k w0] of the
left factor to [pi**(k + m) (pi**-m w0 pi**m)], then applies the letters
of v0's word, first letter first.  Every term of the peeled factor runs
its word over the other factor's whole table, so peeling the factor with
fewer terms makes fewer passes; on a tie the left factor is peeled.

An element's table is keyed by plain ``(k, window)`` int tuples, the k
and W0 window of [pi**k w0], so products hash and compare tuples and
build no group element per term.  ``HeckeAlgebra._peel`` applies the
rule on either side.  As s_i pi**k = pi**k s_{i+k mod e}, a left letter i
maps [pi**k w0] to [pi**k s_j w0], j = i + k mod e, and a right letter
to [pi**k w0 s_i], with no shift; ``weyl._left_step`` and
``weyl._right_step`` give the edited window and the case, a descent test
read from two slots, so no length is computed.
q1 - 1 is computed once per algebra, not once per descending term.  A
term of the peeled factor with coefficient 1 (every term of [pi] or of a
sum of basis elements) adds its peeled terms unscaled, and the first
term's peeled table, a new dict, becomes the result, so [pi] * h copies
h's table once.  The same table comes out on either path:

>>> A = HeckeAlgebra(3, LaurentPoly.variable())
>>> one, s1 = A.one(), A.generator_basis(1)
>>> ((one + s1) * s1).coeffs  # [s_1] has fewer terms: peeled on the right
{(0, (2, 1, 3)): q, (0, (1, 2, 3)): q}
>>> (one * s1 + s1 * s1).coeffs  # one term each: peeled on the left
{(0, (2, 1, 3)): q, (0, (1, 2, 3)): q}

Group elements are converted only at the boundary: ``element`` and
``basis`` take ``ExtendedWeylElement``s, check their rank and store their
keys; ``coefficient`` looks an element's key up; ``support`` wraps each
key back into an element.  ``product`` checks only that both factors
belong to its algebra, since every term it adds has rank e, a nonzero
coefficient times a nonzero one is nonzero, and ``_accumulate`` drops
each sum that cancels.  This recursion is the
ground truth; verify_presentation() replays the defining relations
through it as exact identities.
"""

from __future__ import annotations

import random

from .scalars import ExactScalar, LaurentPoly, Value, scalar_power
from .weyl import (
    AffinePermutation,
    ExtendedWeylElement,
    _conjugate_window,
    _left_step,
    _right_step,
    _steps_slots,
    generator,
    pi_element,
    random_element,
)

__all__ = [
    "HeckeAlgebra",
    "HeckeElement",
    "chi",
    "PresentationReport",
    "verify_presentation",
    "presentation_cost",
]


class HeckeAlgebra:
    """The Hecke algebra of rank e with deformation parameter q1.

    q1 may be a LaurentPoly variable (generic mode) or an exact rational
    (numeric mode): a Fraction, or the :class:`~heckezonal.scalars.Monomial`
    power of q0 that ``SphericalParams.numeric(...).algebra()`` passes.
    Elements of algebras with different (e, q1) never mix.
    """

    def __init__(self, e: int, q1: ExactScalar):
        if e < 2:
            raise ValueError("rank e must be at least 2")
        self.e = e
        self.q1 = q1
        self._q1_minus_1 = q1 - 1

    def __eq__(self, other):
        return (
            isinstance(other, HeckeAlgebra)
            and self.e == other.e
            and self.q1 == other.q1
        )

    # -- element constructors -------------------------------------------

    def element(self, coeffs: dict) -> "HeckeElement":
        """The element sum c [w] of a table keyed by ExtendedWeylElement."""
        clean = {}
        for w, c in coeffs.items():
            if w.e != self.e:
                raise ValueError("rank mismatch between element and algebra")
            if c:
                clean[(w.k, w.w0.window)] = c
        return HeckeElement(self, clean)

    def zero(self) -> "HeckeElement":
        return HeckeElement(self, {})

    def one(self) -> "HeckeElement":
        return self.basis(ExtendedWeylElement.identity(self.e))

    def basis(self, w: ExtendedWeylElement) -> "HeckeElement":
        """The basis element [w]."""
        if w.e != self.e:
            raise ValueError("rank mismatch")
        return HeckeElement(self, {(w.k, w.w0.window): 1})

    def generator_basis(self, i: int) -> "HeckeElement":
        return self.basis(generator(self.e, i))

    # -- multiplication ---------------------------------------------------

    def _peel(self, letters, coeffs: dict, step, shift: int) -> dict:
        """Apply [s_i] for each letter i in turn to a coefficient table by
        the two-case rule.  A term [pi**k w0] is edited at
        j = i + shift * k mod e by ``step(win, j, e)``, which gives the
        edited window and the descent test: ``weyl._left_step`` with
        shift 1 multiplies on the left, ``weyl._right_step`` with shift 0
        on the right."""
        e, q1, q1_minus_1 = self.e, self.q1, self._q1_minus_1
        for i in letters:
            out: dict = {}
            for key, c in coeffs.items():
                k, win = key
                edited, descent = step(win, (i + shift * k) % e, e)
                if descent:
                    _accumulate(out, (k, edited), q1 * c)
                    _accumulate(out, key, q1_minus_1 * c)
                else:
                    _accumulate(out, (k, edited), c)
            coeffs = out
        return coeffs

    def product(self, h1: "HeckeElement", h2: "HeckeElement") -> "HeckeElement":
        """h1 * h2, by one ``_peel`` per term of the peeled factor: h1's
        words on the left, unless h2 has strictly fewer terms than h1, then
        h2's on the right, after its pi power relabels h1's terms (see the
        module docstring).  The table is wrapped unchecked."""
        a1, a2 = h1.algebra, h2.algebra
        if (a1 is not self and a1 != self) or (a2 is not self and a2 != self):
            raise ValueError("rank/mode mismatch: operands from different algebras")
        e = self.e
        right = len(h2.coeffs) < len(h1.coeffs)
        result: dict = {}
        for (m, win), cu in (h2 if right else h1).coeffs.items():
            word = AffinePermutation._raw(e, win).reduced_word()
            if right:
                # [x][pi**m v0]: relabel x to x pi**m, then peel v0's word
                acc = {(k + m, _conjugate_window(w, -m, e)): c for (k, w), c in h1.coeffs.items()}
                acc = self._peel(word, acc, _right_step, 0)
            else:
                # [pi**m u0][x]: peel u0's word, last letter first, then relabel
                acc = self._peel(reversed(word), h2.coeffs, _left_step, 1)
                acc = {(k + m, w): c for (k, w), c in acc.items()}
            unit = cu == 1
            if not result:
                # acc is a new table, never an operand's
                result = acc if unit else {w: cu * c for w, c in acc.items()}
            else:
                for w, c in acc.items():
                    _accumulate(result, w, c if unit else cu * c)
        return HeckeElement(self, result)


def _accumulate(table: dict, w, c) -> None:
    cur = table.get(w)
    new = c if cur is None else cur + c
    if new:
        table[w] = new
    else:
        table.pop(w, None)


class HeckeElement:
    """A finite formal sum over canonical-form group elements.

    ``coeffs`` maps the key ``(k, window)`` of [pi**k w0], the int k and
    the window tuple of w0, to its nonzero coefficient.  ``coefficient``
    and ``support`` speak in ``ExtendedWeylElement``s.
    """

    def __init__(self, algebra: HeckeAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = coeffs

    def coefficient(self, w: ExtendedWeylElement):
        return self.coeffs.get((w.k, w.w0.window), 0)

    def support(self) -> set[ExtendedWeylElement]:
        e = self.algebra.e
        return {ExtendedWeylElement(k, AffinePermutation._raw(e, win)) for k, win in self.coeffs}

    def __add__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise ValueError("rank/mode mismatch")
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            _accumulate(out, w, c)
        return HeckeElement(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HeckeElement(self.algebra, {w: -c for w, c in self.coeffs.items()})

    def scale(self, c) -> "HeckeElement":
        # through element, which drops the terms a zero scalar cancels
        return self.algebra.element({w: c * self.coefficient(w) for w in self.support()})

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return self.algebra.product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs


# -- the character of the generalized Steinberg module ------------------


def chi(h: HeckeElement, chi_pi: ExactScalar = 1) -> ExactScalar:
    """Linear extension of chi([pi**k w0]) = chi_pi**k * (-1)**l(w0).

    The one-dimensional module character: every generator basis element
    [s_i] goes to -1 and [pi] to the unit chi_pi (default 1, the value in
    the distinguished, odd-rank regime).
    """
    if chi_pi == 0:
        raise ValueError("chi_pi must be a unit")
    total = 0
    for w in h.support():
        sign = -1 if w.length() % 2 else 1
        total = total + h.coefficient(w) * sign * scalar_power(chi_pi, w.k)
    return total


# -- presentation verification -------------------------------------------


class PresentationReport(Value):
    _fields = ("e", "checks", "seed", "associativity_samples", "associativity_ok")

    @property
    def ok(self) -> bool:
        return self.associativity_ok and all(c["ok"] for c in self.checks)

    def to_json(self) -> dict:
        return self._json(*self._fields, "ok")


def verify_presentation(e: int, samples: int = 0, seed: int | None = None) -> PresentationReport:
    """Replay the defining relations of H(e, q1) with generic q1.

    Families (i)-(vi) are the axioms; for e = 2 families (iv)-(vi) have
    empty index ranges and are reported as vacuous.  The quadratic, braid
    and commutation relations involving [s_0] are consequences of
    (i)-(vi) and are checked as a supplementary, non-axiom family.
    Then (h0 h1) h2 = h0 (h1 h2) is tested on ``samples`` triples, each
    h a sum of two basis elements drawn by ``weyl.random_element`` from
    random.Random(seed); the default 0 checks the relations only.
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    A = HeckeAlgebra(e, LaurentPoly.variable())
    q1 = A.q1
    one = A.one()
    zero = A.zero()
    s = [A.generator_basis(i) for i in range(e)]
    p = A.basis(pi_element(e))
    p_inv = A.basis(pi_element(e).inverse())

    checks: list[dict] = []

    def run(name, description, cases, axiom=True):
        passed, failures = 0, []
        for label, lhs, rhs in cases:
            if lhs == rhs:
                passed += 1
            else:
                failures.append(label)
        count = passed + len(failures)
        check = {
            "name": name, "description": description, "cases": count,
            "passed": passed, "vacuous": count == 0,
            "axiom": axiom, "ok": not failures,
        }
        if failures:
            # the labels of the failing cases; absent on a pass
            check["failures"] = failures
        checks.append(check)

    run("i", "[pi][pi^-1] = [pi^-1][pi] = 1", [
        ("pi*pi^-1", p * p_inv, one),
        ("pi^-1*pi", p_inv * p, one),
    ])
    run("ii", "([s_i]+1)([s_i]-q1) = 0, 1 <= i <= e-1", (
        (f"i={i}", (s[i] + one) * (s[i] - q1 * one), zero)
        for i in range(1, e)
    ))
    run("iii", "[pi]^2 [s_1] = [s_{e-1}] [pi]^2", [
        ("", p * (p * s[1]), s[e - 1] * (p * p)),
    ])
    run("iv", "[pi][s_i] = [s_{i-1}][pi], 2 <= i <= e-1", (
        (f"i={i}", p * s[i], s[i - 1] * p) for i in range(2, e)
    ))
    run("v", "[s_i][s_{i+1}][s_i] = [s_{i+1}][s_i][s_{i+1}], 1 <= i <= e-2", (
        (f"i={i}", s[i] * (s[i + 1] * s[i]), s[i + 1] * (s[i] * s[i + 1]))
        for i in range(1, e - 1)
    ))
    run("vi", "[s_i][s_j] = [s_j][s_i], |i-j| >= 2", (
        (f"i={i},j={j}", s[i] * s[j], s[j] * s[i])
        for i in range(1, e)
        for j in range(i + 2, e)
    ))

    s0_cases = [("quadratic", (s[0] + one) * (s[0] - q1 * one), zero)]
    if e >= 3:
        s0_cases += [
            ("braid s0,s1", s[0] * (s[1] * s[0]), s[1] * (s[0] * s[1])),
            ("braid s0,s_{e-1}", s[0] * (s[e - 1] * s[0]), s[e - 1] * (s[0] * s[e - 1])),
        ]
    s0_cases += [
        (f"commute s0,s{i}", s[0] * s[i], s[i] * s[0]) for i in range(2, e - 1)
    ]
    run(
        "s0-consequences",
        "relations of [s_0] = [pi][s_1][pi]^-1 implied by (i)-(vi)",
        s0_cases,
        axiom=False,
    )

    rng = random.Random(seed)
    assoc_ok = True
    for _ in range(samples):
        h = [A.basis(random_element(e, rng)) + A.basis(random_element(e, rng)) for _ in range(3)]
        if (h[0] * h[1]) * h[2] != h[0] * (h[1] * h[2]):
            assoc_ok = False
    return PresentationReport(e, checks, seed, samples, assoc_ok)


def presentation_cost(e: int) -> dict:
    """What ``verify_presentation(e)`` declares: family (vi)'s (e-2)(e-3)/2
    cases of e slots, and ``weyl._right_steps(e)``, built by the generators.

    The cases are built one at a time, not held together, so this count,
    about e**3 / 2, bounds the run's time rather than its memory."""
    return {"slots": (e - 2) * (e - 3) // 2 * e + _steps_slots(e)}
