"""The generic affine Hecke algebra H(e, q1) on the extended Weyl group.

Elements are finite formal sums sum c_w [w] over canonical-form group
elements with exact coefficients (Fraction or LaurentPoly).  At generic
q1 the structure constants lie in Z[q, q**-1], so products of elements
with integer Laurent coefficients stay there, and their coefficient
arithmetic is on ints; only chi(pi) brings in a rational.  Products are
computed by peeling a reduced word of the left factor and applying the
two-case generator rule

    [s_i][w] = [s_i w]                     if l(s_i w) = l(w) + 1
    [s_i][w] = q1 [s_i w] + (q1 - 1) [w]   if l(s_i w) = l(w) - 1

together with [pi]**k acting by relabeling ([pi][w] = [pi w]).

An element's table is keyed by plain ``(k, window)`` int tuples, the k
and W0 window of [pi**k w0], so products hash and compare tuples and
build no group element per term.  As s_i pi**k = pi**k s_{i+k mod e},
each peeled letter maps a term [pi**k w0] to [pi**k s_j w0], j = i + k
mod e, and s_j w0 is an edit of two window slots: the value congruent to
j mod e, at slot a, goes up by 1, and the value congruent to j + 1, at
slot b, goes down by 1.  The case is the left-descent test of w0 at j
read from the same two slots, w0**-1(j) > w0**-1(j + 1), which is
a - win[a] > b - win[b] + 1 for 0-based slots; no length is computed.
q1 - 1 is computed once per algebra, not once per descending term.  A
term of the left factor with coefficient 1 (every term of [pi] or of a
sum of basis elements) adds its peeled terms unscaled.

Group elements are converted only at the boundary: ``element`` and
``basis`` take ``ExtendedWeylElement``s, check their rank and store their
keys; ``coefficient`` looks an element's key up; ``support`` wraps each
key back into an element.  ``product`` checks only that both factors
belong to its algebra, since every term it adds has rank e and
``_accumulate`` drops each sum that cancels.  This recursion is the
ground truth; verify_presentation() replays the defining relations
through it as exact identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .scalars import ExactScalar, LaurentPoly, scalar_power
from .weyl import (
    AffinePermutation,
    ExtendedWeylElement,
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
]


class HeckeAlgebra:
    """The Hecke algebra of rank e with deformation parameter q1.

    q1 may be a LaurentPoly variable (generic mode) or a Fraction
    (numeric mode); elements of algebras with different (e, q1) never
    mix.
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

    def _left_generator(self, i: int, coeffs: dict) -> dict:
        """Left-multiply a coefficient table by [s_i] via the two-case rule."""
        e, q1, q1_minus_1 = self.e, self.q1, self._q1_minus_1
        out: dict = {}
        for key, c in coeffs.items():
            k, win = key
            j = (i + k) % e
            # slots a and b hold the values congruent to j and j + 1 mod e
            residues = [(v - j) % e for v in win]
            a, b = residues.index(0), residues.index(1)
            edited = list(win)
            edited[a] += 1
            edited[b] -= 1
            sw = (k, tuple(edited))
            if a - win[a] > b - win[b] + 1:
                _accumulate(out, sw, q1 * c)
                _accumulate(out, key, q1_minus_1 * c)
            else:
                _accumulate(out, sw, c)
        return out

    def _left_pi_power(self, k: int, coeffs: dict) -> dict:
        # pi**k * (pi**j w0) = pi**(j + k) w0
        return {(j + k, win): c for (j, win), c in coeffs.items()}

    def product(self, h1: "HeckeElement", h2: "HeckeElement") -> "HeckeElement":
        """h1 * h2; its table is wrapped unchecked (see the module docstring)."""
        if h1.algebra != self or h2.algebra != self:
            raise ValueError("rank/mode mismatch: operands from different algebras")
        e = self.e
        result: dict = {}
        for (k, win), cu in h1.coeffs.items():
            acc = h2.coeffs
            for i in reversed(AffinePermutation._raw(e, win).reduced_word()):
                acc = self._left_generator(i, acc)
            acc = self._left_pi_power(k, acc)
            unit = cu == 1
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


@dataclass
class HeckeElement:
    """A finite formal sum over canonical-form group elements.

    ``coeffs`` maps the key ``(k, window)`` of [pi**k w0], the int k and
    the window tuple of w0, to its nonzero coefficient.  ``coefficient``
    and ``support`` speak in ``ExtendedWeylElement``s.
    """

    algebra: HeckeAlgebra
    coeffs: dict

    def coefficient(self, w: ExtendedWeylElement):
        return self.coeffs.get((w.k, w.w0.window), 0)

    def support(self) -> set[ExtendedWeylElement]:
        e = self.algebra.e
        return {ExtendedWeylElement(k, AffinePermutation._raw(e, win)) for k, win in self.coeffs}

    def __add__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if other.algebra != self.algebra:
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


@dataclass
class PresentationReport:
    e: int
    checks: list
    seed: int | None
    samples: int
    associativity_ok: bool

    @property
    def ok(self) -> bool:
        return self.associativity_ok and all(c["ok"] for c in self.checks)

    def to_json(self) -> dict:
        return {
            "e": self.e, "seed": self.seed, "ok": self.ok,
            "checks": self.checks,
            "associativity_samples": self.samples, "associativity_ok": self.associativity_ok,
        }


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
