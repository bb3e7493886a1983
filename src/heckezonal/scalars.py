"""Exact scalar arithmetic shared by every algebra module.

Two interchangeable coefficient modes:

* numeric mode: plain `fractions.Fraction` values (arbitrary precision,
  always reduced, positive denominator);
* generic mode: :class:`LaurentPoly`, a one-variable Laurent polynomial
  with integer or rational coefficients, for verifying identities at a
  formal unit parameter.

Both modes support ``+``, ``-``, ``*``, integer ``**`` and exact equality,
so the algebra modules are written against ordinary Python arithmetic and
stay agnostic of the mode.  No floating point is used anywhere.

A Laurent coefficient has one canonical form: an ``int`` when its value
is integral, else a ``Fraction`` with denominator > 1.  At generic q1 the
Hecke algebra's structure constants lie in Z[q, q**-1], so most
coefficients are ints and skip the gcd of each ``Fraction`` operation.
No float can enter: the constructor takes only ints and Fractions, and
``inverse`` and negative monomial powers divide a ``Fraction``.

>>> q = LaurentPoly.variable()
>>> q * q.inverse() == 1
True
>>> (-q.inverse()) ** 3 == LaurentPoly.term(-1, -3)
True
>>> (q + 1).evaluate(Fraction(4))
Fraction(5, 1)
>>> (2 * q.inverse()).inverse().coefficients()
{1: Fraction(1, 2)}
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

__all__ = [
    "ExactScalar",
    "LaurentPoly",
    "NonInvertibleError",
    "scalar_inverse",
    "scalar_power",
    "format_rational",
    "parse_rational",
]

class NonInvertibleError(ArithmeticError):
    """Inversion of a scalar that is not a unit ("NonInvertible")."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _canonical(c):
    """The canonical form of an int or Fraction c: an ``int`` (never a
    ``bool``) when c is integral, else c itself."""
    return c.numerator if c.denominator == 1 else c


class LaurentPoly:
    """Laurent polynomial ``sum c_n * x**n`` with integer or rational
    coefficients.

    Invariant: ``_coeffs`` maps ``int`` exponents to nonzero coefficients
    in canonical form (an ``int``, or a ``Fraction`` with denominator > 1),
    so the zero polynomial is the empty dict and equal polynomials have
    identical dicts.  The public constructor establishes it from
    int/Fraction input and rejects anything else, floats included; the
    arithmetic results keep it through ``_canonical`` and are built
    through :meth:`_raw`, which trusts it.  Division happens only on a
    ``Fraction`` (``inverse``, negative monomial powers), so no float is
    ever formed.

    Instances are immutable by convention: no method mutates ``self``.
    Every instance is in the same single variable, printed as ``q``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean: dict[int, int | Fraction] = {}
        for n, c in (coeffs or {}).items():
            c = _canonical(_as_fraction(c))
            if c:
                clean[int(n)] = c
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def _raw(cls, clean: dict[int, int | Fraction]) -> "LaurentPoly":
        """Wrap a dict that already satisfies the invariant, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "_coeffs", clean)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def variable(cls) -> "LaurentPoly":
        return cls({1: 1})

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def term(cls, c, n: int) -> "LaurentPoly":
        return cls({n: c})

    # -- inspection ---------------------------------------------------

    def coefficients(self) -> dict[int, int | Fraction]:
        """Exponent -> nonzero coefficient, each in canonical form."""
        return dict(self._coeffs)

    @property
    def is_unit(self) -> bool:
        """True iff the polynomial is a nonzero monomial."""
        return len(self._coeffs) == 1

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        coeffs = dict(self._coeffs)
        for n, c in other._coeffs.items():
            c += coeffs.get(n, 0)
            if c:
                coeffs[n] = _canonical(c)
            else:
                del coeffs[n]
        return LaurentPoly._raw(coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        # negation keeps an int an int and a denominator > 1 as it is
        return LaurentPoly._raw({n: -c for n, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly._raw({})
            other = _canonical(other)  # an integral Fraction multiplies as an int
            return LaurentPoly._raw({n: _canonical(c * other) for n, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        coeffs: dict[int, int | Fraction] = {}
        for n1, c1 in self._coeffs.items():
            for n2, c2 in other._coeffs.items():
                n = n1 + n2
                coeffs[n] = coeffs.get(n, 0) + c1 * c2
        return LaurentPoly._raw({n: _canonical(c) for n, c in coeffs.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if self.is_unit:
            ((m, c),) = self._coeffs.items()
            return LaurentPoly._raw({m * n: _canonical(c**n if n >= 0 else Fraction(c) ** n)})
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentPoly._raw({0: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        if not self.is_unit:
            raise NonInvertibleError(
                "NonInvertible: only monomials are units in the Laurent ring"
            )
        ((n, c),) = self._coeffs.items()
        return LaurentPoly._raw({-n: _canonical(1 / Fraction(c))})

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # dicts compare values, and 3 == Fraction(3): no need to normalise
            return self._coeffs == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __bool__(self):
        """False exactly for the zero polynomial, the empty dict."""
        return bool(self._coeffs)

    def __hash__(self):
        # hash(3) == hash(Fraction(3)), so the hash is that of the values
        return hash(frozenset(self._coeffs.items()))

    # -- evaluation / output ------------------------------------------

    def evaluate(self, x) -> Fraction:
        """Exact substitution of the variable by a rational.

        ``x = 0`` is rejected when negative exponents are present.
        """
        x = _as_fraction(x)
        if x == 0 and any(n < 0 for n in self._coeffs):
            raise ZeroDivisionError(
                "cannot evaluate at 0: negative exponents present"
            )
        total = Fraction(0)
        for n, c in self._coeffs.items():
            total += c * x**n
        return total

    def __repr__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for n, c in sorted(self._coeffs.items(), reverse=True):
            if n == 0:
                mono = str(c)
            else:
                head = "" if c == 1 else "-" if c == -1 else f"{c}*"
                mono = f"{head}q" if n == 1 else f"{head}q^{n}"
            parts.append(mono)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


ExactScalar = Union[Fraction, LaurentPoly]


# -- mode-agnostic helpers --------------------------------------------


def scalar_inverse(a):
    """Inverse of a unit; raises :class:`NonInvertibleError` otherwise."""
    if isinstance(a, LaurentPoly):
        return a.inverse()
    a = _as_fraction(a)
    if a == 0:
        raise NonInvertibleError("NonInvertible: zero has no inverse")
    return 1 / a


def scalar_power(a, n: int):
    """``a ** n`` for any integer n, negative powers through the inverse."""
    if n < 0:
        return scalar_inverse(a) ** (-n)
    if not isinstance(a, LaurentPoly):
        a = _as_fraction(a)
    return a**n


# -- serialization ----------------------------------------------------


def format_rational(x) -> str:
    """Render as "num/den", always including the denominator."""
    x = _as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Parse "num/den" or a bare integer string."""
    return Fraction(s.strip())


if __name__ == "__main__":
    import doctest

    doctest.testmod()
