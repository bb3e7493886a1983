"""Exact scalar arithmetic shared by every algebra module.

Two interchangeable coefficient modes:

* numeric mode: exact rationals.  A sum is a plain `fractions.Fraction`
  (arbitrary precision, always reduced, positive denominator); a signed
  power of q0, the form of every q-power, volume and coefficient value,
  is a :class:`Monomial`, which multiplies by adding exponents and never
  builds the integer it stands for;
* generic mode: :class:`LaurentPoly`, a one-variable Laurent polynomial
  with integer or rational coefficients, for verifying identities at a
  formal unit parameter.

All forms support ``+``, ``-``, ``*``, integer ``**`` and exact equality,
so the algebra modules are written against ordinary Python arithmetic and
stay agnostic of the mode.  A monomial mixed with an int, a Fraction or a
monomial of another base computes on exact Fractions.  No floating point
is used anywhere.

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
>>> -Monomial(2, 1, 3) / Monomial(2, 1, 5) == Fraction(-1, 4)
True
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "ExactScalar",
    "LaurentPoly",
    "Monomial",
    "NonInvertibleError",
    "scalar_inverse",
    "scalar_power",
    "format_rational",
    "json_value",
    "parse_rational",
]

class NonInvertibleError(ArithmeticError):
    """Inversion of a scalar that is not a unit ("NonInvertible")."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Monomial):
        return x.fraction()
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _canonical(c):
    """The canonical form of an int or Fraction c: an ``int`` (never a
    ``bool``) when c is integral, else c itself."""
    return c.numerator if c.denominator == 1 else c


class Value:
    """Base of the immutable value types, whose fields ``_fields`` names.

    Values are equal when their types and fields are, hash as the tuple
    of their fields and print as ``Class(field=value, ...)``.  Every
    write raises: a slotted value's constructor writes its slots through
    their member descriptors, bound once below the class, and
    :meth:`__init__` alone writes the fields of a value with an instance
    dict, where ``cached_property`` may add derived entries later.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        """Fill the instance dict with ``_fields`` in order, the first ones
        by position and the rest by name; a missing, extra or repeated
        field raises ``TypeError``."""
        rest = self._fields[len(args):]
        if len(args) > len(self._fields) or kwargs.keys() != set(rest):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        vars(self).update(zip(self._fields, args))
        vars(self).update([(name, kwargs[name]) for name in rest])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({args})"

    def _json(self, *names) -> dict:
        """The attributes ``names`` as a JSON-ready dict, each through
        :func:`json_value`."""
        return {name: json_value(getattr(self, name)) for name in names}


class LaurentPoly(Value):
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

    A :class:`Value` for its write guards only: equality, hash and repr
    are its own.  Every instance is in the same single variable, printed
    as ``q``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean: dict[int, int | Fraction] = {}
        for n, c in (coeffs or {}).items():
            c = _canonical(_as_fraction(c))
            if c:
                clean[int(n)] = c
        _set_coeffs(self, clean)

    @classmethod
    def _raw(cls, clean: dict[int, int | Fraction]) -> "LaurentPoly":
        """Wrap a dict that already satisfies the invariant, unchecked."""
        self = object.__new__(cls)
        _set_coeffs(self, clean)
        return self

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
        # the exact type first: a polynomial would pay Fraction's ABC
        # instance check on every product
        if type(other) is not LaurentPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return LaurentPoly._raw({})
            other = _canonical(other)  # an integral Fraction multiplies as an int
            return LaurentPoly._raw({n: _canonical(c * other) for n, c in self._coeffs.items()})
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
        if type(other) is LaurentPoly:
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            # dicts compare values, and 3 == Fraction(3): no need to normalise
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __bool__(self):
        """False exactly for the zero polynomial, the empty dict."""
        return bool(self._coeffs)

    def __hash__(self):
        # a polynomial equal to an int or Fraction hashes as it: the zero
        # polynomial as 0, a constant as its coefficient
        coeffs = self._coeffs
        if coeffs.keys() <= {0}:
            return hash(coeffs.get(0, 0))
        # hash(3) == hash(Fraction(3)), so the hash is that of the values
        return hash(frozenset(coeffs.items()))

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


_set_coeffs = LaurentPoly._coeffs.__set__


def _exact(x):
    """x as an int or a Fraction, a monomial as its Fraction, and None for
    any other type."""
    if isinstance(x, Monomial):
        return x.fraction()
    return x if isinstance(x, (int, Fraction)) else None


class Monomial(Value):
    """The numeric-mode unit ``sign * base**exp``, for an int base >= 2, a
    sign of 1 or -1 and any int exp.

    Two monomials of one base multiply and divide by adding and
    subtracting exponents, and are equal exactly when their (sign, exp)
    pairs are, since base >= 2.  With an int, a Fraction or a monomial of
    another base, every operation runs on :meth:`fraction`, the exact
    value, so a mixed result is the exact Fraction and never a rounded
    one; the product with 1 is the monomial itself.  Equality and hash
    agree with that Fraction.
    """

    __slots__ = _fields = ("base", "sign", "exp")

    def __init__(self, base: int, sign: int = 1, exp: int = 1):
        if type(base) is not int or type(exp) is not int:
            raise TypeError("a monomial has an int base and an int exponent")
        if base < 2 or sign not in (1, -1):
            raise ValueError("a monomial is +1 or -1 times a power of an int base >= 2")
        _set_base(self, base)
        _set_sign(self, sign)
        _set_exp(self, exp)

    def fraction(self) -> Fraction:
        """The exact value, built only for printing and mixed arithmetic."""
        if self.exp >= 0:
            return Fraction(self.sign * self.base**self.exp)
        return Fraction(self.sign, self.base**-self.exp)

    def __mul__(self, other):
        if type(other) is Monomial and other.base == self.base:
            return _monomial(self.base, self.sign * other.sign, self.exp + other.exp)
        other = _exact(other)
        if other is None:
            return NotImplemented
        return self if other == 1 else self.fraction() * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Monomial and other.base == self.base:
            return _monomial(self.base, self.sign * other.sign, self.exp - other.exp)
        other = _exact(other)
        return NotImplemented if other is None else self.fraction() / other

    def __rtruediv__(self, other):
        other = _exact(other)
        return NotImplemented if other is None else other / self.fraction()

    def __pow__(self, n: int):
        if type(n) is not int:
            return NotImplemented
        return _monomial(self.base, -1 if self.sign < 0 and n & 1 else 1, self.exp * n)

    def __neg__(self):
        return _monomial(self.base, -self.sign, self.exp)

    def inverse(self) -> "Monomial":
        return _monomial(self.base, self.sign, -self.exp)

    def __add__(self, other):
        other = _exact(other)
        return NotImplemented if other is None else self.fraction() + other

    __radd__ = __add__

    def __sub__(self, other):
        other = _exact(other)
        return NotImplemented if other is None else self.fraction() - other

    def __rsub__(self, other):
        other = _exact(other)
        return NotImplemented if other is None else other - self.fraction()

    def __eq__(self, other):
        if type(other) is Monomial and other.base == self.base:
            return self.sign == other.sign and self.exp == other.exp
        other = _exact(other)
        return NotImplemented if other is None else self.fraction() == other

    def __hash__(self):
        return hash(self.fraction())


_set_base = Monomial.base.__set__
_set_sign = Monomial.sign.__set__
_set_exp = Monomial.exp.__set__


def _monomial(base: int, sign: int, exp: int) -> Monomial:
    """A monomial of fields already known to be valid, unchecked."""
    m = object.__new__(Monomial)
    _set_base(m, base)
    _set_sign(m, sign)
    _set_exp(m, exp)
    return m


# numeric mode's two forms and generic mode's one
ExactScalar = Fraction | Monomial | LaurentPoly


# -- mode-agnostic helpers --------------------------------------------


def scalar_inverse(a):
    """Inverse of a unit; raises :class:`NonInvertibleError` otherwise."""
    if isinstance(a, (LaurentPoly, Monomial)):
        return a.inverse()
    a = _as_fraction(a)
    if a == 0:
        raise NonInvertibleError("NonInvertible: zero has no inverse")
    return 1 / a


def scalar_power(a, n: int):
    """``a ** n`` for any integer n, negative powers through the inverse."""
    if n < 0:
        return scalar_inverse(a) ** (-n)
    if not isinstance(a, (LaurentPoly, Monomial)):
        a = _as_fraction(a)
    return a**n


# -- serialization ----------------------------------------------------


def format_rational(x) -> str:
    """Render as "num/den", always including the denominator."""
    x = _as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


def json_value(x):
    """x as a report prints it: a Fraction as "num/den", any other value
    (an int, a bool, None, a list or a dict) unchanged."""
    return format_rational(x) if isinstance(x, Fraction) else x


def parse_rational(s: str) -> Fraction:
    """Parse "num/den" or a bare integer string."""
    return Fraction(s.strip())

