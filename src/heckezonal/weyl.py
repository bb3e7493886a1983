"""Extended affine Weyl group of the e-node cyclic (affine type A) diagram.

Elements are affine permutations in window notation: bijections w of the
integers satisfying w(x + e) = w(x) + e, stored through the window
[w(1), ..., w(e)].  Those with zero shift sum form the affine Weyl group
W0, a Coxeter group on the generators s_0, ..., s_{e-1}, where s_i for
i >= 1 swaps the values i, i+1 (mod e) and s_0 = pi * s_1 * pi**-1 for the
rotation element pi : x -> x - 1.  Every element of the extended group
W = <pi> x| W0 has the canonical form pi**k * w0, and the length of w0 is
counted by affine inversions:

    l(w) = sum over 1 <= i < j <= e of |floor((w(j) - w(i)) / e)|

Conjugation by pi lowers generator indices: pi s_i pi**-1 = s_{i-1 mod e}.

Windows are validated where they enter (``AffinePermutation(e, window)``,
``identity``, ``from_full_window``).  W0 is closed under
``compose``, ``inverse`` and ``conjugate_by_pi``, so their results and the
simple reflections skip the checks through ``AffinePermutation._raw``.
So is the extended ``multiply``, which builds its canonical form from one
``conjugate_by_pi`` and one ``compose``, and so are the layers of
``enumerate_by_length``.  That breadth-first search runs on raw window
tuples and steps by right multiplication, w * s_i, an edit of two window
slots; since l(w s_i) = l(w) +- 1 it tests each candidate against the
layer below and the frontier only, and it never calls ``length()``.

>>> s1 = generator(3, 1)
>>> s1.w0.window
(2, 1, 3)
>>> multiply(s1, s1) == ExtendedWeylElement.identity(3)
True
>>> multiply(pi_element(3), s1).length()
1
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

__all__ = [
    "AffinePermutation",
    "ExtendedWeylElement",
    "EnumerationCapExceeded",
    "generator",
    "pi_element",
    "multiply",
    "all_reduced_words",
    "enumerate_by_length",
    "conjugate_by_pi",
    "perm_compose",
    "random_element",
]

ENUM_CAP_ENV = "HECKE_MAX_ELEMS"
DEFAULT_ENUM_CAP = 1_000_000


class EnumerationCapExceeded(RuntimeError):
    """Enumeration would exceed the configured element cap."""


@dataclass(frozen=True)
class AffinePermutation:
    """An element of W0: a zero-shift affine permutation in window notation."""

    e: int
    window: tuple[int, ...]

    def __post_init__(self):
        e = self.e
        if e < 2:
            raise ValueError("rank e must be at least 2 (W0 is trivial below)")
        if len(self.window) != e:
            raise ValueError("window must have exactly e entries")
        residues = sorted(((v - 1) % e) + 1 for v in self.window)
        if residues != list(range(1, e + 1)):
            raise ValueError("window residues mod e must permute 1..e")
        if sum(self.window) != e * (e + 1) // 2:
            raise ValueError("window shift sum must be zero (not in W0)")

    @classmethod
    def _raw(cls, e: int, window: tuple[int, ...]) -> "AffinePermutation":
        """Wrap a window already known to lie in W0, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "window", window)
        return self

    @classmethod
    def identity(cls, e: int) -> "AffinePermutation":
        return cls(e, tuple(range(1, e + 1)))

    def compose(self, other: "AffinePermutation") -> "AffinePermutation":
        """Function composition self o other (other applied first)."""
        if self.e != other.e:
            raise ValueError("rank mismatch")
        e, win = self.e, self.window
        out = tuple([win[(v - 1) % e] + (v - 1) // e * e for v in other.window])
        return AffinePermutation._raw(e, out)

    def inverse(self) -> "AffinePermutation":
        # value v in slot j: self**-1(t) = j + t - v for t = v mod e in 1..e
        e = self.e
        win = [0] * e
        for j, v in enumerate(self.window, start=1):
            r = (v - 1) % e
            win[r] = j + r + 1 - v
        return AffinePermutation._raw(e, tuple(win))

    def length(self) -> int:
        """Coxeter length, via the affine inversion count."""
        e, win = self.e, self.window
        total = 0
        for i in range(e):
            for j in range(i + 1, e):
                total += abs((win[j] - win[i]) // e)
        return total

    def has_left_descent(self, i: int) -> bool:
        """True iff l(s_i * self) = l(self) - 1, for i in 0..e-1.

        Left descent at i means the value i appears after the value i+1,
        i.e. self**-1(i) > self**-1(i+1).  Value v in slot j (from 0) gives
        self**-1(v + m*e) = j + 1 + m*e; slots a and b hold the values
        congruent to i and to i+1 mod e.
        """
        e, win = self.e, self.window
        residues = [(v - i) % e for v in win]
        a, b = residues.index(0), residues.index(1)
        return a - win[a] > b - win[b] + 1

    def reduced_word(self) -> list[int]:
        """A reduced word [i_1, ..., i_l] with self = s_{i_1} ... s_{i_l}.

        Each letter is the lowest-index left descent of what is left.  As
        (s_i w)**-1 = w**-1 s_i, the inverse window is built once and each
        letter swaps two of its slots.
        """
        e = self.e
        inv = list(self.inverse().window)
        done = list(range(1, e + 1))
        word: list[int] = []
        while inv != done:
            if inv[e - 1] - e > inv[0]:
                i = 0
                inv[0], inv[e - 1] = inv[e - 1] - e, inv[0] + e
            else:
                i = next(i for i in range(1, e) if inv[i - 1] > inv[i])
                inv[i - 1], inv[i] = inv[i], inv[i - 1]
            word.append(i)
        return word


@functools.lru_cache(maxsize=None)
def _simple(e: int, i: int) -> AffinePermutation:
    """The simple affine permutation s_i as an element of W0, one per (e, i)."""
    if not 0 <= i <= e - 1:
        raise ValueError(f"generator index {i} out of range 0..{e - 1}")
    win = list(range(1, e + 1))
    if i >= 1:
        win[i - 1], win[i] = win[i], win[i - 1]
    else:
        win[0] = 0
        win[e - 1] = e + 1
    return AffinePermutation._raw(e, tuple(win))


@dataclass(frozen=True)
class ExtendedWeylElement:
    """Canonical form pi**k * w0 of an extended affine Weyl group element."""

    k: int
    w0: AffinePermutation

    def __hash__(self) -> int:
        # agrees with the generated __eq__, which compares (k, w0): the
        # window fixes e.  Product tables hash these keys on every term.
        return hash((self.k, self.w0.window))

    @property
    def e(self) -> int:
        return self.w0.e

    @classmethod
    def identity(cls, e: int) -> "ExtendedWeylElement":
        return cls(0, AffinePermutation.identity(e))

    @classmethod
    def from_full_window(cls, e: int, full: tuple[int, ...]) -> "ExtendedWeylElement":
        """Canonicalize an arbitrary-shift window into pi**k * w0."""
        shift, rem = divmod(sum(full) - e * (e + 1) // 2, e)
        if rem:
            raise ValueError("window shift sum must be a multiple of e")
        k = -shift
        return cls(k, AffinePermutation(e, tuple(v + k for v in full)))

    def full_window(self) -> tuple[int, ...]:
        """Window of the underlying bijection, (pi**k w0)(x) = w0(x) - k."""
        return tuple(v - self.k for v in self.w0.window)

    def length(self) -> int:
        """Length of the W0 part; the pi power does not contribute."""
        return self.w0.length()

    def multiply(self, other: "ExtendedWeylElement") -> "ExtendedWeylElement":
        # (pi**a u)(pi**b v) = pi**(a + b) * (pi**-b u pi**b) * v
        return ExtendedWeylElement(
            self.k + other.k, conjugate_by_pi(self.w0, -other.k).compose(other.w0)
        )

    def inverse(self) -> "ExtendedWeylElement":
        # (pi**k w0)**-1 = pi**-k * (pi**k w0**-1 pi**-k)
        return ExtendedWeylElement(-self.k, conjugate_by_pi(self.w0.inverse(), self.k))


# -- the operations of the group interface -----------------------------


def generator(e: int, i: int) -> ExtendedWeylElement:
    """The Coxeter generator s_i (i in 0..e-1) as an extended element."""
    return ExtendedWeylElement(0, _simple(e, i))


def pi_element(e: int) -> ExtendedWeylElement:
    """The rotation element pi: k = 1, w0 = identity."""
    return ExtendedWeylElement(1, AffinePermutation.identity(e))


def multiply(a: ExtendedWeylElement, b: ExtendedWeylElement) -> ExtendedWeylElement:
    return a.multiply(b)


def all_reduced_words(w0: AffinePermutation) -> list[list[int]]:
    """Every reduced word of w0, by exhaustive descent recursion.

    The recursion runs on inverse windows and reads each node's left
    descents from its window with the tests of ``reduced_word``: a descent
    at i >= 1 iff w**-1(i) > w**-1(i+1), at 0 iff w**-1(e) - e > w**-1(1).
    s_i w has the inverse window of w with those two slots swapped (and
    shifted by e for i = 0).  Words are listed by first letter, lowest
    first, then recursively by the rest.
    """
    e = w0.e
    cache: dict[tuple[int, ...], list[list[int]]] = {tuple(range(1, e + 1)): [[]]}

    def walk(inv: tuple[int, ...]) -> list[list[int]]:
        words = cache.get(inv)
        if words is not None:
            return words
        words = []
        if inv[e - 1] - e > inv[0]:
            nxt = (inv[e - 1] - e,) + inv[1 : e - 1] + (inv[0] + e,)
            words.extend([0] + tail for tail in walk(nxt))
        for i in range(1, e):
            if inv[i - 1] > inv[i]:
                nxt = inv[: i - 1] + (inv[i], inv[i - 1]) + inv[i + 1 :]
                words.extend([i] + tail for tail in walk(nxt))
        cache[inv] = words
        return words

    return walk(w0.inverse().window)


def random_element(e: int, rng) -> ExtendedWeylElement:
    """pi**k times 0..4 generators, all drawn from the random.Random rng."""
    w = ExtendedWeylElement.identity(e)
    for _ in range(rng.randrange(0, 5)):
        w = multiply(generator(e, rng.randrange(e)), w)
    # pi**k w is x -> w(x) - k; it enters through the validating constructor,
    # so an invalid window from the trusted product raises here, not in a check
    k = rng.randrange(-1, 2)
    return ExtendedWeylElement.from_full_window(e, tuple(v - k for v in w.full_window()))


def _enum_cap() -> int:
    """The element cap, read from HECKE_MAX_ELEMS (default 1,000,000)."""
    text = os.environ.get(ENUM_CAP_ENV, str(DEFAULT_ENUM_CAP))
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise ValueError(f"{ENUM_CAP_ENV}={text!r}: expected an integer >= 1")
    return int(text)


def enumerate_by_length(e: int, max_length: int) -> list[list[AffinePermutation]]:
    """Layers of W0 grouped by length, from a breadth-first search.

    Layer l holds every w0 of length exactly l, each once, sorted by
    window, so the output is independent of hash or visit order.  The
    search multiplies by generators only and never consults length(),
    which keeps it usable as an independent distance oracle.

    It runs on raw window tuples and steps by right multiplication,
    (w s_i)(x) = w(s_i(x)), which edits a copy of the window: for i >= 1
    slots i and i+1 swap, and s_0 sets slot 1 to w(e) - e and slot e to
    w(1) + e.  As l(w s) = l(w) +- 1, the Cayley graph is bipartite: a
    neighbour of layer l lies in layer l - 1 or l + 1, so each candidate
    is tested against the layer below and the growing frontier only.
    The cap comes from the environment variable HECKE_MAX_ELEMS alone
    (``_enum_cap``) and counts every element enumerated as it joins; it
    is a backstop, as the command line counts the elements before it
    enumerates.  The sorted layers are wrapped through
    ``AffinePermutation._raw`` at the end.

    >>> [len(layer) for layer in enumerate_by_length(3, 4)]
    [1, 3, 6, 9, 12]
    """
    if max_length < 0:
        raise ValueError("max_length must be nonnegative")
    cap = _enum_cap()
    identity = AffinePermutation.identity(e).window
    below, here = set(), {identity}
    layers = [[identity]]
    total = 1
    for _ in range(max_length):
        frontier = set()
        for w in layers[-1]:
            for i in range(e):
                u = list(w)
                if i:
                    u[i - 1], u[i] = w[i], w[i - 1]
                else:
                    u[0], u[-1] = w[-1] - e, w[0] + e
                u = tuple(u)
                if u not in below and u not in frontier:
                    frontier.add(u)
                    if total + len(frontier) > cap:
                        raise EnumerationCapExceeded(
                            f"enumeration cap exceeded ({ENUM_CAP_ENV}={cap})"
                        )
        total += len(frontier)
        below, here = here, frontier
        layers.append(sorted(frontier))
    wrap = AffinePermutation._raw
    return [[wrap(e, w) for w in layer] for layer in layers]


def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """One-line composition (p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def conjugate_by_pi(w0: AffinePermutation, k: int) -> AffinePermutation:
    """pi**k * w0 * pi**-k, again in W0; preserves length.

    Its window is w0(i + k) - k for i = 1..e: with r = k mod e, the window
    of w0 rotated left by r slots, the r wrapped values raised by e, and
    every value lowered by r.
    """
    e, win = w0.e, w0.window
    r = k % e
    out = [v - r for v in win[r:]] + [v + e - r for v in win[:r]]
    return AffinePermutation._raw(e, tuple(out))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
