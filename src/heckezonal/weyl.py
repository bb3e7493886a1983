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
``enumerate_by_length``.  Both element types are slotted
:class:`~heckezonal.scalars.Value` types.

Only this module edits windows, and each step by a simple reflection is
written once: ``_right_steps(e)[j]`` maps the window of w to that of
w * s_j, ``_right_step`` gives it with the right-descent test, and
``_left_step`` gives the window of s_j * w with the left-descent test.
``_conjugate_window`` gives the window of pi**k w pi**-k, which
``conjugate_by_pi`` wraps.  ``reduced_word`` alone edits an inverse
window in place, as it is the hot path of every Hecke product.

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
import operator
from itertools import combinations
from math import comb

from .scalars import Value

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
    "w0_count",
    "enumeration_cost",
]

# the most elements of W0 one run may hold: the command line compares each
# entry's declared cost with it first, and enumerate_by_length stops at it
ENUM_CAP = 1_000_000
# the most slots (window entries, perm entries, table entries) one run may
# hold, so a large rank is capped by memory and not by the element count
SLOT_CAP = 10 * ENUM_CAP


class EnumerationCapExceeded(RuntimeError):
    """Enumeration would exceed the element cap ``ENUM_CAP``."""


class AffinePermutation(Value):
    """An element of W0: a zero-shift affine permutation in window notation."""

    __slots__ = _fields = ("e", "window")

    def __init__(self, e: int, window: tuple[int, ...]):
        _set_e(self, e)
        _set_window(self, window)
        self.__post_init__()

    def __post_init__(self):
        # the checks of __init__, a method of their own that the
        # benchmark's tracer and the tests can wrap
        e = self.e
        if e < 2:
            raise ValueError("rank e must be at least 2 (W0 is trivial below)")
        if len(self.window) != e:
            raise ValueError("window must have exactly e entries")
        residues = sorted([((v - 1) % e) + 1 for v in self.window])
        if residues != list(range(1, e + 1)):
            raise ValueError("window residues mod e must permute 1..e")
        if sum(self.window) != e * (e + 1) // 2:
            raise ValueError("window shift sum must be zero (not in W0)")

    @classmethod
    def _raw(cls, e: int, window: tuple[int, ...]) -> "AffinePermutation":
        """Wrap a window already known to lie in W0, unchecked."""
        self = object.__new__(cls)
        _set_e(self, e)
        _set_window(self, window)
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
        return AffinePermutation._raw(self.e, tuple(_inverse_window(self.e, self.window)))

    def length(self) -> int:
        """Coxeter length, via the affine inversion count."""
        e, total = self.e, 0
        for a, b in combinations(self.window, 2):
            total += abs((b - a) // e)
        return total

    def has_left_descent(self, i: int) -> bool:
        """True iff l(s_i * self) = l(self) - 1: the flag of ``_left_step``."""
        return _left_step(self.window, i, self.e)[1]

    def reduced_word(self) -> list[int]:
        """A reduced word [i_1, ..., i_l] with self = s_{i_1} ... s_{i_l}.

        Each letter is the lowest-index left descent of what is left.  As
        (s_i w)**-1 = w**-1 s_i, the inverse window is built once and each
        letter swaps two of its slots; no other element is built.  The
        tests and swaps are ``_right_step``'s, written in place, as this
        is the product's hot path.
        """
        e = self.e
        inv = _inverse_window(e, self.window)
        done = list(range(1, e + 1))
        word: list[int] = []
        while inv != done:
            if inv[e - 1] - e > inv[0]:
                i = 0
                inv[0], inv[e - 1] = inv[e - 1] - e, inv[0] + e
            else:
                i = 1
                while inv[i - 1] < inv[i]:
                    i += 1
                inv[i - 1], inv[i] = inv[i], inv[i - 1]
            word.append(i)
        return word


_set_e = AffinePermutation.e.__set__
_set_window = AffinePermutation.window.__set__


def _inverse_window(e: int, window: tuple[int, ...]) -> list[int]:
    """The window of the inverse of the W0 element with this window."""
    # value v in slot j: w**-1(t) = j + t - v for t = v mod e in 1..e
    inv = [0] * e
    for j, v in enumerate(window, start=1):
        r = (v - 1) % e
        inv[r] = j + r + 1 - v
    return inv


@functools.lru_cache(maxsize=None)
def _right_steps(e: int) -> tuple:
    """Entry j maps the window of a W0 element w to the window of w * s_j.

    (w s_j)(x) = w(s_j(x)): for j >= 1 slots j and j+1 swap, and for
    j = 0 slot 1 gets w(0) = w(e) - e and slot e gets w(e+1) = w(1) + e.
    """
    def wrap(w: tuple[int, ...]) -> tuple[int, ...]:
        return (w[-1] - e, *w[1:-1], w[0] + e)

    # each getter lists all e slots, about e**2 in the table; the lists
    # are copies of one tuple, so they share its index ints
    order, swaps = tuple(range(e)), []
    for j in range(1, e):
        slots = list(order)
        slots[j - 1], slots[j] = j, j - 1
        swaps.append(operator.itemgetter(*slots))
    return (wrap, *swaps)


def _steps_slots(e: int) -> int:
    # what _right_steps(e) holds for the process's life; each builder counts it
    return e * (e - 1)


def _left_step(w: tuple[int, ...], j: int, e: int) -> tuple[tuple[int, ...], bool]:
    """The window of s_j * w for the window w, and whether l(s_j w) = l(w) - 1.

    s_j raises the value congruent to j mod e, at slot a, by 1 and lowers
    the one congruent to j + 1, at slot b, by 1.  The descent test
    w**-1(j) > w**-1(j + 1) reads a - w[a] > b - w[b] + 1, as value v in
    slot a (from 0) gives w**-1(v + m*e) = a + 1 + m*e.
    """
    residues = [(v - j) % e for v in w]
    a, b = residues.index(0), residues.index(1)
    edited = list(w)
    edited[a] += 1
    edited[b] -= 1
    return tuple(edited), a - w[a] > b - w[b] + 1


def _right_step(w: tuple[int, ...], j: int, e: int) -> tuple[tuple[int, ...], bool]:
    """The window of w * s_j for the window w, and whether l(w s_j) = l(w) - 1.

    The descent test is w(j) > w(j + 1), read from two slots; at j = 0 it
    is w(0) = w(e) - e > w(1).
    """
    descent = w[-1] - e > w[0] if j == 0 else w[j - 1] > w[j]
    return _right_steps(e)[j](w), descent


@functools.lru_cache(maxsize=None)
def _simple(e: int, i: int) -> AffinePermutation:
    """The simple affine permutation s_i as an element of W0, one per (e, i)."""
    if not 0 <= i <= e - 1:
        raise ValueError(f"generator index {i} out of range 0..{e - 1}")
    return AffinePermutation._raw(e, _right_steps(e)[i](tuple(range(1, e + 1))))


class ExtendedWeylElement(Value):
    """Canonical form pi**k * w0 of an extended affine Weyl group element."""

    __slots__ = _fields = ("k", "w0")

    def __init__(self, k: int, w0: AffinePermutation):
        _set_k(self, k)
        _set_w0(self, w0)

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
        return cls(k, AffinePermutation(e, tuple([v + k for v in full])))

    def full_window(self) -> tuple[int, ...]:
        """Window of the underlying bijection, (pi**k w0)(x) = w0(x) - k."""
        return tuple([v - self.k for v in self.w0.window])

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


_set_k = ExtendedWeylElement.k.__set__
_set_w0 = ExtendedWeylElement.w0.__set__


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

    The recursion runs on inverse windows.  As (s_i w)**-1 = w**-1 s_i,
    w has a left descent at i iff its inverse has a right one, and the
    inverse window of s_i w is the right step of that of w: both come
    from ``_right_step``.  Words are listed by first letter, lowest
    first, then recursively by the rest.
    """
    e = w0.e
    cache: dict[tuple[int, ...], list[list[int]]] = {tuple(range(1, e + 1)): [[]]}

    def walk(inv: tuple[int, ...]) -> list[list[int]]:
        words = cache.get(inv)
        if words is not None:
            return words
        words = []
        for i in range(e):
            stepped, descent = _right_step(inv, i, e)
            if descent:
                words.extend([i] + tail for tail in walk(stepped))
        cache[inv] = words
        return words

    return walk(w0.inverse().window)


@functools.lru_cache(maxsize=None)
def _identity(e: int) -> ExtendedWeylElement:
    """The identity of rank e, validated once per rank."""
    return ExtendedWeylElement.identity(e)


def random_element(e: int, rng) -> ExtendedWeylElement:
    """pi**k times 0..4 generators, all drawn from the random.Random rng."""
    w = _identity(e)
    for _ in range(rng.randrange(0, 5)):
        w = multiply(generator(e, rng.randrange(e)), w)
    # pi**k w is x -> w(x) - k; it enters through the validating constructor,
    # so an invalid window from the trusted product raises here, not in a check
    k = rng.randrange(-1, 2)
    return ExtendedWeylElement.from_full_window(e, tuple([v - k for v in w.full_window()]))


def enumerate_by_length(e: int, max_length: int) -> list[list[AffinePermutation]]:
    """Layers of W0 grouped by length, from a breadth-first search.

    Layer l holds every w0 of length exactly l, each once, sorted by
    window, so the output is independent of hash or visit order.  The
    search multiplies by generators only and never consults length(),
    which keeps it usable as an independent distance oracle.

    It runs on raw window tuples and steps by right multiplication,
    w -> w s_i, through the table ``_right_steps(e)``.  As
    l(w s) = l(w) +- 1, the Cayley graph is bipartite: a
    neighbour of layer l lies in layer l - 1 or l + 1, so each candidate
    is tested against the layer below and the growing frontier only.
    The cap is the module constant ``ENUM_CAP``, read at call time, and
    counts every element enumerated as it joins; it is a backstop, as
    the command line counts the elements before it enumerates.  The
    sorted layers are wrapped through ``AffinePermutation._raw`` at the
    end.

    >>> [len(layer) for layer in enumerate_by_length(3, 4)]
    [1, 3, 6, 9, 12]
    """
    if max_length < 0:
        raise ValueError("max_length must be nonnegative")
    cap = ENUM_CAP
    identity = AffinePermutation.identity(e).window
    below, here = set(), {identity}
    layers = [[identity]]
    total = 1
    for _ in range(max_length):
        # fetched per layer, so L = 0 builds no table at a large rank
        steps, frontier = _right_steps(e), set()
        for w in layers[-1]:
            for step in steps:
                u = step(w)
                if u not in below and u not in frontier:
                    frontier.add(u)
                    if total + len(frontier) > cap:
                        raise EnumerationCapExceeded(
                            f"enumeration cap exceeded (cap of {cap} elements)"
                        )
        total += len(frontier)
        below, here = here, frontier
        layers.append(sorted(frontier))
    wrap = AffinePermutation._raw
    return [[wrap(e, w) for w in layer] for layer in layers]


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


def enumeration_cost(e: int, L: int) -> dict:
    """What ``enumerate_by_length(e, L)`` holds: ``w0_count`` elements, a
    window of e slots each, and from L >= 1 the table ``_right_steps(e)``."""
    n = w0_count(e, L, min(ENUM_CAP, SLOT_CAP // e))
    return {"elements": n, "slots": n * e + (_steps_slots(e) if L else 0)}


def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """One-line composition (p o q)(i) = p(q(i))."""
    return tuple([p[i - 1] for i in q])


def conjugate_by_pi(w0: AffinePermutation, k: int) -> AffinePermutation:
    """pi**k * w0 * pi**-k, again in W0; preserves length.  At k = 0 mod e
    it is w0 itself."""
    win = w0.window
    out = _conjugate_window(win, k, w0.e)
    return w0 if out is win else AffinePermutation._raw(w0.e, out)


def _conjugate_window(win: tuple[int, ...], k: int, e: int) -> tuple[int, ...]:
    """The window of pi**k * w * pi**-k for the window win of w in W0.

    It is w(i + k) - k for i = 1..e: with r = k mod e, win rotated left
    by r slots, the r wrapped values raised by e, and every value lowered
    by r, added slot by slot in one ``map``.  At r = 0 it is win itself.
    """
    r = k % e
    if not r:
        return win
    return tuple(map(operator.add, win[r:] + win[:r], (-r,) * (e - r) + (e - r,) * r))
