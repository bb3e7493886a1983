"""Finite-group pairings of invariant vectors, over exact rationals.

For a finite group given as an explicit list of invertible rational
matrices and a subgroup K of it, the K-fixed subspace is cut out by the
averaging idempotent (1/|K|) sum rho(k); the dual representation acts by
transpose-inverse matrices.  When both fixed spaces are lines, the value
of the natural coordinate pairing on chosen generators is reported: for
a Gelfand pair with the representation distinguished on both sides that
value is nonzero (rescaling the generators rescales it but cannot make
it vanish).

Shipped examples are built by load_catalog() from the constructors in
this module: standard and sign representations of small symmetric
groups and the 2-dimensional representation of the dihedral group of
order 8, each with a declared subgroup and expected outcome.  The
Gelfand property of the shipped pairs is catalog metadata, not something
verified here; irreducibility is checked exactly through the commutant.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .scalars import format_rational

__all__ = [
    "FiniteRep",
    "GelfandReport",
    "fixed_space",
    "check_pairing",
    "is_irreducible",
    "symmetric_group_standard_rep",
    "symmetric_group_sign_rep",
    "dihedral8_standard_rep",
    "subgroup_fixing_last_point",
    "load_catalog",
]

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


# -- exact linear algebra ----------------------------------------------


def mat_identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # every Fraction product and sum reduces by a gcd; scaling each factor
    # to an integer matrix by the lcm of its denominators leaves integer
    # dot products and one reduction per output entry
    da = math.lcm(*(x.denominator for row in a for x in row))
    db = math.lcm(*(x.denominator for row in b for x in row))
    ia = [[x.numerator * (da // x.denominator) for x in row] for row in a]
    ib = [[x.numerator * (db // x.denominator) for x in row] for row in b]
    cols = list(zip(*ib))
    den = da * db
    return tuple(
        tuple(Fraction(sum(map(operator.mul, row, col)), den) for col in cols)
        for row in ia
    )


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns, in place on a copy."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right nullspace, exact."""
    if not a:
        return []
    echelon, pivots = rref([list(row) for row in a])
    n = len(a[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -echelon[r][fc]
        basis.append(tuple(v))
    return basis


# -- finite representations ---------------------------------------------


@dataclass(frozen=True)
class FiniteRep:
    """A finite matrix group: the full element list of one representation."""

    name: str
    dimension: int
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        d = self.dimension
        for m in self.matrices:
            if len(m) != d or any(len(row) != d for row in m):
                raise ValueError("matrix shape mismatch")
        if mat_identity(d) not in self.matrices:
            raise ValueError("identity matrix missing from the element list")

    def validate_closure(self) -> None:
        elems = set(self.matrices)
        for a in self.matrices:
            for b in self.matrices:
                if mat_mul(a, b) not in elems:
                    raise ValueError(f"{self.name}: element list not closed under product")

    def index_of(self, m: Matrix) -> int:
        return self.matrices.index(m)

    def inverse_index(self, i: int) -> int:
        ident = mat_identity(self.dimension)
        for j, m in enumerate(self.matrices):
            if mat_mul(self.matrices[i], m) == ident:
                return j
        raise ValueError("element without inverse: not a group")

    def dual_matrices(self) -> tuple[Matrix, ...]:
        """Contragredient action: transpose of the inverse element."""
        return tuple(
            mat_transpose(self.matrices[self.inverse_index(i)])
            for i in range(len(self.matrices))
        )


def averaging_projector(matrices, subgroup: list[int]) -> Matrix:
    if not subgroup:
        raise ValueError("subgroup must be nonempty")
    d = len(matrices[0])
    total = [[Fraction(0)] * d for _ in range(d)]
    for idx in subgroup:
        m = matrices[idx]
        for i in range(d):
            for j in range(d):
                total[i][j] += m[i][j]
    size = Fraction(len(subgroup))
    return tuple(tuple(x / size for x in row) for row in total)


def fixed_space(matrices, subgroup: list[int]) -> list[Vector]:
    """Basis of the subgroup-fixed subspace, via the averaging idempotent."""
    proj = averaging_projector(matrices, subgroup)
    d = len(proj)
    shifted = tuple(
        tuple(proj[i][j] - (1 if i == j else 0) for j in range(d)) for i in range(d)
    )
    return nullspace(shifted)


@dataclass(frozen=True)
class GelfandReport:
    dim_fixed: int
    dim_fixed_dual: int
    pairing: Fraction | None
    gelfand_multiplicity_ok: bool

    def to_json(self) -> dict:
        return {
            "dim_fixed": self.dim_fixed,
            "dim_fixed_dual": self.dim_fixed_dual,
            "pairing": None if self.pairing is None else format_rational(self.pairing),
            "gelfand_multiplicity_ok": self.gelfand_multiplicity_ok,
        }


def check_pairing(rep: FiniteRep, subgroup: list[int]) -> GelfandReport:
    """Fixed lines on both sides and the value of the natural pairing.

    The pairing value is reported only when both fixed spaces are
    1-dimensional; its exact value depends on the chosen generators but
    its vanishing does not.
    """
    fixed = fixed_space(rep.matrices, subgroup)
    fixed_dual = fixed_space(rep.dual_matrices(), subgroup)
    pairing = None
    if len(fixed) == 1 and len(fixed_dual) == 1:
        v, vt = fixed[0], fixed_dual[0]
        pairing = sum((a * b for a, b in zip(v, vt)), Fraction(0))
    return GelfandReport(
        dim_fixed=len(fixed),
        dim_fixed_dual=len(fixed_dual),
        pairing=pairing,
        gelfand_multiplicity_ok=len(fixed) == 1 and len(fixed_dual) == 1,
    )


def is_irreducible(rep: FiniteRep) -> bool:
    """Commutant dimension 1 over the rationals (absolute irreducibility)."""
    d = rep.dimension
    rows: list[list[Fraction]] = []
    for g in rep.matrices:
        # rows of g*M - M*g = 0 as linear conditions on the d*d unknowns M
        for i in range(d):
            for j in range(d):
                row = [Fraction(0)] * (d * d)
                for k in range(d):
                    row[k * d + j] += g[i][k]
                    row[i * d + k] -= g[k][j]
                rows.append(row)
    _, pivots = rref(rows)
    return d * d - len(pivots) == 1


# -- shipped example builders --------------------------------------------


def _perm_elements(n: int) -> list[tuple[int, ...]]:
    return sorted(itertools.permutations(range(1, n + 1)))


def _standard_matrix(sigma: tuple[int, ...], n: int) -> Matrix:
    """Action on the basis f_i = e_i - e_{i+1} of the sum-zero subspace."""

    def coords(a: int, b: int) -> list[Fraction]:
        # e_a - e_b in the f-basis
        v = [Fraction(0)] * (n - 1)
        if a < b:
            for t in range(a, b):
                v[t - 1] += 1
        elif a > b:
            for t in range(b, a):
                v[t - 1] -= 1
        return v

    cols = [coords(sigma[j - 1], sigma[j]) for j in range(1, n)]
    return tuple(tuple(cols[j][i] for j in range(n - 1)) for i in range(n - 1))


def _sign(sigma: tuple[int, ...]) -> int:
    sign = 1
    seen = set()
    for start in sigma:
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = sigma[x - 1]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def symmetric_group_standard_rep(n: int) -> FiniteRep:
    if not 2 <= n <= 5:
        raise ValueError("standard representations shipped for 2 <= n <= 5")
    mats = tuple(_standard_matrix(s, n) for s in _perm_elements(n))
    return FiniteRep(f"S{n}-standard", n - 1, mats)


def symmetric_group_sign_rep(n: int) -> FiniteRep:
    mats = tuple(((Fraction(_sign(s)),),) for s in _perm_elements(n))
    return FiniteRep(f"S{n}-sign", 1, mats)


def subgroup_fixing_last_point(n: int) -> list[int]:
    """Indices of the copy of S_{n-1} fixing n inside the sorted list."""
    elems = _perm_elements(n)
    return [i for i, s in enumerate(elems) if s[n - 1] == n]


def dihedral8_standard_rep() -> FiniteRep:
    """The 2-dimensional representation of the dihedral group of order 8."""
    r = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    s = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    elems = [mat_identity(2)]
    frontier = [mat_identity(2)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in (r, s):
                prod = mat_mul(m, g)
                if prod not in elems:
                    elems.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return FiniteRep("D8-standard", 2, tuple(sorted(elems)))


def dihedral8_reflection_subgroup(rep: FiniteRep) -> list[int]:
    s = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    return [rep.index_of(mat_identity(2)), rep.index_of(s)]


# -- catalog --------------------------------------------------------------


def load_catalog() -> list[dict]:
    """The shipped examples, built from the constructors above.

    Each item: name, rep (FiniteRep), subgroup (indices), expected
    (dims and pairing verdict).
    """
    d8 = dihedral8_standard_rep()
    return [
        {
            "name": "s3_standard_vs_s2",
            "rep": symmetric_group_standard_rep(3),
            "subgroup": subgroup_fixing_last_point(3),
            "expected": {"dim_fixed": 1, "dim_fixed_dual": 1, "nonzero_pairing": True},
        },
        {
            "name": "s3_sign_vs_s2",
            "rep": symmetric_group_sign_rep(3),
            "subgroup": subgroup_fixing_last_point(3),
            "expected": {"dim_fixed": 0, "dim_fixed_dual": 0, "nonzero_pairing": False},
        },
        {
            "name": "s4_standard_vs_s3",
            "rep": symmetric_group_standard_rep(4),
            "subgroup": subgroup_fixing_last_point(4),
            "expected": {"dim_fixed": 1, "dim_fixed_dual": 1, "nonzero_pairing": True},
        },
        {
            "name": "d8_standard_vs_reflection",
            "rep": d8,
            "subgroup": dihedral8_reflection_subgroup(d8),
            "expected": {"dim_fixed": 1, "dim_fixed_dual": 1, "nonzero_pairing": True},
        },
    ]
