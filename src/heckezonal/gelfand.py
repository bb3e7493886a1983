"""Finite-group pairings of invariant vectors, over exact rationals.

A representation rho of a finite permutation group G is one rational
matrix per element plus one multiplication table of G, built together by
``FiniteRep.generated``.  The table gives the identity and inverses;
``validate_closure`` checks rho(g) rho(s) = rho(g s) on element-generator
pairs, and ``is_irreducible`` computes the character norm from traces
and the table's inverses.

For a subgroup K the K-fixed subspace is cut out by the averaging
idempotent (1/|K|) sum rho(k); the dual representation acts by
transpose-inverse matrices.  When both fixed spaces are lines, the value
of the natural coordinate pairing on chosen generators is reported: for
a Gelfand pair with the representation distinguished on both sides that
value is nonzero (rescaling the generators rescales it but cannot make
it vanish).

load_catalog() ships the standard and sign representations of small
symmetric groups and the 2-dimensional representation of the dihedral
group of order 8, each with a subgroup and an expected outcome that
check_catalog() checks.  The Gelfand property of the shipped pairs is
catalog metadata, not something verified here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .scalars import format_rational
from .weyl import perm_compose

__all__ = [
    "FiniteRep",
    "GelfandReport",
    "fixed_space",
    "check_pairing",
    "is_irreducible",
    "symmetric_group_standard_rep",
    "symmetric_group_sign_rep",
    "dihedral8_standard_rep",
    "point_stabilizer",
    "load_catalog",
    "check_catalog",
]

Matrix = tuple[tuple[Fraction, ...], ...]
Perm = tuple[int, ...]
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
    """A representation rho of a permutation group G, element by element.

    ``elements`` are the permutations of G in one-line notation, sorted
    (so the identity is index 0), ``matrices[a]`` is rho(elements[a]),
    ``generators`` indexes a generating set and ``table[a][b]`` is the
    index of elements[a] o elements[b] (elements[b] applied first).
    """

    name: str
    elements: tuple[Perm, ...]
    matrices: tuple[Matrix, ...]
    generators: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = self.dimension
        for m in self.matrices:
            if len(m) != d or any(len(row) != d for row in m):
                raise ValueError("matrix shape mismatch")
        if self.matrices[0] != mat_identity(d):
            raise ValueError("the identity element must act by the identity matrix")

    @classmethod
    def generated(cls, name: str, gens: list[tuple[Perm, Matrix]]) -> "FiniteRep":
        """Close (permutation, matrix) generator pairs under products.

        Breadth first from the identity, each new element h g gets the
        matrix rho(h) rho(g); ``validate_closure`` checks that the result
        does not depend on the path.
        """
        ident = tuple(range(1, len(gens[0][0]) + 1))
        rho = {ident: mat_identity(len(gens[0][1]))}
        queue = [ident]
        for h in queue:  # appending while iterating: breadth first
            for g, m in gens:
                hg = perm_compose(h, g)
                if hg not in rho:
                    rho[hg] = mat_mul(rho[h], m)
                    queue.append(hg)
        elements = tuple(sorted(rho))
        index = {p: i for i, p in enumerate(elements)}
        table = tuple(tuple(index[perm_compose(a, b)] for b in elements) for a in elements)
        matrices = tuple(rho[p] for p in elements)
        return cls(name, elements, matrices, tuple(index[g] for g, _ in gens), table)

    @property
    def dimension(self) -> int:
        return len(self.matrices[0])

    def validate_closure(self) -> bool:
        """Whether rho(g) rho(s) = rho(g s) for every element g and generator s.

        With rho(1) = 1 this gives, by induction on word length, rho(g)
        rho(h) = rho(g h) for all g, h: rho is a homomorphism.
        """
        for g, row in zip(self.matrices, self.table):
            for s in self.generators:
                if mat_mul(g, self.matrices[s]) != self.matrices[row[s]]:
                    return False
        return True

    def inverse_index(self, i: int) -> int:
        return self.table[i].index(0)

    def dual_matrices(self) -> tuple[Matrix, ...]:
        """Contragredient action: transpose of the inverse element."""
        return tuple(
            mat_transpose(self.matrices[self.inverse_index(i)])
            for i in range(len(self.matrices))
        )


def averaging_projector(matrices, subgroup: list[int]) -> Matrix:
    if not subgroup:
        raise ValueError("subgroup must be nonempty")
    size = len(subgroup)
    # rows: the i-th rows of the subgroup's matrices; cells: one entry of each
    return tuple(
        tuple(sum(cells, Fraction(0)) / size for cells in zip(*rows))
        for rows in zip(*(matrices[idx] for idx in subgroup))
    )


def fixed_space(matrices, subgroup: list[int]) -> list[Vector]:
    """Basis of the subgroup-fixed subspace, via the averaging idempotent."""
    proj = averaging_projector(matrices, subgroup)
    ident = mat_identity(len(proj))
    shifted = tuple(tuple(map(operator.sub, p, i)) for p, i in zip(proj, ident))
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
    """Character norm 1: sum of tr rho(g) tr rho(g**-1) over G equals |G|.

    For a homomorphism rho the norm is the dimension of the commutant,
    over the rationals as over the complex numbers, so 1 means
    absolutely irreducible.  Inverses are read from the table.
    """
    traces = [sum(m[i][i] for i in range(rep.dimension)) for m in rep.matrices]
    norm = sum(t * traces[rep.inverse_index(g)] for g, t in enumerate(traces))
    return norm == len(traces)


# -- shipped example builders --------------------------------------------


def _matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _adjacent_transpositions(n: int) -> list[Perm]:
    """(1 2), ..., (n-1 n) in one-line notation."""
    if not 2 <= n <= 5:
        raise ValueError("symmetric group representations shipped for 2 <= n <= 5")
    ident = tuple(range(1, n + 1))
    return [ident[:i] + (i + 2, i + 1) + ident[i + 2 :] for i in range(n - 1)]


def symmetric_group_standard_rep(n: int) -> FiniteRep:
    """S_n on the sum-zero subspace, in the basis f_i = e_i - e_{i+1}.

    (i i+1) negates f_i, adds f_i to its neighbours f_{i-1} and f_{i+1}
    and fixes the rest: the identity matrix with row i replaced by
    (..., 0, 1, -1, 1, 0, ...).
    """
    gens = []
    for i, g in enumerate(_adjacent_transpositions(n)):
        rows = [list(row) for row in mat_identity(n - 1)]
        rows[i] = [(abs(j - i) == 1) - (j == i) for j in range(n - 1)]
        gens.append((g, _matrix(rows)))
    return FiniteRep.generated(f"S{n}-standard", gens)


def symmetric_group_sign_rep(n: int) -> FiniteRep:
    minus_one = _matrix([[-1]])
    return FiniteRep.generated(f"S{n}-sign", [(g, minus_one) for g in _adjacent_transpositions(n)])


def dihedral8_standard_rep() -> FiniteRep:
    """The dihedral group of order 8 on the plane.

    It permutes the vertices v_1..v_4 = (1,0), (0,1), (-1,0), (0,-1) of a
    square, generated by the quarter turn and the reflection in the
    first axis.
    """
    quarter_turn = ((2, 3, 4, 1), _matrix([[0, -1], [1, 0]]))
    reflection = ((1, 4, 3, 2), _matrix([[1, 0], [0, -1]]))
    return FiniteRep.generated("D8-standard", [quarter_turn, reflection])


def point_stabilizer(rep: FiniteRep, x: int) -> list[int]:
    """Indices of the elements of ``rep`` that fix the point x."""
    return [i for i, p in enumerate(rep.elements) if p[x - 1] == x]


# -- catalog --------------------------------------------------------------


def load_catalog() -> list[dict]:
    """The shipped examples, built from the constructors above.

    Each item: name, rep (FiniteRep), subgroup (indices of the stabilizer
    of a point: n for S_n, the vertex v_1 for D8), expected (dims and
    pairing verdict).
    """
    line = {"dim_fixed": 1, "dim_fixed_dual": 1, "nonzero_pairing": True}
    nothing = {"dim_fixed": 0, "dim_fixed_dual": 0, "nonzero_pairing": False}
    entries = [
        ("s3_standard_vs_s2", symmetric_group_standard_rep(3), 3, line),
        ("s3_sign_vs_s2", symmetric_group_sign_rep(3), 3, nothing),
        ("s4_standard_vs_s3", symmetric_group_standard_rep(4), 4, line),
        ("d8_standard_vs_reflection", dihedral8_standard_rep(), 1, line),
    ]
    return [
        {"name": name, "rep": rep, "subgroup": point_stabilizer(rep, x), "expected": expected}
        for name, rep, x, expected in entries
    ]


def check_catalog() -> dict:
    """Each shipped example against its expected outcome, as one report.

    An entry passes when rho is an irreducible homomorphism with the
    expected fixed dimensions and pairing verdict; an entry whose rho is
    not a homomorphism names it under ``not_a_homomorphism``.
    """
    examples = []
    for item in load_catalog():
        rep = item["rep"]
        homomorphism = rep.validate_closure()
        report = check_pairing(rep, item["subgroup"])
        observed = {"dim_fixed": report.dim_fixed, "dim_fixed_dual": report.dim_fixed_dual,
                    "nonzero_pairing": report.pairing is not None and report.pairing != 0}
        entry_ok = homomorphism and observed == item["expected"] and is_irreducible(rep)
        entry = {"name": item["name"], "ok": entry_ok, **report.to_json()}
        if not homomorphism:
            entry["not_a_homomorphism"] = rep.name
        examples.append(entry)
    return {"examples": examples, "ok": all(entry["ok"] for entry in examples)}
