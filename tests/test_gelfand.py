"""Exact fixed spaces and invariant pairings for small finite groups."""

import collections
import itertools
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from oracles import commutant_dimension, inverse_by_search, mat_vec, mutate, sign_by_inversions

from heckezonal import cli
from heckezonal import gelfand as gf
from heckezonal.gelfand import (
    FiniteRep,
    check_pairing,
    dihedral8_standard_rep,
    fixed_space,
    is_irreducible,
    load_catalog,
    mat_identity,
    mat_mul,
    averaging_projector,
    point_stabilizer,
    symmetric_group_sign_rep,
    symmetric_group_standard_rep,
)


def test_trivial_representation_fixed_space():
    rep_matrices = [mat_identity(3)] * 4
    basis = fixed_space(rep_matrices, [0, 1, 2, 3])
    assert len(basis) == 3


def test_s3_standard_fixed_line():
    rep = symmetric_group_standard_rep(3)
    K = point_stabilizer(rep, 3)
    assert len(K) == 2
    basis = fixed_space(rep.matrices, K)
    assert len(basis) == 1
    # the fixed vector is genuinely invariant
    v = basis[0]
    for idx in K:
        assert mat_vec(rep.matrices[idx], v) == v


def test_s3_sign_has_no_fixed_vectors():
    rep = symmetric_group_sign_rep(3)
    K = point_stabilizer(rep, 3)
    assert fixed_space(rep.matrices, K) == []
    report = check_pairing(rep, K)
    assert (report.dim_fixed, report.dim_fixed_dual) == (0, 0)
    assert report.pairing is None
    assert not report.gelfand_multiplicity_ok


@pytest.mark.parametrize(
    "rep,n",
    [(symmetric_group_standard_rep(3), 3), (symmetric_group_standard_rep(4), 4)],
)
def test_standard_pairings_nonzero(rep, n):
    report = check_pairing(rep, point_stabilizer(rep, n))
    assert (report.dim_fixed, report.dim_fixed_dual) == (1, 1)
    assert report.pairing is not None and report.pairing != 0
    assert report.gelfand_multiplicity_ok


def test_pairing_verdict_scale_invariant():
    # rescaling the fixed generators rescales the value, never its vanishing
    rep = symmetric_group_standard_rep(3)
    K = point_stabilizer(rep, 3)
    v = fixed_space(rep.matrices, K)[0]
    vt = fixed_space(rep.dual_matrices(), K)[0]
    base = sum(a * b for a, b in zip(v, vt))
    for c in (Fraction(2), Fraction(-1, 3)):
        scaled = sum(c * a * b for a, b in zip(v, vt))
        assert (scaled != 0) == (base != 0)


def test_averaging_projector_idempotent_and_equivariant():
    rep = symmetric_group_standard_rep(4)
    K = point_stabilizer(rep, 4)
    proj = averaging_projector(rep.matrices, K)
    assert mat_mul(proj, proj) == proj
    for idx in K:
        assert mat_mul(rep.matrices[idx], proj) == proj


def test_irreducibility():
    assert is_irreducible(symmetric_group_standard_rep(3))
    assert is_irreducible(symmetric_group_standard_rep(4))
    assert is_irreducible(dihedral8_standard_rep())
    assert is_irreducible(symmetric_group_sign_rep(3))


def permutation_matrix(perm):
    """e_j -> e_perm(j): column j has its 1 in row perm(j)."""
    n = len(perm)
    return tuple(tuple(Fraction(int(perm[j] == i + 1)) for j in range(n)) for i in range(n))


def permutation_rep(n: int) -> FiniteRep:
    """S_n permuting the coordinates of Q^n: standard + trivial."""
    gens = gf._adjacent_transpositions(n)
    return FiniteRep.generated(f"S{n}-permutation", [(g, permutation_matrix(g)) for g in gens])


def standard_squared_rep() -> FiniteRep:
    """Standard + standard of S3, as block-diagonal 4 x 4 matrices."""
    std = symmetric_group_standard_rep(3)
    zero = (Fraction(0),) * 2
    gens = []
    for i in std.generators:
        m = std.matrices[i]
        gens.append((std.elements[i], tuple(row + zero for row in m) + tuple(zero + row for row in m)))
    return FiniteRep.generated("S3-standard-squared", gens)


def test_permutation_representation_is_reducible():
    # S3 on Q^3 permuting coordinates is standard + trivial: the commutant
    # holds the identity and the all-ones matrix
    rep = permutation_rep(3)
    assert rep.validate_closure()
    assert len(rep.elements) == 6
    assert not is_irreducible(rep)


@pytest.mark.parametrize(
    "rep, dimension",
    [(item["rep"], 1) for item in load_catalog()]
    + [(permutation_rep(3), 2), (permutation_rep(4), 2), (standard_squared_rep(), 4)],
    ids=lambda x: x.name if isinstance(x, FiniteRep) else str(x),
)
def test_character_norm_matches_the_commutant(rep, dimension):
    # the norm of the character is the commutant's dimension: 1 on the
    # shipped representations, the sum of squared multiplicities on the controls
    assert rep.validate_closure()
    assert commutant_dimension(rep) == dimension
    assert is_irreducible(rep) is (dimension == 1)


def flipped_s3_sign():
    """The S3 sign representation with the matrix of (2 3) set to +1."""
    rep = symmetric_group_sign_rep(3)
    i = rep.elements.index((1, 3, 2))
    flipped = rep.matrices[:i] + (((Fraction(1),),),) + rep.matrices[i + 1 :]
    return FiniteRep(**dict(vars(rep), matrices=flipped))


def test_validate_closure_rejects_a_flipped_sign():
    assert symmetric_group_sign_rep(3).validate_closure() is True
    bad = flipped_s3_sign()
    # the fixed dimensions cannot see the flip: both stay 0
    report = check_pairing(bad, point_stabilizer(bad, 3))
    assert (report.dim_fixed, report.dim_fixed_dual) == (0, 0)
    assert bad.validate_closure() is False


def test_gelfand_fails_on_a_flipped_sign(monkeypatch, capsys):
    bad = flipped_s3_sign()
    monkeypatch.setattr(gf, "symmetric_group_sign_rep", lambda n: bad)
    assert cli.run(["gelfand"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    # only the sign entry fails, and it names its representation
    examples = report["examples"]
    failing = {entry["name"]: entry.get("not_a_homomorphism") for entry in examples if not entry["ok"]}
    assert failing == {"s3_sign_vs_s2": "S3-sign"}
    assert sum("not_a_homomorphism" in entry for entry in examples) == 1


def test_gelfand_fails_on_a_reducible_rep_with_the_expected_dimensions(monkeypatch, capsys):
    # sign + sign of S3 is a homomorphism with no vector fixed by S2, as
    # the sign entry expects, so only the irreducibility conjunct fails it
    mutate(monkeypatch, gf.symmetric_group_sign_rep, [("_matrix([[-1]])", "_matrix([[-1, 0], [0, -1]])")], gf)
    rep = gf.symmetric_group_sign_rep(3)
    assert rep.validate_closure() and not is_irreducible(rep)
    assert cli.run(["gelfand"]) == 1
    report = json.loads(capsys.readouterr().out)
    failing = [entry for entry in report["examples"] if not entry["ok"]]
    assert [entry["name"] for entry in failing] == ["s3_sign_vs_s2"]
    assert (failing[0]["dim_fixed"], failing[0]["dim_fixed_dual"]) == (0, 0)
    assert "not_a_homomorphism" not in failing[0]


def test_validate_closure_rejects_generators_breaking_a_relation():
    # rho(s_1) = 1 beside the standard rho(s_2) breaks s_1 s_2 s_1 = s_2 s_1 s_2
    std = symmetric_group_standard_rep(3)
    s2 = std.matrices[std.generators[1]]
    rep = FiniteRep.generated("S3-broken", [((2, 1, 3), mat_identity(2)), ((1, 3, 2), s2)])
    assert len(rep.elements) == 6
    assert rep.validate_closure() is False


def shipped_reps():
    return [symmetric_group_standard_rep(n) for n in (2, 3, 4, 5)] + [
        symmetric_group_sign_rep(n) for n in (2, 3, 4, 5)
    ] + [dihedral8_standard_rep()]


@pytest.mark.parametrize("rep", shipped_reps(), ids=lambda rep: rep.name)
def test_table_is_the_group_law_and_rho_a_homomorphism(rep):
    # all |G|**2 pairs, independent of validate_closure's generator argument
    elements, matrices = rep.elements, rep.matrices
    assert list(elements) == sorted(set(elements))
    assert elements[0] == tuple(range(1, len(elements[0]) + 1))
    for a, row in zip(elements, rep.table):
        for b, ab in zip(elements, row):
            assert elements[ab] == tuple(a[x - 1] for x in b)
    for ma, row in zip(matrices, rep.table):
        for mb, ab in zip(matrices, row):
            assert mat_mul(ma, mb) == matrices[ab]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetric_group_oracles(n):
    std, sign = symmetric_group_standard_rep(n), symmetric_group_sign_rep(n)
    assert list(std.elements) == sorted(itertools.permutations(range(1, n + 1)))
    assert sign.elements == std.elements
    for sigma, m, s in zip(std.elements, std.matrices, sign.matrices):
        fixed_points = sum(sigma[i] == i + 1 for i in range(n))
        assert sum(m[i][i] for i in range(n - 1)) == fixed_points - 1
        # column j, read back from the basis f_i = e_i - e_{i+1}, is
        # sigma(e_j - e_{j+1}) = e_sigma(j) - e_sigma(j+1)
        for j, col in enumerate(zip(*m)):
            c = (0,) + col + (0,)
            image = [0] * n
            image[sigma[j] - 1], image[sigma[j + 1] - 1] = 1, -1
            assert [c[k + 1] - c[k] for k in range(n)] == image
        assert s == ((Fraction(sign_by_inversions(sigma)),),)
    K = point_stabilizer(std, n)
    assert K == [i for i, sigma in enumerate(std.elements) if sigma[-1] == n]
    assert len(K) == len(std.elements) // n


def test_dihedral_matrices_move_the_square_vertices():
    vertices = {1: (1, 0), 2: (0, 1), 3: (-1, 0), 4: (0, -1)}
    rep = dihedral8_standard_rep()
    assert len(rep.elements) == 8
    for sigma, m in zip(rep.elements, rep.matrices):
        assert tuple(row[0] for row in m) == vertices[sigma[0]]
        assert tuple(row[1] for row in m) == vertices[sigma[1]]
    K = point_stabilizer(rep, 1)  # the reflection fixing v_1
    assert [rep.matrices[i] for i in K] == [mat_identity(2), ((1, 0), (0, -1))]


@pytest.mark.parametrize(
    "rep",
    [symmetric_group_standard_rep(n) for n in (3, 4, 5)] + [dihedral8_standard_rep()],
    ids=lambda rep: rep.name,
)
def test_inverse_index_matches_the_matrix_search(rep):
    # faithful representations: the matrix inverse names one element
    for i in range(len(rep.elements)):
        assert rep.inverse_index(i) == inverse_by_search(rep, i)


def test_one_gelfand_run_counts(monkeypatch, capsys):
    # products and commutant rows per caller, on one run of the subcommand
    products = collections.Counter()
    rref_rows = collections.Counter()
    mat_mul_, rref_ = gf.mat_mul, gf.rref

    def counting_mat_mul(a, b):
        products[sys._getframe(1).f_code.co_name] += 1
        return mat_mul_(a, b)

    def counting_rref(rows):
        rref_rows[sys._getframe(1).f_code.co_name] += len(rows)
        return rref_(rows)

    monkeypatch.setattr(gf, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(gf, "rref", counting_rref)
    assert cli.run(["gelfand"]) == 0
    # |G| * |generators|: S3 6 * 2 twice, S4 24 * 3, D8 8 * 2
    assert products["validate_closure"] == 12 + 12 + 72 + 16
    assert products["inverse_index"] == 0
    # one product per element but the identity, building the groups
    assert products["generated"] == 5 + 5 + 23 + 7
    assert set(products) == {"validate_closure", "generated"}
    # the character norm needs no elimination: only the fixed spaces call rref
    assert set(rref_rows) == {"nullspace"}


def test_dihedral_example():
    rep = dihedral8_standard_rep()
    assert len(rep.matrices) == 8
    assert rep.validate_closure()
    report = check_pairing(rep, point_stabilizer(rep, 1))
    assert report.gelfand_multiplicity_ok
    assert report.pairing != 0


def test_catalog_subgroups_are_point_stabilizers():
    # the fixed point of each entry and the indices the catalog shipped
    # before its subgroups were read from rep.elements
    shipped = {
        "s3_standard_vs_s2": (3, [0, 2]),
        "s3_sign_vs_s2": (3, [0, 2]),
        "s4_standard_vs_s3": (4, [0, 2, 6, 8, 12, 14]),
        "d8_standard_vs_reflection": (1, [0, 1]),
    }
    catalog = load_catalog()
    assert [item["name"] for item in catalog] == list(shipped)
    for item in catalog:
        x, indices = shipped[item["name"]]
        assert item["subgroup"] == point_stabilizer(item["rep"], x) == indices
        assert all(item["rep"].elements[i][x - 1] == x for i in indices)


def test_catalog_expectations_hold():
    for item in load_catalog():
        rep = item["rep"]
        assert rep.validate_closure()
        assert is_irreducible(rep)
        report = check_pairing(rep, item["subgroup"])
        expected = item["expected"]
        assert report.dim_fixed == expected["dim_fixed"]
        assert report.dim_fixed_dual == expected["dim_fixed_dual"]
        nonzero = report.pairing is not None and report.pairing != 0
        assert nonzero == expected["nonzero_pairing"]


def test_catalog_fails_an_entry_with_another_expected_outcome(monkeypatch):
    # s3_standard_vs_s2 pairs to a nonzero value; expecting a zero one
    # fails that entry alone
    catalog = load_catalog()
    catalog[0]["expected"] = {**catalog[0]["expected"], "nonzero_pairing": False}
    monkeypatch.setattr(gf, "load_catalog", lambda: catalog)
    report = gf.check_catalog()
    assert [entry["ok"] for entry in report["examples"]] == [False, True, True, True]
    assert report["ok"] is False


def test_pairing_needs_fixed_lines():
    # S3 acting by 2 x 2 identity matrices fixes a plane on both sides:
    # no line to pair, so no value and no multiplicity one
    ident = mat_identity(2)
    rep = FiniteRep.generated("S3-trivial-plane", [((2, 1, 3), ident), ((1, 3, 2), ident)])
    assert rep.validate_closure()
    report = check_pairing(rep, point_stabilizer(rep, 3))
    assert (report.dim_fixed, report.dim_fixed_dual) == (2, 2)
    assert report.pairing is None
    assert report.gelfand_multiplicity_ok is False


def test_mat_mul_matches_fraction_triple_loop():
    rng = random.Random(41)

    def random_matrix(rows, cols):
        return tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7))) for _ in range(cols))
            for _ in range(rows)
        )

    for _ in range(200):
        n, m, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = random_matrix(n, m), random_matrix(m, p)
        naive = tuple(
            tuple(sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(p))
            for i in range(n)
        )
        assert mat_mul(a, b) == naive
        assert all(type(x) is Fraction for row in mat_mul(a, b) for x in row)


def test_rep_validation_names_each_fault():
    std = symmetric_group_standard_rep(3)
    fields = vars(std)
    # a 2 x 3 matrix in a 2-dimensional representation
    wide = std.matrices[:1] + (((1, 0, 0), (0, 1, 0)),) + std.matrices[2:]
    with pytest.raises(ValueError, match="^matrix shape mismatch$"):
        FiniteRep(**dict(fields, matrices=wide))
    # the identity element acting by -1
    minus = (((-1, 0), (0, -1)),) + std.matrices[1:]
    with pytest.raises(ValueError, match="^the identity element must act by the identity matrix$"):
        FiniteRep(**dict(fields, matrices=minus))
    # the identity matrix passes with int entries and with Fraction entries
    assert std.matrices[0] == mat_identity(2) and type(std.matrices[0][0][0]) is int
    fraction_identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    FiniteRep(**dict(fields, matrices=(fraction_identity,) + std.matrices[1:]))


def test_averaging_projector_needs_a_subgroup():
    with pytest.raises(ValueError, match="^subgroup must be nonempty$"):
        averaging_projector(symmetric_group_standard_rep(3).matrices, [])


@pytest.mark.parametrize("n", [1, 6])
def test_symmetric_groups_shipped_for_2_to_5_points(n):
    with pytest.raises(ValueError, match=r"^symmetric group representations shipped for 2 <= n <= 5$"):
        gf._adjacent_transpositions(n)
    with pytest.raises(ValueError, match="shipped for 2 <= n <= 5"):
        symmetric_group_standard_rep(n)


def test_rational_change_of_basis_keeps_the_verdicts():
    # S3's standard representation conjugated by P = [[1, 1/2], [1/3, 1]]:
    # every matrix is P M P**-1, with Fraction entries, and a
    # representation equivalent to the integral one
    std = symmetric_group_standard_rep(3)
    p = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 3), Fraction(1)))
    det = Fraction(5, 6)
    p_inv = ((1 / det, Fraction(-1, 2) / det), (Fraction(-1, 3) / det, 1 / det))
    assert mat_mul(p, p_inv) == mat_identity(2)
    gens = [(std.elements[i], mat_mul(mat_mul(p, std.matrices[i]), p_inv)) for i in std.generators]
    rep = FiniteRep.generated("S3-standard-conjugated", gens)
    assert rep.elements == std.elements
    for m, m_std in zip(rep.matrices, std.matrices):
        assert m == mat_mul(mat_mul(p, m_std), p_inv)
    assert all(type(x) is Fraction for m in rep.matrices[1:] for row in m for x in row)
    assert any(x.denominator > 1 for m in rep.matrices for row in m for x in row)
    assert rep.validate_closure()
    assert is_irreducible(rep)
    report = check_pairing(rep, point_stabilizer(rep, 3))
    assert (report.dim_fixed, report.dim_fixed_dual) == (1, 1)
    assert type(report.pairing) is Fraction and report.pairing != 0
    assert report.gelfand_multiplicity_ok


def test_gelfand_run_multiplies_int_matrices_only(monkeypatch, capsys):
    # the shipped matrices are integral, so every product of the run is
    # one of int matrices, and so is its result
    kinds = collections.Counter()
    mat_mul_ = gf.mat_mul

    def recording_mat_mul(a, b):
        out = mat_mul_(a, b)
        kinds.update(type(x) for m in (a, b, out) for row in m for x in row)
        return out

    monkeypatch.setattr(gf, "mat_mul", recording_mat_mul)
    assert cli.run(["gelfand"]) == 0
    assert set(kinds) == {int}
    # and the report is the golden one, byte for byte
    golden = pathlib.Path(__file__).resolve().parent / "golden" / "gelfand.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()

