"""Exact fixed spaces and invariant pairings for small finite groups."""

import random
from fractions import Fraction

import pytest
from oracles import mat_vec

from heckezonal.gelfand import (
    check_pairing,
    dihedral8_standard_rep,
    fixed_space,
    is_irreducible,
    load_catalog,
    mat_identity,
    mat_mul,
    averaging_projector,
    subgroup_fixing_last_point,
    symmetric_group_sign_rep,
    symmetric_group_standard_rep,
)


def test_trivial_representation_fixed_space():
    rep_matrices = [mat_identity(3)] * 4
    basis = fixed_space(rep_matrices, [0, 1, 2, 3])
    assert len(basis) == 3


def test_s3_standard_fixed_line():
    rep = symmetric_group_standard_rep(3)
    K = subgroup_fixing_last_point(3)
    assert len(K) == 2
    basis = fixed_space(rep.matrices, K)
    assert len(basis) == 1
    # the fixed vector is genuinely invariant
    v = basis[0]
    for idx in K:
        assert mat_vec(rep.matrices[idx], v) == v


def test_s3_sign_has_no_fixed_vectors():
    rep = symmetric_group_sign_rep(3)
    K = subgroup_fixing_last_point(3)
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
    report = check_pairing(rep, subgroup_fixing_last_point(n))
    assert (report.dim_fixed, report.dim_fixed_dual) == (1, 1)
    assert report.pairing is not None and report.pairing != 0
    assert report.gelfand_multiplicity_ok


def test_pairing_verdict_scale_invariant():
    # rescaling the fixed generators rescales the value, never its vanishing
    rep = symmetric_group_standard_rep(3)
    K = subgroup_fixing_last_point(3)
    v = fixed_space(rep.matrices, K)[0]
    vt = fixed_space(rep.dual_matrices(), K)[0]
    base = sum(a * b for a, b in zip(v, vt))
    for c in (Fraction(2), Fraction(-1, 3)):
        scaled = sum(c * a * b for a, b in zip(v, vt))
        assert (scaled != 0) == (base != 0)


def test_averaging_projector_idempotent_and_equivariant():
    rep = symmetric_group_standard_rep(4)
    K = subgroup_fixing_last_point(4)
    proj = averaging_projector(rep.matrices, K)
    assert mat_mul(proj, proj) == proj
    for idx in K:
        assert mat_mul(rep.matrices[idx], proj) == proj


def test_irreducibility():
    assert is_irreducible(symmetric_group_standard_rep(3))
    assert is_irreducible(symmetric_group_standard_rep(4))
    assert is_irreducible(dihedral8_standard_rep())
    # the regular-ish permutation action on the full coordinate space is
    # reducible: build it as the direct sum standard + trivial is not
    # shipped, so use the sign rep (1-dimensional, trivially irreducible)
    assert is_irreducible(symmetric_group_sign_rep(3))


def test_dihedral_example():
    from heckezonal.gelfand import dihedral8_reflection_subgroup

    rep = dihedral8_standard_rep()
    assert len(rep.matrices) == 8
    rep.validate_closure()
    report = check_pairing(rep, dihedral8_reflection_subgroup(rep))
    assert report.gelfand_multiplicity_ok
    assert report.pairing != 0


def test_catalog_expectations_hold():
    for item in load_catalog():
        rep = item["rep"]
        rep.validate_closure()
        assert is_irreducible(rep)
        report = check_pairing(rep, item["subgroup"])
        expected = item["expected"]
        assert report.dim_fixed == expected["dim_fixed"]
        assert report.dim_fixed_dual == expected["dim_fixed_dual"]
        nonzero = report.pairing is not None and report.pairing != 0
        assert nonzero == expected["nonzero_pairing"]


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
