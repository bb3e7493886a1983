"""CLI stdout against committed golden files, byte for byte.

The files under ``tests/golden/`` were recorded with ``python -m
heckezonal``: the eigen, presentation and e = 3 coefficient files before
the scalar fast paths went in, the growth, poincare, distinction,
gelfand and all files before the Gelfand catalog moved from JSON to its
builders, the e = 4 and e = 5 coefficient files before the trusted
Weyl constructor and the slot-swap ``ev`` went in, and the e = 5 eigen
and e = 8 presentation files before the trusted extended ``multiply``,
the descent-test generator rule and the psi0 table went in, and the
e = 3 L = 60 and e = 7 distinction, e = 7 poincare and e = 6 growth
files before the per-layer coset sum, the tuple BFS and the
common-denominator ``mat_mul`` went in, and the e = 3 L = 9 and e = 6
coefficient files before the slot-swap reduced-word fold, the
per-params ``ev`` tables and the one-window descent scan went in, and
the e = 2 L = 6 and e = 6 L = 3 eigen files before the shared BFS
layers, the descent-test case choice and the value-keyed verdict memo
of the eigen checks went in.  They
are reference data: a change that alters a single byte of a report fails
here.
"""

import pathlib

import pytest

from heckezonal import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = {
    "eigen_e3_L4_chi1.json": ["eigen", "--e", "3", "--L", "4", "--chi-pi=1"],
    "eigen_e3_L4_chi2.json": ["eigen", "--e", "3", "--L", "4", "--chi-pi=2"],
    "eigen_e3_L4_chim1_3.json": ["eigen", "--e", "3", "--L", "4", "--chi-pi=-1/3"],
    "eigen_e4_L4_chi1.json": ["eigen", "--e", "4", "--L", "4", "--chi-pi=1"],
    "eigen_e4_L4_chi2.json": ["eigen", "--e", "4", "--L", "4", "--chi-pi=2"],
    "eigen_e4_L4_chim1_3.json": ["eigen", "--e", "4", "--L", "4", "--chi-pi=-1/3"],
    "presentation_e3_seed3.json": ["presentation", "--e", "3", "--seed", "3"],
    "eigen_e5_L5_chim1_3.json": ["eigen", "--e", "5", "--L", "5", "--chi-pi=-1/3"],
    "presentation_e5_seed3.json": ["presentation", "--e", "5", "--seed", "3"],
    "presentation_e8_seed1.json": ["presentation", "--e", "8", "--seed", "1"],
    "coefficient_e3_f2_q03_L4.json": ["coefficient", "--e", "3", "--f", "2", "--q0", "3", "--L", "4"],
    "coefficient_e5_f1_q02_L4.json": ["coefficient", "--e", "5", "--f", "1", "--q0", "2", "--L", "4"],
    "coefficient_e4_f3_q05_L5_seed7.json": [
        "coefficient", "--e", "4", "--f", "3", "--q0", "5", "--L", "5", "--seed", "7",
    ],
    "growth_e4_L8.json": ["growth", "--e", "4", "--L", "8"],
    "growth_e3_L6.csv": ["growth", "--e", "3", "--L", "6", "--output", "csv"],
    "poincare_e5.json": ["poincare", "--e", "5"],
    "distinction_e3_f2_q03_L20.json": ["distinction", "--e", "3", "--f", "2", "--q0", "3", "--L", "20"],
    "distinction_e5_L4.txt": ["distinction", "--e", "5", "--L", "4", "--output", "text"],
    "gelfand.json": ["gelfand"],
    "distinction_e3_f1_q02_L60.json": ["distinction", "--e", "3", "--f", "1", "--q0", "2", "--L", "60"],
    "distinction_e7_f2_q03_L5.json": ["distinction", "--e", "7", "--f", "2", "--q0", "3", "--L", "5"],
    "poincare_e7.json": ["poincare", "--e", "7"],
    "growth_e6_L5.json": ["growth", "--e", "6", "--L", "5"],
    "coefficient_e3_f2_q07_L9.json": ["coefficient", "--e", "3", "--f", "2", "--q0", "7", "--L", "9"],
    "coefficient_e6_f2_q03_L4.json": ["coefficient", "--e", "6", "--f", "2", "--q0", "3", "--L", "4"],
    "all_e3_L3.json": ["all", "--e", "3", "--L", "3"],
    "all_e4_L3.json": ["all", "--e", "4", "--L", "3"],
    "eigen_e2_L6_chi2.json": ["eigen", "--e", "2", "--L", "6", "--chi-pi=2"],
    "eigen_e6_L3_chim1_3.json": ["eigen", "--e", "6", "--L", "3", "--chi-pi=-1/3"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, capsys):
    assert cli.run(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("value", ["abc", "10"])
def test_environment_does_not_change_a_run(value, monkeypatch, capsys):
    # the arguments are the only input: HECKE_MAX_ELEMS, a name the package
    # used to read, changes nothing, neither when it is not a number nor
    # when it is below a run's element count
    monkeypatch.setenv("HECKE_MAX_ELEMS", value)
    for name, argv in CASES.items():
        assert cli.run(argv) == 0, name
        assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes(), name
