"""The CLI adds no logic: each suite's report and verdict come from the library.

For every single-suite argv, the report the library check returns,
emitted as JSON, equals the stdout of ``cli.run``, and the exit status
is 0 exactly when the report's verdict is true.  This holds on the
passing single-suite argvs of the reach matrix and on one failing case
per suite.
"""

import itertools
import json
from fractions import Fraction

import pytest
from oracles import wrong_pi_power
from test_gelfand import flipped_s3_sign
from test_reach import MATRIX

from heckezonal import cli, tensor
from heckezonal import spherical as sph
from heckezonal import distinction as dst
from heckezonal import gelfand as gf
from heckezonal.hecke import PresentationReport, verify_presentation
from heckezonal.scalars import Value, format_rational
from heckezonal.spherical import verify_eigen
from heckezonal.tensor import verify_coefficient
from heckezonal.weyl import AffinePermutation, enumerate_by_length


def library_report(argv) -> dict:
    """The report of argv's suite, computed by the library calls alone."""
    args = cli.build_parser().parse_args(argv)
    cli._validate(args)
    if args.command == "presentation":
        return verify_presentation(args.e, samples=args.samples, seed=args.seed).to_json()
    if args.command == "eigen":
        return verify_eigen(args.e, args.L, args.chi_pi)
    if args.command == "coefficient":
        return verify_coefficient(args.e, args.f, args.q0, args.L, args.seed, args.samples)
    if args.command == "growth":
        bfs = dst.growth_bfs(args.e, args.L)
        closed = dst.growth_closed_form(args.e, args.L)
        rows = [
            {"length": ell, "count_bfs": b, "equal": b == c,
             "count_closed_form": format_rational(c) if isinstance(c, Fraction) else c}
            for ell, (b, c) in enumerate(itertools.zip_longest(bfs, closed))
        ]
        return {"e": args.e, "L": args.L, "rows": rows, "ok": bfs == closed}
    if args.command == "poincare":
        # None selects the library's default grid of points
        return dst.nonvanishing_scan(args.e, args.points)
    if args.command == "distinction":
        integral = dst.distinction_integral(args.e, args.f, args.q0, args.L)
        report = integral.to_json()
        if args.expect_closed_form is not None:
            # the CLI-only pin of the closed value
            report["expected_closed_form"] = format_rational(args.expect_closed_form)
            report["ok"] = integral.ok and integral.closed_form == args.expect_closed_form
        return report
    assert args.command == "gelfand", argv
    return gf.check_catalog()


def cli_verdict(argv, capsys) -> bool:
    """Check that cli.run emits the library report; return its verdict."""
    report = library_report(argv)
    verdict = report["all_positive"] if argv[0] == "poincare" else report["ok"]
    code = cli.run([*argv, "--output", "json"])
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert code == (0 if verdict else 1)
    return verdict


SINGLE_SUITE = [argv for argv in MATRIX if argv[0] != "all"] + [["gelfand"]]


def test_every_suite_is_covered():
    assert {argv[0] for argv in SINGLE_SUITE} == set(cli.COMMANDS) - {"all"}


@pytest.mark.parametrize("argv", SINGLE_SUITE, ids=lambda argv: argv[0])
def test_cli_emits_the_library_report(argv, capsys):
    assert cli_verdict(argv, capsys) is True


def flipped_descent(monkeypatch):
    honest = AffinePermutation.has_left_descent
    monkeypatch.setattr(AffinePermutation, "has_left_descent", lambda w0, j: not honest(w0, j))


def wrong_t0(monkeypatch):
    honest = tensor.t_operator
    monkeypatch.setattr(tensor, "t_operator", lambda i, e: honest(1 if i == 0 else i, e))


def lost_element(monkeypatch):
    honest = dst.enumerate_by_length

    def patched(e, L):
        layers = honest(e, L)
        return layers[:-1] + [layers[-1][:-1]]

    monkeypatch.setattr(dst, "enumerate_by_length", patched)


def lost_length_one_element(monkeypatch):
    # N(1) = e is no input check: the loss is a failing row like any other
    honest = dst.enumerate_by_length

    def patched(e, L):
        layers = honest(e, L)
        return [layers[0], layers[1][1:], *layers[2:]]

    monkeypatch.setattr(dst, "enumerate_by_length", patched)


def fractional_coefficient(monkeypatch):
    # N(1) = 3 at e = 3: a closed form that gave 7/2 fails its row, where
    # truncating the coefficient to an int would read 3 and pass
    honest = dst.poincare_series_coefficients

    def patched(e, max_degree):
        coeffs = honest(e, max_degree)
        coeffs[1] = Fraction(7, 2)
        return coeffs

    monkeypatch.setattr(dst, "poincare_series_coefficients", patched)


def lost_last_layer(monkeypatch):
    honest = dst.enumerate_by_length
    monkeypatch.setattr(dst, "enumerate_by_length", lambda e, L: honest(e, L)[:-1])


def negative_value(monkeypatch):
    honest = dst.poincare_value
    monkeypatch.setattr(dst, "poincare_value", lambda e, x: -honest(e, x) if x > 0 else honest(e, x))


def wrong_length(monkeypatch):
    target = enumerate_by_length(3, 3)[3][0]
    honest = AffinePermutation.length
    monkeypatch.setattr(AffinePermutation, "length", lambda self: honest(self) + (self == target))


def flipped_sign(monkeypatch):
    bad = flipped_s3_sign()
    monkeypatch.setattr(gf, "symmetric_group_sign_rep", lambda n: bad)


def nothing(monkeypatch):
    pass


FAILING = [
    (["presentation", "--e", "4", "--samples", "2"], wrong_pi_power),
    (["eigen", "--e", "3", "--L", "2"], flipped_descent),
    (["coefficient", "--e", "3", "--L", "2", "--samples", "2"], wrong_t0),
    (["growth", "--e", "3", "--L", "3"], lost_element),
    (["growth", "--e", "3", "--L", "3"], lost_length_one_element),
    (["growth", "--e", "3", "--L", "3"], lost_last_layer),
    (["growth", "--e", "3", "--L", "3"], fractional_coefficient),
    (["poincare", "--e", "3", "--points=-1/2,1/3"], negative_value),
    (["distinction", "--e", "3", "--L", "3"], wrong_length),
    (["distinction", "--e", "3", "--L", "3", "--expect-closed-form", "2"], nothing),
    (["gelfand"], flipped_sign),
]


@pytest.mark.parametrize("argv, fault", FAILING, ids=lambda x: x.__name__ if callable(x) else x[0])
def test_cli_emits_the_failing_library_report(argv, fault, monkeypatch, capsys):
    fault(monkeypatch)
    assert cli_verdict(argv, capsys) is False


def test_integral_report_ok_needs_the_tail_bound():
    report = dst.distinction_integral(3, 1, 2, 4)
    assert report.ok and report.to_json()["ok"] is True
    beyond = dst.IntegralReport(**dict(vars(report), abs_error=report.tail_bound + 1))
    assert beyond.per_term_ok and not beyond.ok
    assert beyond.to_json()["ok"] is False
    assert not dst.IntegralReport(**dict(vars(report), per_term_ok=False)).ok


def test_presentation_ok_includes_associativity():
    report = verify_presentation(3, samples=2, seed=1)
    assert report.ok and report.associativity_ok
    broken = PresentationReport(**dict(vars(report), associativity_ok=False))
    assert all(c["ok"] for c in broken.checks) and not broken.ok
    assert broken.to_json()["ok"] is False
    # the library default checks the relations only
    relations = verify_presentation(3).to_json()
    assert (relations["associativity_samples"], relations["seed"]) == (0, None)


@pytest.mark.parametrize("check", [
    lambda: verify_presentation(3, samples=-1, seed=1),
    lambda: verify_coefficient(3, 1, 2, 2, 1, -1),
], ids=["presentation", "coefficient"])
def test_library_rejects_negative_samples(check):
    # a negative count draws no sample, so it would pass as if checked;
    # the entry point refuses it as the command line does
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        check()


# One record of each report and holder class, as the library builds it
RECORDS = {
    "PresentationReport": lambda: verify_presentation(3),
    "EigenReport": lambda: sph.verify_eigen_pi(1, sph.SphericalParams.generic(2)),
    "IntegralReport": lambda: dst.distinction_integral(3, 1, 2, 2),
    "GelfandReport": lambda: gf.check_pairing(gf.symmetric_group_standard_rep(3), [0, 1]),
    "SphericalTruncation": lambda: sph.SphericalTruncation.build(1, sph.SphericalParams.generic(2)),
    "FiniteRep": lambda: gf.symmetric_group_sign_rep(3),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_built_from_their_fields(name):
    record = RECORDS[name]()
    cls = type(record)
    assert cls.__name__ == name and isinstance(record, Value)
    # the instance dict holds exactly the fields, in order, so a record
    # rebuilt from it by name or by position is equal to it
    assert list(vars(record)) == list(cls._fields)
    assert cls(**vars(record)) == record == cls(*vars(record).values())
    first, *rest = cls._fields
    given = dict(vars(record))
    with pytest.raises(TypeError):
        cls(**{field: given[field] for field in rest})  # a field missing
    with pytest.raises(TypeError):
        cls(**given, extra=None)  # a field the record does not have
    with pytest.raises(TypeError):
        cls(*given.values(), None)  # one positional value too many
    with pytest.raises(TypeError):
        cls(given[first], **given)  # the first field twice
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(record, first, given[first])
    with pytest.raises(AttributeError):
        delattr(record, rest[-1] if rest else first)
    assert list(vars(record)) == list(cls._fields)


@pytest.mark.parametrize("name", [name for name in RECORDS if name.endswith("Report")])
def test_report_json_survives_a_round_trip(name):
    # every value a report prints is plain JSON already: a Fraction left
    # unprinted would not dump, and a tuple would come back a list
    report = RECORDS[name]().to_json()
    assert json.loads(json.dumps(report)) == report
