"""Command-line frontend: exit codes, formats, determinism."""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckezonal import cli, spherical, tensor, weyl
from heckezonal import distinction as dst
from heckezonal.scalars import format_rational
from heckezonal.weyl import AffinePermutation, enumerate_by_length

from boundaries import EXACT, ROWS
from oracles import wrong_pi_power

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "heckezonal", *argv],
        capture_output=True,
        env=env,
    )


def test_distinction_json():
    proc = run_cli("distinction", "--e", "3", "--f", "1", "--q0", "2", "--L", "40")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["closed_form"] == "1/1"
    assert report["per_term_ok"] is True


def test_growth_csv_rows():
    proc = run_cli("growth", "--e", "3", "--L", "12", "--output", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.decode().strip().splitlines()
    assert lines[0] == "length,count_bfs,count_closed_form,equal"
    assert len(lines) == 14  # header + 13 data rows
    assert all(line.endswith("True") for line in lines[1:])


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_layer_order_reaches_no_report(order, monkeypatch, capsys):
    # iter_layers yields each layer in its search's set order, unsorted:
    # distinction and growth count and sum, so no order reaches their output
    ranks = ((3, 12), (5, 5), (7, 4))
    argvs = [["distinction", "--e", str(e), "--f", "2", "--q0", "3", "--L", str(L)] for e, L in ranks]
    argvs.append(["growth", "--e", "4", "--L", "6"])

    def outputs():
        printed = []
        for argv in argvs:
            assert cli.run(argv) == 0
            printed.append(capsys.readouterr().out)
        return printed

    honest, layers, rng = outputs(), dst.iter_layers, random.Random(11)
    firsts = {layer[0] for e, L in ranks for layer in layers(e, L)}

    def reordered(e, L):
        for layer in layers(e, L):
            yield layer[::-1] if order == "reversed" else rng.sample(layer, len(layer))

    monkeypatch.setattr(dst, "iter_layers", reordered)
    assert outputs() == honest
    # the term distinction builds from a layer's first window saw other windows
    assert {layer[0] for e, L in ranks for layer in reordered(e, L)} != firsts


def test_growth_fails_a_missing_last_layer(monkeypatch, capsys):
    honest = dst.iter_layers
    monkeypatch.setattr(dst, "iter_layers", lambda e, L: list(honest(e, L))[:-1])
    assert cli.run(["growth", "--e", "3", "--L", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert [r["equal"] for r in report["rows"]] == [True] * 4 + [False]
    assert report["rows"][-1] == {"length": 4, "count_bfs": None, "count_closed_form": 12, "equal": False}
    assert cli.run(["growth", "--e", "3", "--L", "4", "--output", "csv"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and lines[-1] == "4,,12,False"


def test_run_reuses_one_parser(monkeypatch, capsys):
    parsers = []
    honest = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_args", lambda self, argv: parsers.append(self) or honest(self, argv)
    )
    assert cli.run(["growth", "--e", "3", "--L", "2"]) == 0
    assert cli.run(["gelfand"]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    # a rejected argv and another subcommand's flags leave no state behind
    with pytest.raises(SystemExit):
        cli.run(["eigen", "--chi-pi", "-1/3"])
    assert cli.run(["poincare", "--points", "1/2"]) == 0
    capsys.readouterr()
    assert cli.run(["all", "--e", "3", "--L", "3"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "all_e3_L3.json").read_text()


def test_eigen_passes():
    proc = run_cli("eigen", "--e", "2", "--L", "6")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert all(r["failures"] == [] for r in report["reports"])


def test_usage_errors_exit_2():
    assert run_cli("distinction", "--e", "2").returncode == 2
    assert run_cli("growth", "--e", "1").returncode == 2
    assert run_cli("eigen", "--q0", "1").returncode == 2
    assert run_cli("coefficient", "--q0", "1").returncode == 2
    assert run_cli("nonsense").returncode == 2
    proc = run_cli("distinction", "--e", "2")
    assert b"odd" in proc.stderr


# one argv per flag bound of _validate, with its message
FLAG_BOUNDS = {
    "growth --e 1": "--e must be at least 2",
    "coefficient --f 0": "--f must be at least 1",
    "growth --L -1": "--L must be nonnegative",
    "presentation --samples -1": "--samples must be nonnegative",
}


@pytest.mark.parametrize("argv, message", FLAG_BOUNDS.items(), ids=list(FLAG_BOUNDS))
def test_each_flag_bound_exits_2_in_process(argv, message, capsys):
    assert cli.run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_q0_must_be_prime_power():
    proc = run_cli("coefficient", "--q0", "6", "--L", "2")
    assert proc.returncode == 2
    assert b"prime power" in proc.stderr
    assert run_cli("coefficient", "--q0", "4", "--L", "2").returncode == 0
    powers = [n for n in range(2, 30) if cli._is_prime_power(n)]
    assert powers == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]


def trial_division_prime_power(n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def test_is_prime_power_is_exact_and_bounded():
    assert [n for n in range(2, 10_000) if cli._is_prime_power(n)] == [
        n for n in range(2, 10_000) if trial_division_prime_power(n)
    ]
    cases = {
        2**61 - 1: True,
        3**40: True,
        (2**31 - 1) * (2**61 - 1): False,
        (2**31 - 1) ** 3: True,
        # a strong pseudoprime to every prime base up to 37
        318_665_857_834_031_151_167_461: False,
    }
    for n, expect in cases.items():
        start = time.perf_counter()
        assert cli._is_prime_power(n) is expect, n
        assert time.perf_counter() - start < 0.01, n


def test_q0_above_exact_range_exits_2(capsys):
    assert cli.run(["coefficient", "--q0", str(cli.Q0_LIMIT), "--L", "1"]) == 2
    assert "--q0 too large" in capsys.readouterr().err


def test_L0_exits_2_naming_the_flag_for_eigen_and_all(capsys):
    # the eigen checks need a layer below the boundary; growth takes L = 0
    for argv in (["eigen", "--L", "0"], ["all", "--e", "3", "--L", "0"]):
        assert cli.run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "--L" in captured.err, argv
    assert cli.run(["growth", "--e", "3", "--L", "0"]) == 0


def test_empty_points_exits_2(capsys):
    # an empty --points is bad input, not a request for the default grid
    assert cli.run(["poincare", "--e", "3", "--points", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["poincare", "--points", "1/0"], "--points"),
        (["poincare", "--points="], "--points"),
        (["poincare", "--points=1/2,-1"], "--points"),
        (["distinction", "--expect-closed-form", "abc"], "--expect-closed-form"),
        (["eigen", "--chi-pi=1/0"], "--chi-pi"),
    ],
)
def test_parse_errors_exit_2_naming_the_flag(argv, flag, capsys):
    assert cli.run(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err, (argv, captured.err)


def test_check_failure_exits_1():
    proc = run_cli(
        "distinction", "--e", "3", "--L", "10", "--expect-closed-form", "7/8"
    )
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["ok"] is False


def test_import_loads_neither_dataclasses_nor_inspect():
    # every run of the command is a fresh process that pays for each module
    # the import pulls in; the modules site loaded first differ by host, so
    # the import is compared with the same interpreter just before it
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    probe = "import sys; bare = set(sys.modules); import heckezonal.cli; print(*sorted(set(sys.modules) - bare))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    added = set(proc.stdout.split())
    assert "heckezonal.cli" in added
    assert not added & {"dataclasses", "inspect", "csv"}


def test_seeded_runs_byte_identical():
    for args in (
        ("distinction", "--e", "3", "--f", "1", "--q0", "2", "--L", "20"),
        ("presentation", "--e", "3", "--seed", "7"),
        ("all", "--e", "3", "--L", "5", "--seed", "11"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout


def test_enumeration_cap_env(monkeypatch, capsys):
    monkeypatch.setattr(weyl, "ENUM_CAP", 10)
    assert cli.run(["growth", "--e", "4", "--L", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap of 10 elements" in captured.err


def test_enumeration_backstop_exits_2(monkeypatch, capsys):
    # with the count understated, _validate passes and the search itself
    # stops at the cap: that backstop is still bad input
    monkeypatch.setattr(weyl, "w0_count", lambda e, L, cap: 1)
    monkeypatch.setattr(weyl, "ENUM_CAP", 10)
    assert cli.run(["growth", "--e", "4", "--L", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "enumeration cap exceeded (cap of 10 elements)" in captured.err


def test_error_inside_a_check_propagates(monkeypatch):
    # only _validate's ValueError is bad input; one raised by a check is
    # a fault of the program and must not read as exit status 2
    def broken(*args):
        raise ValueError("broken check")

    monkeypatch.setattr(spherical, "psi0_coefficient", broken)
    with pytest.raises(ValueError, match="broken check"):
        cli.run(["eigen", "--e", "3", "--L", "2"])


@pytest.mark.parametrize("row", [r for r in ROWS if r["code"] == 2], ids=lambda r: r["argv"])
def test_refused_boundary_exits_2_at_once(row, capsys):
    # the budgets are arithmetic on the arguments: the run exits 2 before
    # it enumerates, expands or prints anything
    start = time.perf_counter()
    assert cli.run(row["argv"].split()) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    for part in row["err"]:
        assert part in captured.err, part


@pytest.mark.parametrize("row", [r for r in ROWS if r["code"] == 0], ids=lambda r: r["argv"])
def test_accepted_boundary_validates(row):
    # running these takes seconds and hundreds of MB: CI runs them
    cli._validate(cli.build_parser().parse_args(row["argv"].split()))


@pytest.mark.parametrize("argv, cap, quantity, count, names", EXACT, ids=[f"{r[0]} {r[1]}" for r in EXACT])
def test_budget_is_exact(argv, cap, quantity, count, names, monkeypatch, capsys):
    command = argv.split()[0]
    called = []
    fn = cli.COMMANDS[command]
    monkeypatch.setitem(cli.COMMANDS, command, lambda args: called.append(command) or fn(args))
    monkeypatch.setattr(f"heckezonal.{cap}", count - 1)
    assert cli.run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{names} could need {count} {quantity}, over the cap of {count - 1} {quantity}" in captured.err
    assert called == []
    monkeypatch.setattr(f"heckezonal.{cap}", count)
    assert cli.run(argv.split()) == 0
    assert called == [command]


# A declared element or slot stands for at most this many traced bytes:
# a slot is a pointer, and the e**2 entries of the step table, ts and
# ev's Gamma getters share one tuple's ints, so past 256 they are not
# int objects of their own
BYTES_PER_UNIT = 24
# what a run traces whatever it holds: the report, its text, the parser
BASELINE = 1 << 20


@pytest.mark.parametrize("argv", [
    ["growth", "--e", "400", "--L", "1"],
    ["coefficient", "--e", "400", "--L", "0"],
    ["eigen", "--e", "40", "--L", "2"],
    ["eigen", "--e", "20", "--L", "3"],
    ["eigen", "--e", "3", "--L", "40"],
    ["eigen", "--e", "2", "--L", "400"],
    ["distinction", "--e", "41", "--L", "2"],
    ["presentation", "--e", "60", "--samples", "5"],
    ["eigen", "--e", "2", "--L", "1000"],
    # just after the Hecke tables of the pi product grow
    ["eigen", "--e", "2", "--L", "2200"],
    # where most perm and getter entries are int objects of their own
    ["coefficient", "--e", "1000", "--L", "0"],
    # at e = 2 growth's report rows outweigh its BFS
    ["growth", "--e", "2", "--L", "5000"],
    ["growth", "--e", "2", "--L", "20000"],
])
def test_declared_costs_bound_traced_memory(argv):
    # the traced peak of a run stays within one multiple of the elements
    # and slots its cost function declares, at ranks where windows and
    # perms of e slots outweigh the objects that hold them, and for eigen,
    # which declares its Hecke terms, psi0 values and per-length tables,
    # and growth, which declares its report rows, at small ranks too, down
    # to e = 2, where a length has two elements.
    # The step table, the index tuple and the generators are cached per
    # rank, so the caches are emptied first and the run pays for what it
    # builds
    args = cli.build_parser().parse_args(argv)
    cli._validate(args)
    fn, *dests = cli.COSTS[argv[0]]
    cost = fn(*[vars(args)[d] for d in dests])
    caches = (weyl._right_steps, weyl._simple, weyl._identity, tensor._indices, dst.poincare_closed_form)
    for cached in caches:
        cached.cache_clear()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BYTES_PER_UNIT * (cost.get("elements", 0) + cost["slots"]) + BASELINE, (peak, cost)


def test_digit_bound_holds():
    # the bound from bit lengths is never below the printed digits, for
    # the default grid and for points near the ends of (-1, 1)
    rng = random.Random(23)
    for e in range(2, 80):
        points = [*dst.POINTS] + [Fraction(rng.randrange(-n + 1, n), n) for n in (7, 97, 1009)]
        bound = dst.poincare_cost(e, points)["digits"]
        for x in points:
            value = dst.poincare_value(e, x)
            assert max(len(str(value.numerator)), len(str(value.denominator))) <= bound, (e, x)


def test_distinction_digit_bound_holds():
    # the bound from bit lengths is never below the printed digits, on a
    # seeded grid of odd e, f, prime-power q0 and L from 0 up
    rng = random.Random(29)
    for e, max_L in ((3, 60), (5, 8), (7, 5)):
        for _ in range(12):
            f, q0, L = rng.randrange(1, 5), rng.choice((2, 3, 4, 5, 7, 8, 9, 16, 27, 49)), rng.randrange(max_L + 1)
            report = dst.distinction_integral(e, f, q0, L)
            values = (report.partial_sum, report.closed_form, report.abs_error, report.tail_bound)
            printed = max(len(str(abs(n))) for x in values for n in (x.numerator, x.denominator))
            assert printed <= dst.integral_cost(e, f, q0, L)["digits"], (e, f, q0, L)


def test_golden_and_benchmark_argvs_validate():
    # every argv with a golden file or in a benchmark workload's universe
    # passes every budget, at the default caps
    from test_golden import CASES

    spec = importlib.util.spec_from_file_location("jobs", SRC.parent / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    argvs = list(CASES.values()) + [argv for w in jobs.WORKLOADS for argv in jobs.universe(w)]
    assert len(argvs) > 700
    parser = cli.build_parser()
    for argv in argvs:
        cli._validate(parser.parse_args(argv))


def test_w0_count_matches_the_closed_form():
    for e in range(2, 9):
        for L in range(0, 16):
            total = sum(dst.growth_closed_form(e, L))
            assert weyl.w0_count(e, L, 10**30) == total, (e, L)
            if e <= 5:
                assert sum(dst.growth_bfs(e, L)) == total, (e, L)
            # below the cap the count is exact; over it, a sum over the cap
            count = weyl.w0_count(e, L, 500)
            assert count == total if total <= 500 else 500 < count <= total, (e, L)


def test_growth_at_large_rank_exits_0(capsys):
    # the closed form has degree e, not about e**2 / 2 as the expanded product
    assert cli.run(["growth", "--e", "120", "--L", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["count_bfs"], r["count_closed_form"]) for r in rows] == [(1, 1), (120, 120)]


def test_text_output():
    proc = run_cli("poincare", "--e", "3", "--output", "text")
    assert proc.returncode == 0
    assert b"all_positive: True" in proc.stdout


def test_coefficient_wrong_length_on_one_element_exits_1(monkeypatch, capsys):
    # off by one on the last element of layer 3: the closed value comes
    # from the layer's first element, so only the per-element test sees it
    target = enumerate_by_length(3, 3)[3][-1]
    length = AffinePermutation.length

    def patched(self):
        return length(self) + (self == target)

    monkeypatch.setattr(AffinePermutation, "length", patched)
    assert cli.run(["coefficient", "--e", "3", "--L", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["mismatches"] == 1 and report["ok"] is False


def test_failing_presentation_names_its_cases(monkeypatch, capsys):
    # pi**k applied as pi**-k breaks the pi relations; the report names
    # each failing family's case labels, and passing families carry none
    wrong_pi_power(monkeypatch)
    assert cli.run(["presentation", "--e", "4"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["iv"]["ok"] is False
    assert checks["iv"]["failures"] == ["i=2", "i=3"]
    for c in checks.values():
        assert ("failures" in c) == (not c["ok"])
        assert len(c.get("failures", [])) == c["cases"] - c["passed"]


# The flag contract: each subcommand reads exactly these flags besides
# --output, and one value per flag that differs from its default.
READS = {
    "presentation": ("--e", "--seed", "--samples"),
    "eigen": ("--e", "--L", "--chi-pi"),
    "coefficient": ("--e", "--f", "--q0", "--L", "--seed", "--samples"),
    "growth": ("--e", "--L"),
    "poincare": ("--e", "--points"),
    "distinction": ("--e", "--f", "--q0", "--L", "--expect-closed-form"),
    "gelfand": (),
    "all": ("--e", "--f", "--q0", "--L", "--chi-pi", "--seed", "--samples"),
}
VALUES = {
    "--e": "5", "--f": "2", "--q0": "3", "--L": "2", "--chi-pi": "2", "--seed": "1",
    "--samples": "1", "--points": "1/2", "--expect-closed-form": "1", "--output": "text",
}


def test_each_subcommand_rejects_the_flags_it_does_not_read(capsys):
    for command, reads in READS.items():
        for flag in VALUES.keys() - {*reads, "--output"}:
            with pytest.raises(SystemExit) as exc:
                cli.run([command, f"{flag}={VALUES[flag]}"])
            captured = capsys.readouterr()
            assert exc.value.code == 2, (command, flag)
            assert captured.out == "" and flag in captured.err, (command, flag)


def test_each_flag_a_subcommand_takes_changes_its_output(capsys):
    def stdout(argv):
        assert cli.run(argv) == 0, argv
        return capsys.readouterr().out

    # small parameters: e = 3 by default, L <= 3 where L is read
    small = {"--L": "3", "--samples": "1"}
    for command, reads in READS.items():
        for flag in (*reads, "--output"):
            if (command, flag) == ("coefficient", "--samples"):
                continue  # not in the report; see the next test
            base = [command] + [f"{f}={v}" for f, v in small.items() if f in reads and f != flag]
            assert stdout(base + [f"{flag}={VALUES[flag]}"]) != stdout(base), (command, flag)


def test_coefficient_samples_sets_the_number_of_sampled_elements(monkeypatch):
    # a passing coefficient report does not echo --samples, and its bytes
    # are pinned, so count the elements its k-invariance checks draw
    drawn = []
    honest = tensor.random_element
    monkeypatch.setattr(tensor, "random_element", lambda e, rng: drawn.append(e) or honest(e, rng))
    for argv, count in ((["--samples=3"], 3), ([], 25)):
        drawn.clear()
        assert cli.run(["coefficient", "--L", "3", *argv]) == 0
        assert len(drawn) == count, argv


def test_chi_pi_zero_exits_2_before_any_suite_runs(monkeypatch, capsys):
    called = []
    for name, fn in cli.COMMANDS.items():
        def recording(args, name=name, fn=fn):
            called.append(name)
            return fn(args)

        monkeypatch.setitem(cli.COMMANDS, name, recording)
    for argv in (["eigen", "--chi-pi=0"], ["all", "--e", "3", "--L", "3", "--chi-pi=0"]):
        assert cli.run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "--chi-pi" in captured.err, argv
    assert called == []


# the prime powers up to 27, written out rather than taken from the
# primality test under check
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)


@st.composite
def small_valid_argv(draw, command):
    """(argv, e): an argv of command that names only valid, small values."""
    strategies = {
        "--e": st.integers(2, 6),
        "--f": st.integers(1, 2),
        "--q0": st.sampled_from(PRIME_POWERS),
        "--L": st.integers(1 if command in ("eigen", "all") else 0, 4),
        "--chi-pi": st.fractions(-10, 10, max_denominator=12).filter(bool).map(format_rational),
        "--seed": st.integers(0, 10**6),
        "--samples": st.integers(0, 3),
        "--points": st.lists(
            st.fractions(-1, 1, max_denominator=12).filter(lambda x: abs(x) < 1).map(format_rational),
            min_size=1, max_size=3,
        ).map(",".join),
        "--output": st.sampled_from(("json", "csv", "text")),
    }
    values = {}
    for flag in (*cli.SUBCOMMANDS[command][1:], "--output"):
        # --e, --L and --samples keep their small range; the rest may default
        if flag in strategies and (flag in ("--e", "--L", "--samples") or draw(st.booleans())):
            values[flag] = draw(strategies[flag])
    e = values.get("--e", 3)
    if command == "distinction" and e % 2 and draw(st.booleans()):
        f, q0 = values.get("--f", 1), values.get("--q0", 2)
        values["--expect-closed-form"] = format_rational(e * dst.poincare_value(e, Fraction(-1, q0**f)))
    return [command] + [f"{flag}={value}" for flag, value in values.items()], e


@pytest.mark.parametrize("command", cli.COMMANDS)
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_small_valid_argvs_exit_0(command, data):
    # e <= 6, L <= 4, f <= 2, q0 a prime power <= 27, any nonzero
    # --chi-pi, any --points in (-1, 1) and every --output: a check at
    # the boundary that rejects valid input, or a budget set too tight,
    # fails here.  distinction at even e is the one bad input drawn.
    argv, e = data.draw(small_valid_argv(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(argv)
    if command == "distinction" and e % 2 == 0:
        assert status == 2 and out.getvalue() == "", argv
        assert "distinction requires odd --e" in err.getvalue(), argv
    else:
        assert status == 0 and err.getvalue() == "", argv
