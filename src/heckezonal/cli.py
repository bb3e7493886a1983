"""Batch command-line frontend: it only parses arguments, validates them,
dispatches each subcommand to the library check that owns its verdict,
and emits the report to stdout as JSON (default), CSV or text.  Each
subcommand takes only the flags it reads, plus --output, and rejects
every other flag.  Exit status: 0 when every check passes, 1 on a check
failure, 2 on invalid parameters; an error inside a check is not
reported as 2 but propagates.  Randomized spot checks are driven by
an explicit seed, so identical configurations produce byte-identical
output.

The arguments are the only input, and one rule bounds a run: the cost
function beside each library entry a subcommand runs declares the
elements, slots and digits it holds (``hecke.presentation_cost``,
``spherical.eigen_cost``, ``tensor.coefficient_cost``, and
``growth_cost``, ``poincare_cost`` and ``integral_cost`` in
``distinction``), and the run exits 2 before any starts when the most
of one over them is over ``weyl.ENUM_CAP``, ``weyl.SLOT_CAP`` or
``DIGIT_CAP``.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import sys
from fractions import Fraction

from . import distinction as dst
from . import gelfand as gf
from . import weyl
from .hecke import presentation_cost, verify_presentation
from .scalars import json_value, parse_rational
from .spherical import eigen_cost, verify_eigen
from .tensor import coefficient_cost, verify_coefficient
from .weyl import EnumerationCapExceeded

__all__ = ["build_parser", "run"]

DEFAULT_SEED = 12345
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# Miller-Rabin with these bases decides primality exactly below Q0_LIMIT
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
Q0_LIMIT = 3_317_044_064_679_887_385_961_981
# the most decimal digits of a printed integer: Python's default limit on
# int-to-str conversion
DIGIT_CAP = 4300

# Each section's cost function and the flags it reads; gelfand's fixed catalog has none
COSTS = {
    "presentation": (presentation_cost, "e"),
    "eigen": (eigen_cost, "e", "L"),
    "coefficient": (coefficient_cost, "e", "L"),
    "growth": (dst.growth_cost, "e", "L"),
    "poincare": (dst.poincare_cost, "e", "points"),
    "distinction": (dst.integral_cost, "e", "f", "q0", "L"),
}


# Each flag's argparse spec; every subcommand that reads a flag gets its own action
FLAGS = {
    "--e": dict(type=int, default=3, help="rank (number of tensor places)"),
    "--f": dict(type=int, default=1, help="block size parameter"),
    "--q0": dict(type=int, default=2, help="residue field size, a prime power below 3.3e24"),
    "--L": dict(type=int, default=8, help="length truncation"),
    "--chi-pi": dict(default="1", help="rational unit value for chi(pi)"),
    "--seed": dict(type=int, default=DEFAULT_SEED, help="seed for sampled checks"),
    "--samples": dict(type=int, default=25, help="number of sampled checks"),
    "--points": dict(help="comma-separated rationals in (-1,1); default is the fixed grid 0 "
                     "and -1/q0**f for q0 in 2..5 and f in 1..2"),
    "--expect-closed-form": dict(help="optional rational the closed form must equal (for CI pinning)"),
    "--output": dict(choices=("json", "csv", "text"), default="json", help="report format"),
}

# Each subcommand's help line and the flags it reads besides --output;
# all reads the flags of its sections except the two optional ones.
SUBCOMMANDS = {
    "presentation": ("defining relations of the algebra", "--e", "--seed", "--samples"),
    "eigen": ("truncated eigen-equation of the spherical vector", "--e", "--L", "--chi-pi"),
    "coefficient": (
        "operator model vs closed coefficient form",
        "--e", "--f", "--q0", "--L", "--seed", "--samples",
    ),
    "growth": ("BFS growth counts vs closed-form series", "--e", "--L"),
    "poincare": ("exact Poincare series values", "--e", "--points"),
    "distinction": ("truncated double-coset sum", "--e", "--f", "--q0", "--L", "--expect-closed-form"),
    "gelfand": ("shipped finite pairing examples",),
    "all": (
        "run every suite with the given parameters",
        "--e", "--f", "--q0", "--L", "--chi-pi", "--seed", "--samples",
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process.

    Reuse is safe: ``parse_args`` builds a fresh namespace on every call
    and mutates no parser state, and ``run`` validates that namespace,
    never the parser.
    """
    parser = argparse.ArgumentParser(
        prog="heckezonal",
        description="Exact verification suites for affine Hecke algebra identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, *flags) in SUBCOMMANDS.items():
        command = sub.add_parser(name, help=text)
        for flag in (*flags, "--output"):
            command.add_argument(flag, **FLAGS[flag])
    sub.choices["coefficient"].description = (
        "Operator model vs closed coefficient form on every w0 with "
        "l(w0) <= L; the reduced-word independence check covers l(w0) <= min(L, 6)."
    )
    # all runs poincare and distinction without their optional flags
    sub.choices["all"].set_defaults(points=None, expect_closed_form=None)
    return parser


def _validate(args) -> None:
    """Check each flag the command has, once; rationals are parsed here."""
    given = vars(args)
    if "e" in given and args.e < 2:
        raise ValueError("--e must be at least 2")
    if "f" in given and args.f < 1:
        raise ValueError("--f must be at least 1")
    if "q0" in given:
        if args.q0 >= Q0_LIMIT:
            raise ValueError("--q0 too large")
        if args.q0 < 2 or not _is_prime_power(args.q0):
            raise ValueError("--q0 must be a prime power")
    if "L" in given:
        if args.L < 0:
            raise ValueError("--L must be nonnegative")
        if args.L < 1 and args.command in ("eigen", "all"):
            raise ValueError(f"--L must be at least 1 for {args.command}")
    if "samples" in given and args.samples < 0:
        raise ValueError("--samples must be nonnegative")
    if "chi_pi" in given:
        args.chi_pi = _parse_flag("--chi-pi", args.chi_pi)
        if args.chi_pi == 0:
            raise ValueError("--chi-pi must be a unit")
    if given.get("points") is not None:
        args.points = [_parse_flag("--points", tok) for tok in args.points.split(",")]
        for x in args.points:
            if not -1 < x < 1:
                raise ValueError(f"--points: sample point {x} outside (-1, 1)")
    if given.get("expect_closed_form") is not None:
        args.expect_closed_form = _parse_flag("--expect-closed-form", args.expect_closed_form)
    if args.command == "distinction" and args.e % 2 == 0:
        raise ValueError("distinction requires odd --e")
    # the sections run one after another, each releasing what it holds
    costs = []
    for name in _sections(args):
        fn, *dests = COSTS.get(name, (dict,))
        costs.append((name, dests, fn(*[given[d] for d in dests])))
    for quantity, cap in (("elements", weyl.ENUM_CAP), ("slots", weyl.SLOT_CAP), ("digits", DIGIT_CAP)):
        name, dests, cost = max(costs, key=lambda c: c[2].get(quantity, 0))
        if cost.get(quantity, 0) > cap:
            # a list of points may be long: only its flag is named
            flags = " ".join(f"--{d} {given[d]}" if d != "points" else "--points"
                             for d in dests if given[d] is not None)
            raise ValueError(
                f"{flags}: {name} could need {cost[quantity]} {quantity}, over the cap of {cap} {quantity}"
            )


def _sections(args) -> list[str]:
    """The subcommands args.command runs: all runs the others, distinction at odd e only."""
    if args.command != "all":
        return [args.command]
    return [name for name in COMMANDS if name != "all" and (name != "distinction" or args.e % 2)]


def _parse_flag(flag: str, text: str) -> Fraction:
    """A rational flag value; a parse error names the flag."""
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41: exact for n < Q0_LIMIT.

    A False is always right; a True above Q0_LIMIT is unproven.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def _is_prime_power(n: int) -> bool:
    """Whether n = p**m for a prime p and m >= 1; exact for n < Q0_LIMIT."""
    for k in range(1, n.bit_length()):
        r = _iroot(n, k)
        if r**k == n and _is_probable_prime(r):
            return True
    return False


def cmd_presentation(args) -> tuple[bool, dict]:
    report = verify_presentation(args.e, samples=args.samples, seed=args.seed)
    return report.ok, report.to_json()


def cmd_eigen(args) -> tuple[bool, dict]:
    report = verify_eigen(args.e, args.L, args.chi_pi)
    return report["ok"], report


def cmd_coefficient(args) -> tuple[bool, dict]:
    report = verify_coefficient(args.e, args.f, args.q0, args.L, args.seed, args.samples)
    return report["ok"], report


def growth_rows(e: int, L: int) -> list[dict]:
    """One row per length 0..L; a count missing on either side is None, so a
    BFS that stops short fails its missing rows; a Fraction prints as num/den."""
    bfs, closed = dst.growth_bfs(e, L), dst.growth_closed_form(e, L)
    return [
        {"length": ell, "count_bfs": b, "equal": b == c, "count_closed_form": json_value(c)}
        for ell, (b, c) in enumerate(itertools.zip_longest(bfs, closed))
    ]


def cmd_growth(args) -> tuple[bool, dict]:
    rows = growth_rows(args.e, args.L)
    ok = all(r["equal"] for r in rows)
    return ok, {"e": args.e, "L": args.L, "rows": rows, "ok": ok}


def cmd_poincare(args) -> tuple[bool, dict]:
    report = dst.nonvanishing_scan(args.e, args.points)
    return report["all_positive"], report


def cmd_distinction(args) -> tuple[bool, dict]:
    report = dst.distinction_integral(args.e, args.f, args.q0, args.L)
    out = report.to_json()
    if args.expect_closed_form is not None:
        # a CI pin of the closed value, not part of the library's verdict
        out["expected_closed_form"] = json_value(args.expect_closed_form)
        out["ok"] = report.ok and report.closed_form == args.expect_closed_form
    return out["ok"], out


def cmd_gelfand(args) -> tuple[bool, dict]:
    report = gf.check_catalog()
    return report["ok"], report


def cmd_all(args) -> tuple[bool, dict]:
    sections = {}
    ok = True
    for name in _sections(args):
        section_ok, sections[name] = COMMANDS[name](args)
        ok = ok and section_ok
    sections["ok"] = ok
    return ok, sections


COMMANDS = {
    "presentation": cmd_presentation,
    "eigen": cmd_eigen,
    "coefficient": cmd_coefficient,
    "growth": cmd_growth,
    "poincare": cmd_poincare,
    "distinction": cmd_distinction,
    "gelfand": cmd_gelfand,
    "all": cmd_all,
}


def _emit_csv(command: str, report: dict) -> str:
    # imported here, so that no other output format pays for it
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command == "growth":
        header = ["length", "count_bfs", "count_closed_form", "equal"]
        writer.writerow(header)
        writer.writerows([row[key] for key in header] for row in report["rows"])
    else:
        writer.writerow(["key", "value"])
        for key in sorted(report):
            value = report[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            writer.writerow([key, value])
    return buf.getvalue()


def _emit_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_emit_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def emit(command: str, report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return _emit_csv(command, report)
    return _emit_text(report) + "\n"


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ok, report = COMMANDS[args.command](args)
    except EnumerationCapExceeded as exc:
        # the cap's backstop; any other error inside a check propagates
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(emit(args.command, report, args.output))
    return EXIT_OK if ok else EXIT_CHECK_FAILED
