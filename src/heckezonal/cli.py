"""Batch command-line frontend: it only parses arguments, validates them,
dispatches each subcommand to the library check that owns its verdict,
and emits the report to stdout as JSON (default), CSV or text.  Each
subcommand takes only the flags it reads, plus --output, and rejects
every other flag.  Exit status: 0 when every check passes, 1 on a check
failure, 2 on invalid parameters; an error inside a check is not
reported as 2 but propagates.  Randomized spot checks are driven by
an explicit seed, so identical configurations produce byte-identical
output.  The arguments are the only input: the constants
``weyl.ENUM_CAP`` and ``weyl.SLOT_CAP`` cap group enumeration, and a
subcommand with --L exits 2 before any enumeration when W0 has more
elements of length <= L than the first, or when those elements hold more
window slots, e each, than the second: the budget is the binomial count
C(L+e, e) - C(L, e) (``distinction.w0_count``).  ``presentation`` and
``all`` exit 2 at once when the (e-2)(e-3)/2 cases of presentation
family (vi), windows of e slots each, hold more slots than the second
cap, and ``coefficient`` when e operators of e slots each do.
``poincare`` and ``all`` exit 2 at once when an exact Poincare value
could print more than ``DIGIT_CAP`` digits, ``growth`` when a binomial
of the closed form's denominator (1 - X)**e could hold more, and
``distinction`` and ``all`` at odd e when a value of the distinction sum
could.
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
from .hecke import verify_presentation
from .scalars import format_rational, parse_rational
from .spherical import verify_eigen
from .tensor import verify_coefficient
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


# One parent parser per flag, built once at import.  argparse shares a
# parent's actions with every subparser that lists it, so build_parser
# only registers them.  No subparser may call set_defaults with one of
# these dests: that would write into the shared action.
FLAG_PARSERS = {}
for _flag, _spec in (
    ("--e", dict(type=int, default=3, help="rank (number of tensor places)")),
    ("--f", dict(type=int, default=1, help="block size parameter")),
    ("--q0", dict(type=int, default=2, help="residue field size, a prime power below 3.3e24")),
    ("--L", dict(type=int, default=8, help="length truncation")),
    ("--chi-pi", dict(default="1", help="rational unit value for chi(pi)")),
    ("--seed", dict(type=int, default=DEFAULT_SEED, help="seed for sampled checks")),
    ("--samples", dict(type=int, default=25, help="number of sampled checks")),
    ("--points", dict(help="comma-separated rationals in (-1,1); default is the fixed grid 0 "
                      "and -1/q0**f for q0 in 2..5 and f in 1..2")),
    ("--expect-closed-form", dict(help="optional rational the closed form must equal (for CI pinning)")),
    ("--output", dict(choices=("json", "csv", "text"), default="json", help="report format")),
):
    FLAG_PARSERS[_flag] = argparse.ArgumentParser(add_help=False)
    FLAG_PARSERS[_flag].add_argument(_flag, **_spec)

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
        sub.add_parser(name, help=text, parents=[FLAG_PARSERS[flag] for flag in (*flags, "--output")])
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
    if "L" in given:
        # every subcommand with --L enumerates W0 to length L, and each
        # element holds a window of e ints: count both first
        cap, slot_cap = weyl.ENUM_CAP, weyl.SLOT_CAP
        count = dst.w0_count(args.e, args.L, min(cap, slot_cap // args.e))
        if count > cap:
            raise ValueError(
                f"--e {args.e} --L {args.L} would enumerate at least {count} elements of W0, "
                f"over the cap of {cap} elements"
            )
        if count * args.e > slot_cap:
            raise ValueError(
                f"--e {args.e} --L {args.L} would hold at least {count * args.e} window slots "
                f"({count} elements of W0, {args.e} slots each), over the cap of {slot_cap} slots"
            )
    if args.command in ("presentation", "all"):
        # family (vi) of the presentation has (e-2)(e-3)/2 commutation
        # cases, and each multiplies windows of e slots: count those first
        slot_cap = weyl.SLOT_CAP
        cases = (args.e - 2) * (args.e - 3) // 2
        if cases * args.e > slot_cap:
            raise ValueError(
                f"--e {args.e}: presentation family (vi) would multiply windows of {args.e} slots "
                f"in {cases} cases, {cases * args.e} slots in all, over the cap of {slot_cap} slots"
            )
    if args.command == "coefficient" and args.e * args.e > weyl.SLOT_CAP:
        # the operator check holds e transpositions and up to e Gamma
        # powers, perms of e slots each, whatever --L is; all meets the
        # presentation budget at a far lower rank
        raise ValueError(
            f"--e {args.e}: coefficient would hold {args.e * args.e} operator slots "
            f"({args.e} slots in each of {args.e} operators), over the cap of {weyl.SLOT_CAP} slots"
        )
    if args.command in ("poincare", "growth", "all"):
        # growth expands the closed form's denominator (1 - X)**e, whose
        # binomials are below 2**e: the Poincare bound at x = 0
        points = [Fraction(0)] if args.command == "growth" else _poincare_points(args)
        digits = _poincare_digits(args.e, points)
        if digits > DIGIT_CAP:
            flags = f"--e {args.e}" + (" with the given --points" if given.get("points") else "")
            what = "a coefficient of (1 - X)**e" if args.command == "growth" else "a Poincare value"
            raise ValueError(
                f"{flags}: {what} could have up to {digits} digits, "
                f"over the cap of {DIGIT_CAP} digits"
            )
    if args.command == "distinction" or (args.command == "all" and args.e % 2):
        digits = _distinction_digits(args.e, args.f, args.q0, args.L)
        if digits > DIGIT_CAP:
            raise ValueError(
                f"--e {args.e} --f {args.f} --q0 {args.q0} --L {args.L}: a distinction value could "
                f"have up to {digits} digits, over the cap of {DIGIT_CAP} digits"
            )


def _poincare_digits(e: int, points: list[Fraction]) -> int:
    """A bound on the decimal digits of the exact Poincare values at points.

    At x = a/b the value is (b**e - a**e) / (b - a)**e, and |a| < b, so
    its numerator is below 2 * b**e and its denominator is (b - a)**e,
    even before reduction.  An integer of n bits has at most
    floor(n * log10(2)) + 1 digits, and log10(2) < 0.30103.  Only bit
    lengths are multiplied, so the bound is cheap for any e.
    """
    bits = 0
    for x in points:
        a, b = x.numerator, x.denominator
        bits = max(bits, e * b.bit_length() + 1, e * (b - a).bit_length())
    return bits * 30103 // 100000 + 1


def _distinction_digits(e: int, f: int, q0: int, L: int) -> int:
    """A bound on the decimal digits of the exact values ``distinction``
    prints: partial_sum, closed_form, abs_error and tail_bound.

    With Q = q0**f >= 2, each value is at most 2 * e * 2**e in size (e
    times a series at +-1/Q, at most (1 - 1/Q)**-e), and its denominator
    divides Q**L * (Q + 1)**e or Q**L * (Q - 1)**e.  As Q <= 2**m and
    Q + 1 <= 2**c for the bit lengths m of Q - 1 and c of Q, numerator
    and denominator are below 2**(1 + b + e + m*L + c*e), b the bit
    length of e, and digits follow as in ``_poincare_digits``.  Q itself
    is computed only below 2**16 bits; past that, f times the bit length
    of q0 stands for m and c, a bound of over 29,000 digits either way.
    """
    m = c = f * q0.bit_length()
    if c < 1 << 16:
        q = q0**f
        m, c = (q - 1).bit_length(), q.bit_length()
    bits = 1 + e.bit_length() + e + m * L + c * e
    return bits * 30103 // 100000 + 1


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
        {"length": ell, "count_bfs": b, "equal": b == c,
         "count_closed_form": format_rational(c) if isinstance(c, Fraction) else c}
        for ell, (b, c) in enumerate(itertools.zip_longest(bfs, closed))
    ]


def cmd_growth(args) -> tuple[bool, dict]:
    rows = growth_rows(args.e, args.L)
    ok = all(r["equal"] for r in rows)
    return ok, {"e": args.e, "L": args.L, "rows": rows, "ok": ok}


def _poincare_points(args) -> list[Fraction]:
    if args.points is not None:
        return args.points
    points = [Fraction(0)]
    for q0 in (2, 3, 4, 5):
        for f in (1, 2):
            points.append(Fraction(-1, q0**f))
    return sorted(set(points))


def cmd_poincare(args) -> tuple[bool, dict]:
    report = dst.nonvanishing_scan(args.e, _poincare_points(args))
    return report["all_positive"], report


def cmd_distinction(args) -> tuple[bool, dict]:
    report = dst.distinction_integral(args.e, args.f, args.q0, args.L)
    out = report.to_json()
    if args.expect_closed_form is not None:
        # a CI pin of the closed value, not part of the library's verdict
        out["expected_closed_form"] = format_rational(args.expect_closed_form)
        out["ok"] = report.ok and report.closed_form == args.expect_closed_form
    return out["ok"], out


def cmd_gelfand(args) -> tuple[bool, dict]:
    report = gf.check_catalog()
    return report["ok"], report


def cmd_all(args) -> tuple[bool, dict]:
    sections = {}
    ok = True
    for name, fn in COMMANDS.items():
        if name == "all" or (name == "distinction" and args.e % 2 == 0):
            continue
        section_ok, sections[name] = fn(args)
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
