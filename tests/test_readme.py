"""The README's library example runs as written against the package, and
its budget boundaries are rows of the boundary table."""

import pathlib
import re

from boundaries import ROWS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SUBCOMMAND_ARGV = re.compile(r"`((?:presentation|eigen|coefficient|growth|poincare|distinction|all)\s+--[^`]*)`")


def test_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_budget_boundaries_are_table_rows():
    # every argv in the budget section says whether it passes or exits 2,
    # and the table has that argv with that code
    section = README.read_text().split("### Run budgets", 1)[1].split("\n## ", 1)[0]
    rows = {r["argv"]: r["code"] for r in ROWS}
    found = []
    for match in SUBCOMMAND_ARGV.finditer(section):
        argv = " ".join(match.group(1).split())
        verdict = re.match(r"\s+(passes|exits? 2)", section[match.end():])
        assert verdict, argv
        found.append(argv)
        assert rows.get(argv) == (0 if verdict.group(1) == "passes" else 2), argv
    assert len(found) >= 16
