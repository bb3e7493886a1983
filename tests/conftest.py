import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from heckezonal.weyl import AffinePermutation

# One line per acceptance criterion, printed in the terminal summary so the
# pass/fail verdicts are visible in a plain `pytest -v` run.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def constructions(monkeypatch) -> list:
    """The window of every AffinePermutation built from here on, checked
    (``__post_init__``) or wrapped (``_raw``)."""
    built = []
    raw = AffinePermutation._raw.__func__
    checked = AffinePermutation.__post_init__
    monkeypatch.setattr(
        AffinePermutation, "_raw", classmethod(lambda cls, e, win: built.append(win) or raw(cls, e, win))
    )
    monkeypatch.setattr(AffinePermutation, "__post_init__", lambda w0: built.append(w0.window) or checked(w0))
    return built


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
