"""The package's size, by the metric ROADMAP.md tracks.

The metric counts the lines of ``src/matchsim/*.py`` that are neither blank
nor ``#`` comments, the same count as

    cat src/matchsim/*.py | grep -v '^\\s*$' | grep -v '^\\s*#' | wc -l

run from the repository root. Raising ``LIMIT`` needs a line in CHANGES.md
that says why the package has to grow.
"""

from pathlib import Path

LIMIT = 2063

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matchsim"


def source_lines() -> int:
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py")))
    return sum(1 for line in map(str.strip, text.splitlines()) if line and not line.startswith("#"))


def test_package_stays_within_its_line_budget():
    assert source_lines() <= LIMIT
