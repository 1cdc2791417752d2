"""README.md against the code it documents."""

from pathlib import Path

from finslerlab.cli import CHECKS, SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"
CHECK_TABLE_HEADER = "| check | verifies | metric kind | default tolerance | config key |"


def _table_rows(header: str) -> list[list[str]]:
    """The cells of each row of the README table under the given header line."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2  # past the header and its |---| line
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def test_the_readme_check_table_lists_every_check_and_its_tolerance_key():
    rows = _table_rows(CHECK_TABLE_HEADER)
    assert [row[0] for row in rows] == [f"`{check}`" for check in CHECKS]
    assert [row[-1] for row in rows] == [
        f"`tolerances.{check}`" if check in SCHEMA["tolerances"] else "none" for check in CHECKS]
