"""The README's check and selector tables against the registry they document."""

from pathlib import Path

from chaincat.verify import CHECKS, SELECTORS

README = Path(__file__).resolve().parent.parent / "README.md"


def _table(header: str) -> list[list[str]]:
    """The body rows of the README table whose first column is headed
    ``header``, each as its stripped cells."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|") and line.split("|")[1].strip() == header)
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_check_table_matches_the_registry():
    documented = {row[0].strip("`"): row[1] for row in _table("check")}
    assert documented == {name: f"{d.min_n}..{d.max_n}" for name, d in CHECKS.items()}
    assert list(documented) == list(CHECKS)


def test_selector_table_matches_the_selectors():
    assert [row[0].strip("`") for row in _table("selector")] == list(SELECTORS)
