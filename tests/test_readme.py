"""README's Tolerances and sizes tables, held to the module constants."""

import ast
import importlib
import re
from pathlib import Path

import persuade

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(persuade.__file__).resolve().parent
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
ROW = re.compile(r"\| `(\w+)\.([A-Z][A-Z0-9_]*)` \| ([^|]+?) \|")


def _tables() -> list[list[tuple[str, str, str]]]:
    """The (module, name, value cell) rows of each table under ``## Tolerances``."""
    section = README.read_text(encoding="utf-8").split("\n## Tolerances\n")[1].split("\n## ")[0]
    tables = []
    for block in re.split(r"\n(?!\|)[^\n]*", section):
        rows = [ROW.match(line).groups() for line in block.splitlines() if ROW.match(line)]
        if rows:
            tables.append(rows)
    return tables


def _value(cell: str):
    """A value cell as a number: 1e-9, 0.10, 2,000,000, or a power such as 2¹⁸."""
    power = re.fullmatch(r"(\d+)([⁰¹²³⁴⁵⁶⁷⁸⁹]+)", cell)
    if power:
        return int(power[1]) ** int(power[2].translate(SUPERSCRIPTS))
    return float(cell.replace(",", ""))


def _constants() -> list[tuple[str, str]]:
    """(module, name) of each module-level numeric constant in the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"persuade.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                name = getattr(target, "id", "")
                value = getattr(module, name, None)
                if re.fullmatch(r"[A-Z][A-Z0-9_]*", name) and type(value) in (int, float):
                    found.append((path.stem, name))
    return found


def test_readme_tables_give_each_constant_its_value():
    tables = _tables()
    assert len(tables) == 2
    for module, name, cell in (row for table in tables for row in table):
        want = getattr(importlib.import_module(f"persuade.{module}"), name)
        assert _value(cell) == want, (module, name, cell)


def test_each_numeric_constant_sits_in_one_readme_table():
    listed = [(module, name) for table in _tables() for module, name, _ in table]
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(_constants())
