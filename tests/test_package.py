"""The package's module boundaries, read from the source without importing
it."""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "hgsense"


def _underscore_imports(path: Path) -> list[str]:
    """'module.name' for each underscore name path imports from another
    hgsense module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("hgsense")):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_an_underscore_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    found = {path.name: names for path in modules
             if (names := _underscore_imports(path))}
    assert found == {}
