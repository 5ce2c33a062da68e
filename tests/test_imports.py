from __future__ import annotations

import ast
from pathlib import Path

import lelma

PACKAGE = Path(lelma.__file__).parent


def private_imports(path: Path) -> "list[str]":
    """`module.name` for each `_`-prefixed name imported from another lelma module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "lelma":
            continue
        found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    found = {p.name: private_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert "verification.py" in found
    assert {name: names for name, names in found.items() if names} == {}
