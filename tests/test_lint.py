"""Static checks on the package source (no linter is a dependency)."""

import ast
from pathlib import Path

import klr


def unused_imports(source):
    """Names a module imports but never reads, except those in __all__."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_detected():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from x import a, b\n__all__ = ['b']\nprint(a)\n")
    assert unused_imports(source) == ["os", "regex"]


def test_no_unused_imports_in_package():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(Path(klr.__file__).parent.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
