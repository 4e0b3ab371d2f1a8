"""No module under src/, scripts/ or tests/ imports a name it never uses.

A plain AST scan: a name bound by an import statement must be read
somewhere in the same module, or be listed in the module's __all__ (the
package namespace re-exports).  __future__ imports bind nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scanner_flags_only_unread_names():
    src = "import os, sys\nfrom a import b as c, d\n__all__ = ['d']\nprint(sys)\n"
    assert unused_imports(src) == ["line 1: os", "line 2: c"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for top in ("src", "scripts", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
