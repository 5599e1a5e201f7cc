"""The package imports nothing outside the standard library, and nothing unused.

transit6 is meant to run on a bare CPython, so every absolute import in
``src/transit6`` must name ``__future__``, ``transit6`` itself, or a
top-level module of the standard library. Relative imports stay inside the
package. Every name a module imports must also be read in it, so code that
moves between modules leaves no import behind.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "transit6"
ALLOWED = {"__future__", "transit6"} | set(sys.stdlib_module_names)


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_stdlib_or_the_package():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    outside = [
        (path.name, name)
        for path in modules
        for name in _absolute_imports(path)
        if name.split(".")[0] not in ALLOWED
    ]
    assert outside == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append((path.name, name))
    assert unused == []
