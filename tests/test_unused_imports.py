"""Every top-level import in the package and in its tests is used by its
module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_unused_top_level_import():
    package = sorted(p for p in (ROOT / "src" / "comtes").glob("*.py") if p.name != "__init__.py")
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert package and tests
    unused = []
    for path in package + tests:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{line}: {name}" for line, name in _imported_names(tree) if name not in used]
    assert not unused, unused
