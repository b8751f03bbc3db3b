"""Every top-level import in the package and in its tests is used by its
module, each package module is imported by one statement per file, no
package module is imported inside a function of the package, every
module-level private name of the package is used in it, every
module-level public name is used in it or named in README, every method
of a package class is read in the package or the benchmark or named in
README, no
``isinstance(x, bool)`` check sits outside ``core._require_int``,
``core.decode`` and ``linalg._eliminate``, no vertex index
``{v: i for i, v in enumerate(<x>.vertices)}`` is built outside
``core._index_form``, and no handler of the package catches every
error."""

import ast
import re
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


def _package_module(node):
    """The package module that an import statement reads from, or None."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return f"comtes.{node.module}" if node.module else "comtes"
        name = node.module
    elif isinstance(node, ast.Import):
        name = node.names[0].name
    else:
        return None
    return name if name == "comtes" or name.startswith("comtes.") else None


def test_one_import_statement_per_package_module():
    files = sorted((ROOT / "src" / "comtes").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    repeated = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        first = {}
        for node in tree.body:
            module = _package_module(node)
            if module is None:
                continue
            if module in first:
                repeated.append(f"{path.parent.name}/{path.name}:{node.lineno}: {module} (also line {first[module]})")
            first.setdefault(module, node.lineno)
    assert not repeated, repeated


def test_no_package_import_inside_a_package_function():
    lazy = set()
    for path in sorted((ROOT / "src" / "comtes").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                lazy |= {f"{path.name}:{node.lineno}: {_package_module(node)}" for node in ast.walk(fn) if _package_module(node)}
    assert not lazy, sorted(lazy)


def _definitions(tree):
    """(node, name) for each module-level function, class or assignment
    other than a dunder name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield node, name


def _referenced_name(node):
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _orphans():
    """(place, name) for each module-level name of the package that nothing
    in the package references outside its own definition; an import in
    ``__init__`` and an attribute use such as ``acceptance.run_all`` count
    as references."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sorted((ROOT / "src" / "comtes").glob("*.py"))}
    assert trees
    references = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            references.setdefault(_referenced_name(node), []).append(node)
    orphans = []
    for path, tree in trees.items():
        for definition, name in _definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in references.get(name, ())):
                orphans.append((f"{path.name}:{definition.lineno}: {name}", name))
    return orphans


def test_no_orphaned_private_helper():
    # a module-level private function, class or assignment of the package
    # is referenced somewhere in the package outside its own definition
    orphans = [where for where, name in _orphans() if name.startswith("_")]
    assert not orphans, orphans


def _readme_words():
    """Every word that README writes in backticks or a code block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"```(.*?)```|`([^`]*)`", readme, flags=re.S)
    return {word for span in spans for word in re.findall(r"\w+", "".join(span))}


def test_no_public_name_that_only_the_tests_use():
    # a public one is referenced in the package, or README names it in
    # backticks as part of the documented interface; test-only oracles
    # live in tests/reference.py
    documented = _readme_words()
    orphans = [where for where, name in _orphans() if not name.startswith("_") and name not in documented]
    assert not orphans, orphans


def test_no_public_method_that_only_the_tests_use():
    # a method or property of a package class, other than a dunder, is
    # read as ``.name`` somewhere in the package or the benchmark, or README
    # names it in backticks
    readers = sorted((ROOT / "src" / "comtes").glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    read = {node.attr for path in readers for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Attribute)}
    documented = _readme_words()
    unused = []
    for path in sorted((ROOT / "src" / "comtes").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(cls, ast.ClassDef):
                unused += [
                    f"{path.name}:{node.lineno}: {cls.name}.{node.name}"
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in read and node.name not in documented
                ]
    assert not unused, unused


def _bool_checks(tree):
    """(function, line) for each ``isinstance(x, bool)`` call, the bool
    alone or in a tuple, with the top-level function that holds it."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                kinds = node.args[1:]
                if kinds and isinstance(kinds[0], ast.Tuple):
                    kinds = kinds[0].elts
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    yield getattr(top, "name", None), node.lineno


def test_integer_checks_live_in_one_helper():
    # an integer argument is checked by core._require_int; only decode
    # (which raises DecodeError) and the entry loop of linalg._eliminate
    # check inline
    allowed = {("core.py", "_require_int"), ("core.py", "decode"), ("linalg.py", "_eliminate")}
    found = []
    for path in sorted((ROOT / "src" / "comtes").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}: {fn}" for fn, line in _bool_checks(tree) if (path.name, fn) not in allowed]
    assert not found, found


# ``{v: i for i, v in enumerate(<x>.vertices)}`` as ``ast.unparse`` writes it
_VERTEX_INDEX = re.compile(r"\{(\w+): (\w+) for \2, \1 in enumerate\([\w.]+\.vertices\)\}")


def _vertex_indexings(tree):
    """(function, line) for each vertex-index comprehension, with the
    top-level function that holds it."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.DictComp) and _VERTEX_INDEX.fullmatch(ast.unparse(node)):
                yield getattr(top, "name", None), node.lineno


def test_vertex_names_are_indexed_in_one_helper():
    # core._index_form turns a graph's names into indices and checks them;
    # every other reader of the structure reads its triples
    found = []
    for path in sorted((ROOT / "src" / "comtes").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}: {fn}" for fn, line in _vertex_indexings(tree) if (path.name, fn) != ("core.py", "_index_form")]
    assert not found, found


def test_no_handler_catches_every_error():
    # a bare ``except:``, ``except Exception`` or ``except BaseException``
    # would hide a fault as a quieter result; each handler names what it
    # expects
    catch_all = {"Exception", "BaseException"}
    found = []
    for path in sorted((ROOT / "src" / "comtes").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ExceptHandler):
                kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if node.type is None or any(isinstance(k, ast.Name) and k.id in catch_all for k in kinds):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found
