"""The package's plain records are named tuples.  A dataclass generates and
``exec``s its methods when the package is imported, about 0.45 ms a class,
so a class stays one only for a feature that a named tuple cannot give."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "comtes"

# module.class -> the dataclass feature it needs
KEPT = {
    "core.SelfIndexedGraph": "cache slot: _key is not compared, shown or passed",
    "core.Comte": "__post_init__",
    "core.CanonicalForm": "compare=False: only the key is compared",
    "moves.SearchBudget": "replace/fields callers",
    "moves.MoveTrace": "__len__",
    "racks.AbelianGroup": "__post_init__",
    "finitetype.SemiVirtualGraph": "__post_init__",
    "finitetype.GraphFormalSum": "arithmetic operators: as a tuple, 2 * s would repeat it",
}


def _is_dataclass_decorator(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "dataclass") or (
        isinstance(node, ast.Attribute) and node.attr == "dataclass"
    )


def test_only_the_listed_classes_are_dataclasses():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list)):
                found.add(f"{path.stem}.{node.name}")
    assert found - KEPT.keys() == set(), "a plain record should be a typing.NamedTuple"
    assert KEPT.keys() - found == set(), "no longer a dataclass: drop it from KEPT"
