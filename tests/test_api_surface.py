"""No top-level helper lives on only to serve its own test.

Every module of the library is parsed.  Each top-level function and class
must be exported from `qpa` (listed in `qpa.__all__`) or be read somewhere
in the library: a Name or Attribute load outside its own definition.
Methods of exported classes are API and out of scope.
"""
import ast
from collections import Counter
from pathlib import Path

import qpa

SRC = Path(__file__).resolve().parent.parent / "src" / "qpa"


def _loads(tree: ast.AST) -> Counter:
    """Names read in the tree, as Name or Attribute loads, with their counts."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
    return out


def unused_definitions(src: Path, exported: set[str]) -> list[str]:
    """Top-level functions and classes of src/*.py that are neither exported
    nor read anywhere in src outside their own definition."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    reads: Counter = Counter()
    for tree in trees.values():
        reads += _loads(tree)
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in exported or reads[node.name] > _loads(node)[node.name]:
                continue
            out.append(f"{path.name}:{node.name}")
    return out


def test_every_definition_is_exported_or_used():
    assert unused_definitions(SRC, set(qpa.__all__)) == []


def test_guard_catches_an_unused_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import other\n"
        "def used():\n"
        "    return 1\n"
        "def recursive(k):\n"
        "    return recursive(k - 1) if k else 0\n"
        "def exported():\n"
        "    return used()\n"
        "class Unused:\n"
        "    pass\n"
    )
    (tmp_path / "other.py").write_text("def via_attribute():\n    return 2\n")
    (tmp_path / "user.py").write_text("import other\nx = other.via_attribute()\n")
    found = unused_definitions(tmp_path, {"exported"})
    assert found == ["mod.py:recursive", "mod.py:Unused"]
