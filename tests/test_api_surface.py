"""No top-level helper lives on only to serve its own test, and the
modules import in one direction.

Every module of the library is parsed.  Each top-level function and class
must be exported from `qpa` (listed in `qpa.__all__`) or be read somewhere
in the library: a Name or Attribute load outside its own definition.
Methods of exported classes are API and out of scope.

Every import sits at module level, never in a function or method body,
where it could hide a cycle until call time; and the graph of relative
imports between the modules has no cycle.
"""
import ast
from collections import Counter
from graphlib import CycleError, TopologicalSorter
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


def _trees(src: Path) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}


def unused_definitions(src: Path, exported: set[str]) -> list[str]:
    """Top-level functions and classes of src/*.py that are neither exported
    nor read anywhere in src outside their own definition."""
    trees = _trees(src)
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


def nested_imports(src: Path) -> list[str]:
    """Import statements of src/*.py inside a function or method body, as
    file:line."""
    found = set()
    for path, tree in _trees(src).items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.add((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def import_cycle(src: Path) -> list[str]:
    """A cycle in the graph of relative imports, wherever they sit, between
    the modules of src, as graphlib reports it: module names that start and
    end at the same module; [] when the graph is acyclic.  `from . import x`
    is an edge to module x, or to the package's __init__ when x is no module."""
    trees = _trees(src)
    modules = {p.stem for p in trees}
    graph = {}
    for path, tree in trees.items():
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(x.name if x.name in modules else "__init__" for x in node.names)
        graph[path.stem] = deps & modules
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return exc.args[1]
    return []


def test_imports_sit_at_module_level():
    assert nested_imports(SRC) == []


def test_relative_imports_are_acyclic():
    assert import_cycle(SRC) == []


def test_guard_catches_a_nested_import_and_a_cycle(tmp_path):
    (tmp_path / "mod.py").write_text("from . import other\nfrom .low import base\n")
    (tmp_path / "other.py").write_text(
        "from .low import base\n"
        "def late():\n"
        "    from .mod import x\n"
        "    return x\n"
    )
    (tmp_path / "low.py").write_text(
        "import json\n"
        "class K:\n"
        "    def m(self):\n"
        "        import os\n"
        "        return os\n"
    )
    assert nested_imports(tmp_path) == ["low.py:4", "other.py:3"]
    cycle = import_cycle(tmp_path)
    assert cycle[0] == cycle[-1] and sorted(cycle[1:]) == ["mod", "other"]
    (tmp_path / "other.py").write_text("from .low import base\n")
    assert import_cycle(tmp_path) == []
