"""No floats and no numpy in any decision path.

Every module of the library is parsed and walked.  A float literal, the
name `float`, a numpy import, or math.sqrt / math.log fails the test.  The
one deliberate float path is the Monte Carlo estimate `lasso.simulate_runs`,
whose body is exempt from the float rules but not from the numpy rule.
The integer kernels of `semantics` and the integer lasso paths must not use
true division at all: an `int / int` there would silently make a float.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qpa"
FLOAT_PATHS = {("lasso.py", "simulate_runs")}
FLOAT_MATH = {"sqrt", "log"}


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) in FLOAT_PATHS:
            exempt.update(id(sub) for sub in ast.walk(node))
    math_names = {"math." + f for f in FLOAT_MATH}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            math_names.update(al.asname or al.name for al in node.names if al.name in FLOAT_MATH)
    out = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import) and any(al.name.split(".")[0] == "numpy" for al in node.names):
            out.append(f"{where}: numpy import")
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            out.append(f"{where}: numpy import")
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append(f"{where}: float")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in math_names:
            out.append(f"{where}: {node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if f"{node.value.id}.{node.attr}" in math_names:
                out.append(f"{where}: {node.value.id}.{node.attr}")
    return out


INTEGER_KERNELS = {("semantics.py", f) for f in ("int_mul", "int_pow", "_compose", "solve_linear")} | {
    ("lasso.py", f) for f in ("_safety_probability", "_analyze_class")
}
KERNEL_FILES = sorted({name for name, _ in INTEGER_KERNELS})


def _true_divisions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) in INTEGER_KERNELS:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.Div):
                    out.append(f"{path.name}:{sub.lineno}: true division in {node.name}")
    return out


MODULES = sorted(SRC.glob("*.py"))


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"semantics.py", "lasso.py", "qualitative.py", "supportgraph.py"} <= names
    tree = ast.parse((SRC / "lasso.py").read_text())
    assert any(isinstance(n, ast.FunctionDef) and n.name == "simulate_runs" for n in ast.walk(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact(path):
    assert _violations(path) == []


def test_guard_catches_each_rule(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import math\n"
        "import numpy as np\n"
        "from math import sqrt as root\n"
        "x = 0.5\n"
        "y = float(1)\n"
        "z = math.log(2) + root(2)\n"
        "def simulate_runs():\n"
        "    return 0.5\n"
    )
    found = sorted(f.split(": ", 1)[1] for f in _violations(bad))
    assert found == [
        "float",
        "float literal 0.5",
        "float literal 0.5",
        "math.log",
        "numpy import",
        "root",
    ]


def test_integer_kernels_have_no_true_division():
    defined = set()
    for name in KERNEL_FILES:
        tree = ast.parse((SRC / name).read_text())
        defined |= {(name, n.name) for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert _true_divisions(SRC / name) == []
    assert INTEGER_KERNELS <= defined


def test_division_guard_catches_each_form(tmp_path):
    bad = tmp_path / "semantics.py"
    bad.write_text(
        "def int_mul(x, y):\n"
        "    return x / y\n"
        "def solve_linear(A, B):\n"
        "    A /= 2\n"
        "    return A // B\n"
        "def unscaled(rows, den):\n"
        "    return rows / den\n"
    )
    assert _true_divisions(bad) == [
        "semantics.py:2: true division in int_mul",
        "semantics.py:4: true division in solve_linear",
    ]
    bad_lasso = tmp_path / "lasso.py"
    bad_lasso.write_text(
        "def _safety_probability(a, w, fmask):\n"
        "    return fmask / 2\n"
        "def simulate_runs(a, w, samples, seed):\n"
        "    return samples / 2\n"
    )
    assert _true_divisions(bad_lasso) == ["lasso.py:2: true division in _safety_probability"]
