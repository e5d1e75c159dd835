"""Exactness lint: the package source, and the brute-force references the
kernels are compared against, can make no float, so none reaches a result."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "anglecuts").glob("*.py")) + [TESTS / "_brute.py"]
INTEGER_MATH = {"lcm", "gcd"}


def float_sources(tree):
    """(line, what) for each float literal, call to float() and math import
    other than the integer functions; naming float, as isinstance(x, float)
    does, makes none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "call to float()"
        elif isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "math" for alias in node.names):
            yield node.lineno, "import math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from math import {alias.name}"


def test_package_source_makes_no_float():
    sample = "x = 1.5\ny = float('2')\nimport math\nfrom math import gcd, sqrt\nok = isinstance(x, float)\n"
    assert sorted(line for line, _ in float_sources(ast.parse(sample))) == [1, 2, 3, 4]
    found = [f"{path.name}:{line}: {what}" for path in SOURCES
             for line, what in float_sources(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert found == []
