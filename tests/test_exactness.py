"""Exactness lint: the package source, and the brute-force references the
kernels are compared against, can make no float, so none reaches a result;
and every entry point that takes exact values refuses a float and a bool."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from anglecuts.cuts import FractionalPoint, SeparationConfig
from anglecuts.milp import MilpConstraint, MilpModel, MilpVariable, lp_text
from anglecuts.oracle import HPolytope
from anglecuts.rational import integer_row, matrix_rank
from anglecuts.simplex import solve_linear_program

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


def _model_with_objective(value):
    # the model checks the objective where it takes it, so lp_text never meets an inexact one
    model = MilpModel()
    model.add_variable("x", "continuous", 0, 1)
    model.objective = [("x", value)]
    return lp_text(model)


# every entry point that takes exact values, each called with one value v in
# a position it must check; a new entry point belongs here
ENTRY_POINTS = {
    "integer_row": lambda v: integer_row([v, 1], 1, "row"),
    "matrix_rank": lambda v: matrix_rank([[1, 0], [0, v]]),
    "HPolytope": lambda v: HPolytope((((1, v), 1),), 2),
    "solve_linear_program": lambda v: solve_linear_program(1, [([1], 1), ([-1], 0)], [], [v]),
    # an equality elimination consumes is still read, and refused, as equality 0
    "solve_linear_program equality": lambda v: solve_linear_program(1, [], [([v], 1)], [0]),
    "FractionalPoint": lambda v: FractionalPoint({"a": v}, {}),
    "SeparationConfig": lambda v: SeparationConfig(tolerance=v),
    "MilpModel.add_variable": lambda v: MilpModel().add_variable("x", "continuous", 0, v),
    "MilpModel.add_constraint": lambda v: MilpModel([MilpVariable("x", "continuous", None, None)]).add_constraint(
        "r", [("x", v)], "<=", 1),
    "MilpModel from lists": lambda v: MilpModel([MilpVariable("x", "continuous", None, None)],
                                                [MilpConstraint("r", (("x", 1),), "<=", v)]),
    "MilpModel objective from lists": lambda v: MilpModel([MilpVariable("x", "continuous", None, None)], [], [("x", v)]),
    "lp_text": _model_with_objective,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_float_and_a_bool(entry):
    call = ENTRY_POINTS[entry]
    for value in (1, F(1, 2)):
        call(value)  # the call is well formed: exact values pass
    for value in (0.5, True):
        with pytest.raises(ValueError, match=f"got {type(value).__name__}|not an exact rational"):
            call(value)
