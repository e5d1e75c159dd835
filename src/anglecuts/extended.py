"""Lifted linear system for a split cycle and its projection to a cut.

The system introduces indicator variables for "all lines on the shorter
arc are active" and "all lines on the longer arc are active", a product
variable selecting the longer arc only when the shorter one is broken,
and a single angle-difference bound written as a convex combination of
the three candidate bounds (shorter weight, longer weight, big-M).

Projecting the angle row through the indicators' lower bounds reproduces
the path-based cut exactly; both derivations are kept and compared in
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cuts import CutCPVI
from .errors import InvalidBigMError
from .graph import CyclePathPair
from .milp import MilpModel

__all__ = ["ExtendedSystem", "build_extended", "project_to_cpvi"]


@dataclass(frozen=True)
class ExtendedSystem:
    """The lifted system of a pair as a model of ``<=`` rows.

    Variables: the pair's angle difference first (free), then one
    activity variable per cycle line (cycle order), then the two path
    indicators and the longer-only product variable, each in [0, 1].
    """

    pair: CyclePathPair
    big_m: Fraction
    model: MilpModel


def build_extended(pair: CyclePathPair, big_m: Fraction) -> ExtendedSystem:
    """Construct the lifted system; requires big_m >= the longer arc weight.

    Each row lists its terms in variable order.
    """
    w_short = pair.shorter.total_weight
    w_long = pair.longer.total_weight
    if big_m < w_long:
        raise InvalidBigMError(
            f"big-M {big_m} is below the longer-path weight {w_long} for pair {pair.pair}"
        )
    cycle_lines = pair.cycle.lines
    model = MilpModel()
    model.add_variable("dtheta", "continuous", None, None)
    for name in (*[f"y_{line}" for line in cycle_lines], "z_short", "z_long", "z_long_only"):
        model.add_variable(name, "continuous", Fraction(0), Fraction(1))

    def row(name: str, terms: list[tuple[str, Fraction | int]], rhs: Fraction | int) -> None:
        model.add_constraint(name, terms, "<=", rhs)

    for arc, path in (("short", pair.shorter), ("long", pair.longer)):
        z = f"z_{arc}"
        for line in path.lines:
            row(f"{arc}_link_{line}", [(f"y_{line}", -1), (z, 1)], 0)
        row(
            f"{arc}_closure",
            [*[(f"y_{line}", 1) for line in cycle_lines if line in path.lines], (z, -1)],
            len(path.lines) - 1,
        )
    # product-variable hull: z_long_only = z_long * (1 - z_short) at binaries
    row("product_le_long", [("z_long", -1), ("z_long_only", 1)], 0)
    row("product_le_not_short", [("z_short", 1), ("z_long_only", 1)], 1)
    row("product_ge_diff", [("z_short", -1), ("z_long", 1), ("z_long_only", -1)], 0)
    # angle bound as a convex combination of the three candidate bounds
    for sign, name in ((1, "angle_hi"), (-1, "angle_lo")):
        row(name, [("dtheta", sign), ("z_short", big_m - w_short), ("z_long_only", big_m - w_long)], big_m)
    return ExtendedSystem(pair, big_m, model)


def project_to_cpvi(sys: ExtendedSystem) -> CutCPVI:
    """Eliminate the lifted variables from the angle row, symbolically.

    Each lifted variable carries a nonpositive coefficient in the angle
    bound, so replacing it by its linking lower bound preserves validity
    and yields the tightest projected inequality.  The result is the
    path-based cut in the original variables.
    """
    pair = sys.pair
    w_short = pair.shorter.total_weight
    w_long = pair.longer.total_weight
    big_m = sys.big_m

    # right-hand side of dtheta <= ..., as a linear expression
    expr: dict[str, Fraction] = {
        "const": big_m,
        "z_short": -(big_m - w_short),
        "z_long_only": -(big_m - w_long),
    }

    def substitute(var: str, replacement: dict[str, Fraction]) -> None:
        coeff = expr.pop(var, Fraction(0))
        assert coeff <= 0, "substituting a lower bound is only valid for nonpositive coefficients"
        for term, value in replacement.items():
            expr[term] = expr.get(term, Fraction(0)) + coeff * value

    substitute("z_long_only", {"z_long": Fraction(1), "z_short": Fraction(-1)})
    substitute(
        "z_short",
        {
            **{f"y_{line}": Fraction(1) for line in pair.shorter.lines},
            "const": Fraction(1 - len(pair.shorter.lines)),
        },
    )
    substitute(
        "z_long",
        {
            **{f"y_{line}": Fraction(1) for line in pair.longer.lines},
            "const": Fraction(1 - len(pair.longer.lines)),
        },
    )

    coeffs = {
        line: expr.get(f"y_{line}", Fraction(0))
        for line in pair.cycle.lines
    }
    return CutCPVI(
        pair=pair,
        big_m=big_m,
        delta_rho=w_long - w_short,
        delta_m=big_m - w_long,
        constant=expr["const"],
        y_coeffs=tuple(sorted(coeffs.items())),
    )
