"""Lifted linear system for a split cycle and its projection to a cut.

The system introduces indicator variables for "all lines on the shorter
arc are active" and "all lines on the longer arc are active", a product
variable selecting the longer arc only when the shorter one is broken,
and a single angle-difference bound written as a convex combination of
the three candidate bounds (shorter weight, longer weight, big-M).

``eliminate`` projects the model: a Fourier-Motzkin step on its angle
row through each lifted variable's linking row or its bound 0.  All
linking rows give the path-based cut; the zero branches give the
aggregated single-arc rows that complete the hull description.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Container

from .cuts import CutCPVI, check_big_m
from .graph import CyclePathPair
from .milp import MilpModel

__all__ = ["build_extended", "eliminate", "project_to_cpvi"]

# each lifted variable in elimination order, with its linking row terms - z <= rhs
LINKS = (("z_long_only", "product_ge_diff"), ("z_short", "short_closure"), ("z_long", "long_closure"))


def build_extended(pair: CyclePathPair, big_m: Fraction) -> MilpModel:
    """The lifted system of a pair as a model of ``<=`` rows; requires
    big_m >= the longer arc weight.

    Variables: the pair's angle difference first (free), then one
    activity variable per cycle line (cycle order), then the two path
    indicators and the longer-only product variable, each in [0, 1].
    Each row lists its terms in variable order.
    """
    check_big_m(pair, big_m)
    w_short = pair.shorter.total_weight
    w_long = pair.longer.total_weight
    cycle_lines = pair.cycle.lines
    model = MilpModel()
    model.add_variable("dtheta", "continuous", None, None)
    for name in (*[f"y_{line}" for line in cycle_lines], "z_short", "z_long", "z_long_only"):
        model.add_variable(name, "continuous", 0, 1)

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
    return model


def eliminate(pair: CyclePathPair, model: MilpModel, linked: Container[str]) -> tuple[dict[int, Fraction], Fraction]:
    """The model's angle_hi row with the lifted variables eliminated in
    LINKS order: each by the lower bound its linking row gives when it is
    in linked, else by its lower bound 0.

    Each lifted variable has a nonnegative slope in the row by then, so
    either bound keeps the row valid.  Returns the slope of every cycle
    line's y and the right-hand side of  dtheta + slopes . y <= rhs.
    """
    rows = {con.name: con for con in model.constraints}
    terms = dict(rows["angle_hi"].coeffs)
    rhs = rows["angle_hi"].rhs
    for z, link in LINKS:
        slope = terms.pop(z, Fraction(0))  # a zero slope is not stored
        assert slope >= 0, "substituting a lower bound is only valid for a nonnegative slope"
        if z in linked:
            for var, c in rows[link].coeffs:
                if var != z:
                    terms[var] = terms.get(var, Fraction(0)) + slope * c
            rhs += slope * rows[link].rhs
    return {line: terms.get(f"y_{line}", Fraction(0)) for line in pair.cycle.lines}, rhs


def project_to_cpvi(pair: CyclePathPair, model: MilpModel) -> CutCPVI:
    """The path-based cut as the projection of the lifted model: every
    lifted variable eliminated through its linking row, and big-M and the
    two slope gaps read off the angle row."""
    angle = next(con for con in model.constraints if con.name == "angle_hi")
    slope = dict(angle.coeffs)
    delta_m = slope.get("z_long_only", Fraction(0))
    slopes, constant = eliminate(pair, model, ("z_long_only", "z_short", "z_long"))
    return CutCPVI(
        pair=pair,
        big_m=angle.rhs,
        delta_rho=slope.get("z_short", Fraction(0)) - delta_m,
        delta_m=delta_m,
        constant=constant,
        y_coeffs=tuple(sorted((line, -value) for line, value in slopes.items())),
    )
