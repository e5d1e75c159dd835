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
from typing import NamedTuple

from .cuts import CutCPVI
from .errors import InvalidBigMError
from .graph import CyclePathPair
from .rational import dense_row

__all__ = ["LinearRow", "ExtendedSystem", "build_extended", "project_to_cpvi"]


class LinearRow(NamedTuple):
    name: str
    coeffs: tuple[Fraction, ...]
    rhs: Fraction


@dataclass(frozen=True)
class ExtendedSystem:
    """Structural rows plus variable boxes, over a fixed variable order.

    Variables: the pair's angle difference first, then one activity
    variable per cycle line (cycle order), then the two path indicators
    and the longer-only product variable.
    """

    pair: CyclePathPair
    big_m: Fraction
    var_names: tuple[str, ...]
    rows: tuple[LinearRow, ...]
    boxes: tuple[tuple[Fraction | None, Fraction | None], ...]

    @property
    def dim(self) -> int:
        return len(self.var_names)

    def var(self, name: str) -> int:
        return self.var_names.index(name)


def build_extended(pair: CyclePathPair, big_m: Fraction) -> ExtendedSystem:
    """Construct the lifted system; requires big_m >= the longer arc weight."""
    w_short = pair.shorter.total_weight
    w_long = pair.longer.total_weight
    if big_m < w_long:
        raise InvalidBigMError(
            f"big-M {big_m} is below the longer-path weight {w_long} for pair {pair.pair}"
        )
    cycle_lines = pair.cycle.lines
    var_names = (
        "dtheta",
        *[f"y_{line}" for line in cycle_lines],
        "z_short",
        "z_long",
        "z_long_only",
    )
    dim = len(var_names)
    pos = {name: j for j, name in enumerate(var_names)}

    def row(name: str, entries: dict[str, Fraction], rhs: Fraction) -> LinearRow:
        return LinearRow(name, *dense_row(dim, {pos[var]: value for var, value in entries.items()}, rhs))

    rows: list[LinearRow] = []
    for line in pair.shorter.lines:
        rows.append(row(f"short_link_{line}", {"z_short": 1, f"y_{line}": -1}, 0))
    rows.append(
        row(
            "short_closure",
            {**{f"y_{line}": Fraction(1) for line in pair.shorter.lines}, "z_short": -1},
            len(pair.shorter.lines) - 1,
        )
    )
    for line in pair.longer.lines:
        rows.append(row(f"long_link_{line}", {"z_long": 1, f"y_{line}": -1}, 0))
    rows.append(
        row(
            "long_closure",
            {**{f"y_{line}": Fraction(1) for line in pair.longer.lines}, "z_long": -1},
            len(pair.longer.lines) - 1,
        )
    )
    # product-variable hull: z_long_only = z_long * (1 - z_short) at binaries
    rows.append(row("product_le_long", {"z_long_only": 1, "z_long": -1}, 0))
    rows.append(row("product_le_not_short", {"z_long_only": 1, "z_short": 1}, 1))
    rows.append(row("product_ge_diff", {"z_long": 1, "z_short": -1, "z_long_only": -1}, 0))
    # angle bound as a convex combination of the three candidate bounds
    for sign, name in ((1, "angle_hi"), (-1, "angle_lo")):
        rows.append(
            row(
                name,
                {
                    "dtheta": sign,
                    "z_short": big_m - w_short,
                    "z_long_only": big_m - w_long,
                },
                big_m,
            )
        )

    boxes: list[tuple[Fraction | None, Fraction | None]] = [(None, None)]  # dtheta free
    boxes.extend([(Fraction(0), Fraction(1))] * (dim - 1))
    return ExtendedSystem(pair, big_m, var_names, tuple(rows), tuple(boxes))


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
