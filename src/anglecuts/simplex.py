"""Exact two-phase simplex over the rationals.

Dense tableau, Bland's smallest-index pivoting rule, so every run
terminates and every comparison is exact.  A pivot updates only the
columns where the pivot row is nonzero, which leaves every tableau
entry, and so the pivot path, as a full-row update would.  Built for
desk-scale linear programs (tens of rows); all the polyhedral
certificates and the brute-force switching enumeration sit on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["LPResult", "solve_linear_program"]

Row = tuple[Sequence[Fraction], Fraction]


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal", "infeasible", or "unbounded"
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    """Pivot on (row, col), updating only the pivot row's nonzero columns."""
    pivot_row = tableau[row]
    inv = pivot_row[col]
    nonzero = [(j, v / inv) for j, v in enumerate(pivot_row) if v]
    for j, v in nonzero:
        pivot_row[j] = v
    for r, other in enumerate(tableau):
        if r == row:
            continue
        factor = other[col]
        if factor:
            for j, v in nonzero:
                other[j] -= factor * v
    basis[row] = col


def _run(tableau: list[list[Fraction]], basis: list[int], allowed: int) -> str:
    """Minimize with the cost row last; only columns < allowed may enter."""
    m = len(tableau) - 1
    while True:
        cost = tableau[m]
        enter = next((j for j in range(allowed) if cost[j] < 0), None)
        if enter is None:
            return "optimal"
        leave = None
        best: Fraction | None = None
        for r in range(m):
            coeff = tableau[r][enter]
            if coeff > 0:
                ratio = tableau[r][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            return "unbounded"
        _pivot(tableau, basis, leave, enter)


def solve_linear_program(
    n_vars: int,
    ineqs: Sequence[Row],
    eqs: Sequence[Row] = (),
    objective: Sequence[Fraction] | None = None,
    minimize: bool = True,
    nonneg: bool = False,
) -> LPResult:
    """Optimize a linear objective over {a.x <= b} and {a.x == b} rows.

    Variables are free unless nonneg is set (free variables are split
    internally).  Returns an exact optimal value and a witness point, or
    the infeasible/unbounded status.
    """
    obj = [Fraction(c) for c in (objective or [Fraction(0)] * n_vars)]
    if not minimize:
        obj = [-c for c in obj]

    width = n_vars if nonneg else 2 * n_vars

    def expand(coeffs: Sequence[Fraction]) -> list[Fraction]:
        if nonneg:
            return [Fraction(c) for c in coeffs]
        return [Fraction(c) for c in coeffs] + [Fraction(-c) for c in coeffs]

    # columns: structural, one slack per inequality, one artificial per row
    # whose slack cannot start basic (an equality, or a negative rhs)
    n_slack = len(ineqs)
    rows = [(coeffs, Fraction(b), i < n_slack) for i, (coeffs, b) in enumerate((*ineqs, *eqs))]
    total_structural = width + n_slack
    n_art = sum(1 for _, b, is_ineq in rows if b < 0 or not is_ineq)
    total = total_structural + n_art
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    next_art = total_structural
    for i, (coeffs, b, is_ineq) in enumerate(rows):
        row = expand(coeffs) + [Fraction(0)] * (total - width) + [b]
        if is_ineq:
            row[width + i] = Fraction(1)
        if b < 0:
            row = [-v for v in row]
        if is_ineq and b >= 0:
            basis.append(width + i)
        else:
            row[next_art] = Fraction(1)
            basis.append(next_art)
            next_art += 1
        tableau.append(row)
    m = len(rows)

    if n_art:
        # phase 1: drive the artificial sum to zero
        cost = [Fraction(0)] * total_structural + [Fraction(1)] * n_art + [Fraction(0)]
        for i in range(m):
            if basis[i] >= total_structural:
                cost = [a - b for a, b in zip(cost, tableau[i])]
        tableau.append(cost)
        _run(tableau, basis, total_structural)  # artificials may not re-enter
        if tableau[-1][-1] != 0:
            return LPResult("infeasible")
        tableau.pop()
        # pivot lingering zero-value artificials out where possible
        for i in range(m):
            if basis[i] >= total_structural:
                col = next((j for j in range(total_structural) if tableau[i][j] != 0), None)
                if col is not None:
                    _pivot(tableau, basis, i, col)
        keep = [i for i in range(m) if basis[i] < total_structural]
        tableau = [tableau[i] for i in keep]
        basis = [basis[i] for i in keep]
        m = len(basis)

    # phase 2 cost row: reduced costs of the real objective
    full_cost = expand(obj) + [Fraction(0)] * (total + 1 - width)
    cost = list(full_cost)
    for i in range(m):
        cb = full_cost[basis[i]]
        if cb:
            cost = [a - cb * b for a, b in zip(cost, tableau[i])]
    tableau.append(cost)
    if _run(tableau, basis, total_structural) == "unbounded":
        return LPResult("unbounded")

    values = [Fraction(0)] * total
    for i in range(m):
        values[basis[i]] = tableau[i][-1]
    if nonneg:
        point = tuple(values[:n_vars])
    else:
        point = tuple(values[j] - values[n_vars + j] for j in range(n_vars))
    value = sum((c * x for c, x in zip(obj, point)), Fraction(0))
    if not minimize:
        value = -value
    return LPResult("optimal", value, point)
