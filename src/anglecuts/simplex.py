"""Exact two-phase simplex over the rationals, in integer arithmetic.

One problem form: minimize objective . x over free x subject to rows
a.x <= b and a.x == b.  A maximization is the minimum of the negated
objective, with the value negated back; a sign constraint x_j >= 0 is
the row -x_j <= 0.

Dense tableau, Bland's smallest-index pivoting rule, so every run
terminates and every comparison is exact.  The tableau is fraction-free:
each row is a list of integer numerators over one positive row
denominator, coprime to them all, and a pivot costs integer products
and one gcd per changed row rather than a Fraction normalization per
entry.  A constraint enters as its primitive integer row over the
magnitude of its leading coefficient (1 in an emptied row), the unit of
its slack and artificial, so its tableau row is that of the row scaled
to lead with 1 or -1.  The ratio test cross-multiplies, and values turn
into Fractions only in the result.  Built for desk-scale linear programs
(tens of rows); all the polyhedral certificates and the brute-force
switching enumeration sit on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .rational import integer_row

__all__ = ["LPResult", "solve_linear_program"]

Row = tuple[Sequence[Fraction | int], Fraction | int]
# a tableau row: integer numerators over a positive denominator coprime to them all
IntRow = tuple[list[int], int]


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal", "infeasible", or "unbounded"
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def _reduced(nums: list[int], den: int) -> IntRow:
    """nums / den in lowest terms; den must be positive."""
    g = gcd(den, *nums)  # den first: gcd skips the rest once it reaches 1
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def _minus(a: IntRow, factor: int, b: IntRow) -> IntRow:
    """a - factor * b over the least common denominator, not reduced."""
    (a_nums, a_den), (b_nums, b_den) = a, b
    den = lcm(a_den, b_den)
    scale_a, scale_b = den // a_den, factor * (den // b_den)
    return [x * scale_a - y * scale_b for x, y in zip(a_nums, b_nums)], den


def _pivot(tableau: list[IntRow], basis: list[int], row: int, col: int) -> None:
    """Pivot on (row, col): the pivot row becomes itself over its entry at
    col, and every row with a nonzero at col subtracts it, updating only
    the pivot row's nonzero columns after bringing both to one denominator."""
    nums, _ = tableau[row]
    lead = nums[col]
    if lead < 0:
        nums, lead = [-v for v in nums], -lead
    pivot_nums, pivot_den = tableau[row] = _reduced(nums, lead)
    nonzero = [(j, v) for j, v in enumerate(pivot_nums) if v]
    for r, (other, den) in enumerate(tableau):
        factor = other[col]
        if not factor or r == row:
            continue
        if pivot_den != 1:
            other = [v * pivot_den for v in other]
            den *= pivot_den
        for j, v in nonzero:
            other[j] -= factor * v
        tableau[r] = _reduced(other, den)
    basis[row] = col


def _run(tableau: list[IntRow], basis: list[int], allowed: int) -> str:
    """Minimize with the cost row last; only columns < allowed may enter."""
    m = len(tableau) - 1
    while True:
        cost = tableau[m][0]
        enter = next((j for j in range(allowed) if cost[j] < 0), None)
        if enter is None:
            return "optimal"
        leave = None
        for r in range(m):
            nums = tableau[r][0]
            coeff = nums[enter]
            if coeff > 0:
                # the ratio rhs / coeff, in which the row denominator cancels
                rhs = nums[-1]
                if leave is None or (order := rhs * best_coeff - best_rhs * coeff) < 0 or (
                        order == 0 and basis[r] < basis[leave]):
                    best_rhs, best_coeff, leave = rhs, coeff, r
        if leave is None:
            return "unbounded"
        _pivot(tableau, basis, leave, enter)


def _cost_row(costs: list[int], den: int, tableau: list[IntRow], basis: list[int]) -> IntRow:
    """The reduced costs of costs / den under the basis: costs minus each
    basic row times its column's cost, in lowest terms."""
    row = (costs, 1)
    for basic, col in zip(tableau, basis):
        if cost := costs[col]:
            row = _minus(row, cost, basic)
    return _reduced(row[0], row[1] * den)


def solve_linear_program(
    n_vars: int, ineqs: Sequence[Row], eqs: Sequence[Row], objective: Sequence[Fraction | int]
) -> LPResult:
    """Minimize objective . x over free x subject to {a.x <= b} and {a.x == b} rows.

    Each free variable is split internally into two nonnegative columns.
    Every coefficient and right-hand side must be an int or a Fraction; a
    float or bool raises ValueError naming its row and column, and a row
    or objective not n_vars wide one naming the row.  Each row is read in
    its primitive integer form, so a row and its positive multiples give
    the same tableau and pivot path.
    Returns an exact optimal value and a witness point, or the
    infeasible/unbounded status.
    """
    def scaled(coeffs: Sequence[Fraction], rhs: Fraction, where: str) -> tuple[list[int], int]:
        if len(coeffs) != n_vars:
            raise ValueError(f"{where}: width {len(coeffs)}, expected {n_vars}")
        return integer_row(coeffs, rhs, where)

    # the objective's numerators over their least common denominator
    obj, obj_den = scaled(objective, 1, "the objective")
    width = 2 * n_vars

    # columns: x split in two, one slack per inequality, one artificial per
    # row whose slack cannot start basic (an equality, or a negative rhs)
    n_slack = len(ineqs)
    rows = []
    for i, (coeffs, b) in enumerate((*ineqs, *eqs)):
        where = f"inequality {i}" if i < n_slack else f"equality {i - n_slack}"
        rows.append((*scaled(coeffs, b, where), i < n_slack))
    total_structural = width + n_slack
    n_art = sum(1 for _, b, is_ineq in rows if b < 0 or not is_ineq)
    total = total_structural + n_art
    tableau: list[IntRow] = []
    basis: list[int] = []
    next_art = total_structural
    for i, (nums, b, is_ineq) in enumerate(rows):
        unit = next((abs(v) for v in nums if v), 1)  # of the slack and artificial
        row = nums + [-v for v in nums] + [0] * (total - width) + [b]
        if is_ineq:
            row[width + i] = unit
        if b < 0:
            row = [-v for v in row]
        if is_ineq and b >= 0:
            basis.append(width + i)
        else:
            row[next_art] = unit
            basis.append(next_art)
            next_art += 1
        tableau.append((row, unit))
    m = len(rows)

    if n_art:
        # phase 1: drive the artificial sum to zero
        tableau.append(_cost_row([0] * total_structural + [1] * n_art + [0], 1, tableau, basis))
        _run(tableau, basis, total_structural)  # artificials may not re-enter
        if tableau[-1][0][-1] != 0:
            return LPResult("infeasible")
        tableau.pop()
        # pivot lingering zero-value artificials out where possible
        for i in range(m):
            if basis[i] >= total_structural:
                col = next((j for j in range(total_structural) if tableau[i][0][j] != 0), None)
                if col is not None:
                    _pivot(tableau, basis, i, col)
        keep = [i for i in range(m) if basis[i] < total_structural]
        tableau = [tableau[i] for i in keep]
        basis = [basis[i] for i in keep]
        m = len(basis)

    # phase 2: the real objective, whose numerators sit over obj_den
    costs = obj + [-c for c in obj] + [0] * (total + 1 - width)
    tableau.append(_cost_row(costs, obj_den, tableau, basis))
    if _run(tableau, basis, total_structural) == "unbounded":
        return LPResult("unbounded")

    values = [Fraction(0)] * total
    for i in range(m):
        nums, den = tableau[i]
        values[basis[i]] = Fraction(nums[-1], den)
    point = tuple(values[j] - values[n_vars + j] for j in range(n_vars))
    value = sum((c * x for c, x in zip(obj, point)), Fraction(0)) / obj_den
    return LPResult("optimal", value, point)
