"""Exact two-phase simplex over the rationals, in integer arithmetic.

One problem form: minimize objective . x over free x subject to rows
a.x <= b and a.x == b.  A maximization is the minimum of the negated
objective, with the value negated back; a sign constraint x_j >= 0 is
the row -x_j <= 0.

Sparse tableau, Bland's smallest-index pivoting rule, so every run
terminates and every comparison is exact.  A free x is split as x+ - x-, but
row operations keep each x- column the negated x+ column, so only x+ is stored;
labels, the basis and Bland's order keep the split numbering (x+, x-, slacks,
artificials), and with it every pivot.  The tableau is fraction-free:
each row maps its nonzero stored columns, the right-hand side as column
-1, to integer numerators over one positive row denominator, coprime to
them all.  A pivot touches only the rows nonzero in its column, and in
each only the pivot row's nonzero columns: integer products and one gcd
per changed row rather than a Fraction normalization per entry.  A
constraint enters as its primitive integer row over the magnitude of
its leading coefficient (1 in an emptied row), the unit of its slack
and artificial, so its tableau row is that of the row scaled to lead
with 1 or -1.  The ratio test cross-multiplies, and values turn into
Fractions only in the result.  Built for desk-scale linear programs
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
# a tableau row: {stored column: nonzero integer numerator}, the right-hand side
# at -1, over a positive denominator coprime to them all
IntRow = tuple[dict[int, int], int]


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal", "infeasible", or "unbounded"
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def _reduced(nums: dict[int, int], den: int) -> IntRow:
    """nums / den in lowest terms; den must be positive."""
    g = gcd(den, *nums.values())  # den first: gcd skips the rest once it reaches 1
    if g == 1:
        return nums, den
    return {k: v // g for k, v in nums.items()}, den // g


def _minus(nums: dict[int, int], den: int, scale: int, factor: int, other: dict[int, int]) -> IntRow:
    """(nums * scale - factor * other) / (den * scale), not reduced, without the
    entries that cancel; nums itself is updated when scale is 1."""
    if scale != 1:
        nums = {k: v * scale for k, v in nums.items()}
    for k, v in other.items():
        if new := nums.get(k, 0) - factor * v:
            nums[k] = new
        else:
            del nums[k]
    return nums, den * scale


def _stored(col: int, free: int) -> tuple[int, int]:
    """The stored column of split column col and the sign it is read with."""
    return (col, 1) if col < free else (col - free, -1 if col < 2 * free else 1)


def _pivot(tableau: list[IntRow], basis: list[int], row: int, col: int, free: int) -> None:
    """Pivot on (row, col), col split over free variables: the pivot row becomes
    itself over its entry at col, and every row with a nonzero at col subtracts
    it, scaled by the pivot denominator over its gcd with the row's entry there."""
    j, sign = _stored(col, free)
    nums, _ = tableau[row]
    lead = sign * nums[j]
    if lead < 0:
        nums, lead = {k: -v for k, v in nums.items()}, -lead
    pivot_nums, pivot_den = tableau[row] = _reduced(nums, lead)
    for r, (other, den) in enumerate(tableau):
        if r != row and (factor := sign * other.get(j, 0)):
            g = gcd(pivot_den, factor)
            tableau[r] = _reduced(*_minus(other, den, pivot_den // g, factor // g, pivot_nums))
    basis[row] = col


def _run(tableau: list[IntRow], basis: list[int], allowed: int, free: int) -> str:
    """Minimize with the cost row last; only split columns < allowed may enter."""
    m = len(tableau) - 1
    while True:
        # Bland's rule: the least split column < allowed of negative reduced
        # cost, where a stored x+ entry v is the cost v of x+ and -v of x-
        negative = (k if k < free and v < 0 else k + free for k, v in tableau[m][0].items()
                    if k >= 0 and (v < 0 or k < free))
        enter = min((col for col in negative if col < allowed), default=None)
        if enter is None:
            return "optimal"
        j, sign = _stored(enter, free)
        leave = None
        for r in range(m):
            nums = tableau[r][0]
            coeff = sign * nums.get(j, 0)
            if coeff > 0:
                # the ratio rhs / coeff, in which the row denominator cancels
                rhs = nums.get(-1, 0)
                if leave is None or (order := rhs * best_coeff - best_rhs * coeff) < 0 or (
                        order == 0 and basis[r] < basis[leave]):
                    best_rhs, best_coeff, leave = rhs, coeff, r
        if leave is None:
            return "unbounded"
        _pivot(tableau, basis, leave, enter, free)


def _cost_row(costs: dict[int, int], den: int, tableau: list[IntRow], basis: list[int], free: int) -> IntRow:
    """The reduced costs of costs / den (stored) under the basis: costs
    minus each basic row times its column's cost, in lowest terms."""
    nums, row_den = dict(costs), 1
    for (basic, basic_den), col in zip(tableau, basis):
        j, sign = _stored(col, free)
        if cost := sign * costs.get(j, 0):
            common = lcm(row_den, basic_den)
            nums, row_den = _minus(nums, row_den, common // row_den, cost * (common // basic_den), basic)
    return _reduced(nums, row_den * den)


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

    # columns: x split in two (x- not stored), one slack per inequality, one artificial
    # per row whose slack cannot start basic (an equality, or a negative rhs)
    n_slack = len(ineqs)
    rows = []
    for i, (coeffs, b) in enumerate((*ineqs, *eqs)):
        where = f"inequality {i}" if i < n_slack else f"equality {i - n_slack}"
        rows.append((*scaled(coeffs, b, where), i < n_slack))
    total_structural = 2 * n_vars + n_slack
    n_art = sum(1 for _, b, is_ineq in rows if b < 0 or not is_ineq)
    tableau: list[IntRow] = []
    basis: list[int] = []
    next_art = total_structural
    for i, (nums, b, is_ineq) in enumerate(rows):
        unit = next((abs(v) for v in nums if v), 1)  # of the slack and artificial
        row = {k: v for k, v in enumerate(nums) if v}
        if b:
            row[-1] = b
        if is_ineq:
            row[n_vars + i] = unit
        if b < 0:
            row = {k: -v for k, v in row.items()}
        if is_ineq and b >= 0:
            basis.append(2 * n_vars + i)
        else:
            row[next_art - n_vars] = unit
            basis.append(next_art)
            next_art += 1
        tableau.append((row, unit))
    m = len(rows)

    if n_art:
        # phase 1: drive the artificial sum to zero
        artificials = dict.fromkeys(range(n_vars + n_slack, n_vars + n_slack + n_art), 1)
        tableau.append(_cost_row(artificials, 1, tableau, basis, n_vars))
        _run(tableau, basis, total_structural, n_vars)  # artificials may not re-enter
        if tableau[-1][0].get(-1):
            return LPResult("infeasible")
        tableau.pop()
        # pivot lingering zero-value artificials out where possible
        for i in range(m):
            if basis[i] >= total_structural:
                j = min((j for j in tableau[i][0] if 0 <= j < n_vars + n_slack), default=None)
                if j is not None:
                    _pivot(tableau, basis, i, j if j < n_vars else j + n_vars, n_vars)
        keep = [i for i in range(m) if basis[i] < total_structural]
        tableau = [tableau[i] for i in keep]
        basis = [basis[i] for i in keep]
        m = len(basis)

    # phase 2: the real objective, whose numerators sit over obj_den
    tableau.append(_cost_row({k: v for k, v in enumerate(obj) if v}, obj_den, tableau, basis, n_vars))
    if _run(tableau, basis, total_structural, n_vars) == "unbounded":
        return LPResult("unbounded")

    point = [Fraction(0)] * n_vars
    for (nums, den), col in zip(tableau, basis):
        if col < 2 * n_vars:
            j, sign = _stored(col, n_vars)
            point[j] = Fraction(sign * nums.get(-1, 0), den)
    nums, den = tableau[-1]  # the cost row, whose right-hand side is minus the value
    return LPResult("optimal", Fraction(-nums.get(-1, 0), den), tuple(point))
