"""Exact two-phase simplex over the rationals, in integer arithmetic.

One problem form: minimize objective . x over free x subject to rows
a.x <= b and a.x == b.  A maximization is the minimum of the negated
objective, with the value negated back; a sign constraint x_j >= 0 is
the row -x_j <= 0.

The equalities never reach the tableau: they are solved out first, in
integers (presolve's first step), so every tableau row is an inequality
with its own slack, and phase 1 runs only when a right-hand side is negative.

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
its leading coefficient, the unit of its slack and artificial, so its
tableau row is that of the row scaled to lead with 1 or -1.  The ratio
test cross-multiplies, and values turn into Fractions only in the
result.  Built for desk-scale linear programs (tens of rows); all the
polyhedral certificates and the brute-force switching enumeration sit
on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .rational import _combination, integer_row

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


def _cost_row(costs: dict[int, int], tableau: list[IntRow], basis: list[int], free: int) -> IntRow:
    """The reduced costs of the integer costs (stored) under the basis: costs
    minus each basic row times its column's cost, in lowest terms."""
    nums, row_den = dict(costs), 1
    for (basic, basic_den), col in zip(tableau, basis):
        j, sign = _stored(col, free)
        if cost := sign * costs.get(j, 0):
            common = lcm(row_den, basic_den)
            nums, row_den = _minus(nums, row_den, common // row_den, cost * (common // basic_den), basic)
    return _reduced(nums, row_den)


def _solve_equalities(eqs: list[tuple[int, ...]]) -> list[tuple[int, tuple[int, ...]]] | None:
    """Each equality, in order, with the columns of those before it cleared, solved for its
    first nonzero column, taken positive; then each cleared of the columns solved after it,
    so it names its own column and the columns left only.  Every step is a fraction-free
    combination over the gcd, so each row stays primitive.  An equality left with no
    coefficient is dropped; None when one such is 0 = c != 0."""
    solved: list[tuple[int, tuple[int, ...]]] = []
    for eq in eqs:
        eq = _cleared(eq, solved)
        if (j := next((j for j, v in enumerate(eq[:-1]) if v), None)) is None:
            if eq[-1]:
                return None
            continue
        solved.append((j, eq if eq[j] > 0 else tuple(-v for v in eq)))
    for k in range(len(solved) - 2, -1, -1):
        j, eq = solved[k]
        solved[k] = (j, _cleared(eq, solved[k + 1:]))
    return solved


def _cleared(row: tuple[int, ...], solved: Sequence[tuple[int, tuple[int, ...]]]) -> tuple[int, ...]:
    """row with each solved column cleared by its equality (positive there), one fraction-free
    combination over the gcd per column.  The result is the one primitive row that is a positive
    multiple of row plus a combination of the equalities and is zero in those columns."""
    for j, eq in solved:
        if row[j]:
            g = gcd(eq[j], row[j])
            row = _combination(eq[j] // g, row, row[j] // g, eq)
    return row


def _solve_inequalities(rows: list[tuple[list[int], int]], obj: list[int]) -> tuple[str, list[Fraction] | None]:
    """Minimize obj . x over free x subject to the primitive integer rows a.x <= b: the
    status and, when optimal, the vertex Bland's rule reaches.  A row with no coefficient
    is dropped, or makes the LP infeasible if it fails."""
    if any(b < 0 and not any(a) for a, b in rows):
        return "infeasible", None
    rows = [(a, b) for a, b in rows if any(a)]

    # columns: x split in two (x- not stored), one slack per row, one artificial
    # per row whose slack cannot start basic (a negative rhs)
    n, m = len(obj), len(rows)
    total_structural = 2 * n + m
    tableau: list[IntRow] = []
    basis: list[int] = []
    next_art = total_structural
    for i, (nums, b) in enumerate(rows):
        unit = next(abs(v) for v in nums if v)  # of the slack and artificial
        row = {k: v for k, v in enumerate(nums) if v}
        if b:
            row[-1] = b
        row[n + i] = unit
        if b < 0:
            row = {k: -v for k, v in row.items()}
            row[next_art - n] = unit
            basis.append(next_art)
            next_art += 1
        else:
            basis.append(2 * n + i)
        tableau.append((row, unit))

    if next_art > total_structural:
        # phase 1: drive the artificial sum to zero
        artificials = dict.fromkeys(range(n + m, next_art - n), 1)
        tableau.append(_cost_row(artificials, tableau, basis, n))
        _run(tableau, basis, total_structural, n)  # artificials may not re-enter
        if tableau[-1][0].get(-1):
            return "infeasible", None
        tableau.pop()
        # a lingering zero-value artificial leaves on the first nonzero x+ or slack
        # entry of its row, which every row has since each has its own slack
        for i in range(m):
            if basis[i] >= total_structural:
                j = min(j for j in tableau[i][0] if 0 <= j < n + m)
                _pivot(tableau, basis, i, j if j < n else j + n, n)

    # phase 2: the real objective
    tableau.append(_cost_row({k: v for k, v in enumerate(obj) if v}, tableau, basis, n))
    if _run(tableau, basis, total_structural, n) == "unbounded":
        return "unbounded", None

    x = [Fraction(0)] * n
    for (nums, den), col in zip(tableau, basis):
        if col < 2 * n:
            j, sign = _stored(col, n)
            x[j] = Fraction(sign * nums.get(-1, 0), den)
    return "optimal", x


def solve_linear_program(
    n_vars: int, ineqs: Sequence[Row], eqs: Sequence[Row], objective: Sequence[Fraction | int]
) -> LPResult:
    """Minimize objective . x over free x subject to {a.x <= b} and {a.x == b} rows.

    Every coefficient and right-hand side must be an int or a Fraction; a
    float or bool raises ValueError naming its row and column, and a row
    or objective not n_vars wide one naming the row.  Each row is read once,
    as its primitive integer row, so a row and its positive multiples give
    the same tableau and pivot path.  In order, each equality, the columns of
    those before it gone, is solved for its first nonzero column, taken
    positive so every inequality keeps its sense; the equalities are then
    reduced among themselves, each naming its own column and the columns
    left, and every inequality and the objective is cleared of the solved
    columns in one pass, a fraction-free combination per column.  A row left
    with no coefficient is dropped, or makes the LP infeasible if it fails.
    Returns an exact optimal value and a witness point, or the
    infeasible/unbounded status.  The point is the vertex Bland's rule reaches
    on the inequalities left, each eliminated column read off its reduced
    equality; at a non-unique optimum a tableau holding the equalities may
    reach another.
    """
    def scaled(coeffs: Sequence[Fraction | int], rhs: Fraction | int, where: str) -> tuple[int, ...]:
        if len(coeffs) != n_vars:
            raise ValueError(f"{where}: width {len(coeffs)}, expected {n_vars}")
        nums, b = integer_row(coeffs, rhs, where)
        return (*nums, b)

    # the objective as the row obj . x - 0, over a positive factor: the value is read from the point
    obj = scaled(objective, 0, "the objective")
    rows = [scaled(a, b, f"inequality {i}") for i, (a, b) in enumerate(ineqs)] + [obj]
    solved = _solve_equalities([scaled(a, b, f"equality {i}") for i, (a, b) in enumerate(eqs)])
    if solved is None:
        return LPResult("infeasible")
    # so each row is the one a sequential elimination leaves, and the tableau is the same
    left = sorted(set(range(n_vars)) - {j for j, _ in solved})
    *rows, (obj, _) = [([row[j] for j in left], row[-1]) for row in (_cleared(row, solved) for row in rows)]
    status, values = _solve_inequalities(rows, obj)
    if values is None:
        return LPResult(status)
    x = dict(zip(left, values))
    for j, eq in solved:
        x[j] = Fraction(eq[-1] - sum(eq[k] * x[k] for k in left if eq[k]), eq[j])
    point = tuple(x[j] for j in range(n_vars))
    return LPResult("optimal", sum(map(mul, objective, point), Fraction(0)), point)
