"""Independent brute-force oracles used only by the tests.

These deliberately avoid the production code paths they are checking:
path enumeration instead of label-setting search, combinatorial basis
enumeration instead of incremental insertion, a full pair sweep instead
of the screened separation walk, and a dense-tableau simplex that
updates every column of every pivot.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from anglecuts.bounds import global_big_m
from anglecuts.cuts import build_cpvi, cpvi_violation
from anglecuts.graph import split_cycle
from anglecuts.simplex import LPResult, Row


def brute_shortest_path(net, m, n, active=None):
    """Minimum weight over all simple paths, by exhaustive DFS."""
    allowed = set(range(len(net.lines))) if active is None else set(active)
    best = [None]

    def walk(bus, seen, acc):
        if bus == n:
            if best[0] is None or acc < best[0]:
                best[0] = acc
            return
        for idx in net.adjacency[bus]:
            if idx not in allowed:
                continue
            other = net.lines[idx].other(bus)
            if other in seen:
                continue
            walk(other, seen | {other}, acc + net.lines[idx].weight)

    walk(m, {m}, Fraction(0))
    return best[0]


def _solve(matrix, rhs):
    n = len(matrix)
    work = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col]
        work[col] = [v / inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [work[i][n] for i in range(n)]


def brute_vertices(rows, dim):
    """Every vertex by enumerating all dim-subsets of tight rows."""
    found = set()
    for subset in itertools.combinations(range(len(rows)), dim):
        matrix = [list(rows[k][0]) for k in subset]
        rhs = [rows[k][1] for k in subset]
        point = _solve(matrix, rhs)
        if point is None:
            continue
        if all(
            sum((c * x for c, x in zip(coeffs, point)), Fraction(0)) <= b
            for coeffs, b in rows
        ):
            found.add(tuple(point))
    return sorted(found)


def exhaustive_cpvi(net, cycles, pt, tolerance):
    """All cycles times all pairs, no screening, no stopping rule."""
    big_m = global_big_m(net)
    found = {}
    for cycle in cycles:
        buses = sorted(cycle.buses, key=net.bus_index.__getitem__)
        for i in range(len(buses)):
            for j in range(i + 1, len(buses)):
                pair = split_cycle(net, cycle, buses[i], buses[j])
                cut = build_cpvi(pair, big_m)
                violation = cpvi_violation(cut, pt)
                if violation > tolerance:
                    found[(cycle.lines, frozenset((buses[i], buses[j])))] = (cut, violation)
    return found


# -- the dense exact simplex: the reference for the sparse pivot kernel


def dense_pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pivot_row = tableau[row]
    inv = pivot_row[col]
    if inv != 1:
        tableau[row] = pivot_row = [v / inv for v in pivot_row]
    for r, other in enumerate(tableau):
        if r == row:
            continue
        factor = other[col]
        if factor:
            tableau[r] = [a - factor * b for a, b in zip(other, pivot_row)]
    basis[row] = col


def _dense_run(tableau: list[list[Fraction]], basis: list[int], allowed: int) -> str:
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
        dense_pivot(tableau, basis, leave, enter)


def dense_solve_linear_program(
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
        _dense_run(tableau, basis, total_structural)  # artificials may not re-enter
        if tableau[-1][-1] != 0:
            return LPResult("infeasible")
        tableau.pop()
        # pivot lingering zero-value artificials out where possible
        for i in range(m):
            if basis[i] >= total_structural:
                col = next((j for j in range(total_structural) if tableau[i][j] != 0), None)
                if col is not None:
                    dense_pivot(tableau, basis, i, col)
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
    if _dense_run(tableau, basis, total_structural) == "unbounded":
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
