import random
from fractions import Fraction as F
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anglecuts import simplex
from anglecuts.rational import integer_row
from anglecuts.simplex import LPResult, _pivot, solve_linear_program

import _brute
from _brute import (dense_pivot, dense_solve_linear_program, dot, eliminate_equalities, eliminated_solve_linear_program,
                    fraction_vertices, rational_simplex, sequential_front_solve_linear_program)


def test_min_with_lower_bound():
    result = solve_linear_program(1, [([F(-1)], F(-1, 3))], [], [F(1)])
    assert result.status == "optimal" and result.value == F(1, 3)


def test_infeasible():
    result = solve_linear_program(1, [([F(1)], F(0)), ([F(-1)], F(-1))], [], [F(1)])
    assert result.status == "infeasible"


def test_unbounded():
    result = solve_linear_program(1, [([F(-1)], F(0))], [], [F(-1)])
    assert result.status == "unbounded"


def test_maximize_over_simplex():
    # the maximum of x0 + x1 is the negated minimum of -x0 - x1
    rows = [([F(1), F(1)], F(1)), ([F(-1), F(0)], F(0)), ([F(0), F(-1)], F(0))]
    result = solve_linear_program(2, rows, [], [F(-1), F(-1)])
    assert -result.value == 1


def test_equality_with_nonneg_variables():
    signs = [([F(-1), F(0)], F(0)), ([F(0), F(-1)], F(0))]  # x >= 0
    result = solve_linear_program(2, signs, [([F(1), F(1)], F(1))], [F(1), F(0)])
    assert result.status == "optimal" and result.value == 0
    assert result.point == (F(0), F(1))


def test_free_variable_equality():
    result = solve_linear_program(1, [], [([F(1)], F(-5))], [F(0)])
    assert result.status == "optimal" and result.point == (F(-5),)


def test_redundant_equalities_kept_consistent():
    result = solve_linear_program(1, [([F(-1)], F(0))], [([F(1)], F(1)), ([F(2)], F(2))], [F(1)])
    assert result.status == "optimal" and result.value == 1


def test_degenerate_corner():
    rows = [
        ([F(1), F(0)], F(4)),
        ([F(0), F(1)], F(3)),
        ([F(1), F(1)], F(5)),
        ([F(-1), F(0)], F(0)),
        ([F(0), F(-1)], F(0)),
    ]
    result = solve_linear_program(2, rows, [], [F(-2), F(-3)])
    assert result.value == -13 and result.point == (F(2), F(3))


def test_exact_fractions_survive():
    rows = [([F(3)], F(1)), ([F(-3)], F(-1))]
    result = solve_linear_program(1, rows, [], [F(1)])
    assert result.point == (F(1, 3),)


@pytest.mark.parametrize("lp, message", [
    (dict(ineqs=[([0.5], F(1))]), "inequality 0, column 0"),
    (dict(ineqs=[([F(1)], F(1))], eqs=[([F(1)], 1.0)]), "equality 0, the right-hand side"),
    (dict(ineqs=[([True], F(1))]), "inequality 0, column 0"),
    (dict(ineqs=[([F(1)], F(1))], objective=[0.25]), "the objective, column 0"),
    # an equality that elimination consumes is read first
    (dict(ineqs=[], eqs=[([True], F(1))]), "equality 0, column 0"),
], ids=["float-coefficient", "float-rhs", "bool-coefficient", "float-objective", "bool-equality-coefficient"])
def test_refuses_inexact_entries(lp, message):
    with pytest.raises(ValueError, match=message):
        solve_linear_program(1, **{"eqs": [], "objective": [F(0)], **lp})


@pytest.mark.parametrize("n_vars, lp, message", [
    (2, dict(ineqs=[([F(1)], F(1))]), "inequality 0: width 1, expected 2"),
    (2, dict(ineqs=[([F(1), F(0)], F(1))], eqs=[([F(1), F(0), F(0)], F(0))]), "equality 0: width 3, expected 2"),
    (2, dict(ineqs=[([F(1), F(0)], F(1))], objective=[F(1)]), "the objective: width 1, expected 2"),
    (1, dict(ineqs=[([F(1)], F(1))], objective=[F(1), F(1)]), "the objective: width 2, expected 1"),
], ids=["short-inequality", "long-equality", "short-objective", "long-objective"])
def test_refuses_rows_of_the_wrong_width(n_vars, lp, message):
    with pytest.raises(ValueError, match=message):
        solve_linear_program(n_vars, **{"eqs": [], "objective": [F(0)] * n_vars, **lp})


def test_accepts_int_entries():
    # the maximum of x over 2x <= 3, x >= 0, as the minimum of -x
    result = solve_linear_program(1, [([2], 3), ([-1], 0)], [], [-1])
    assert result == LPResult("optimal", F(-3, 2), (F(3, 2),))


def test_random_lps_match_vertex_enumeration():
    """The LP optimum equals the best vertex value on bounded polytopes."""
    from anglecuts.oracle import HPolytope, enumerate_vertices

    rng = random.Random(11)
    for _ in range(20):
        dim = rng.randint(2, 3)
        rows = []
        for j in range(dim):  # a box keeps it bounded
            up = [F(0)] * dim
            up[j] = F(1)
            rows.append((tuple(up), F(rng.randint(1, 4))))
            down = [F(0)] * dim
            down[j] = F(-1)
            rows.append((tuple(down), F(rng.randint(0, 2))))
        for _ in range(rng.randint(1, 3)):
            coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
            rows.append((coeffs, F(rng.randint(-2, 6))))
        poly = HPolytope(tuple(rows), dim)
        vertices = fraction_vertices(enumerate_vertices(poly))
        if not vertices:
            continue
        objective = [F(rng.randint(-5, 5)) for _ in range(dim)]
        value, point = rational_simplex(poly, objective, "min")
        assert value == min(dot(objective, v) for v in vertices)
        assert poly.contains(point)


# -- the integer-row pivot against the dense Fraction reference kernel ----------

# mostly zeros, as in the switching LPs, with non-integers whose denominators
# differ, so that rows are scaled by an lcm and reduced by a gcd
ENTRY = st.sampled_from([F(0)] * 4 + [F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3),
                                      F(1, 7), F(-5, 12), F(3, 40), F(11, 13)])


@st.composite
def tableaux(draw):
    """A tableau as the kernel stores it, whose first free columns are the
    x+ columns of free variables, and a nonzero cell of its split form, the
    column in the split numbering."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(2, 7))
    tableau = [draw(st.lists(ENTRY, min_size=cols, max_size=cols)) for _ in range(rows)]
    free = draw(st.integers(0, cols - 1))
    cells = split_cells(tableau, free)
    assume(cells)
    return tableau, free, draw(st.sampled_from(cells))


def split_tableau(tableau, free):
    """The full split tableau of a stored one: each x- column after the x+
    columns, as the negated x+ column."""
    return [list(row[:free]) + [-v for v in row[:free]] + list(row[free:]) for row in tableau]


def stored_half(dense, free):
    """A split tableau with its x- block removed, after checking that block
    is exactly the negated x+ block."""
    assert all(row[free:2 * free] == [-v for v in row[:free]] for row in dense)
    return [row[:free] + row[2 * free:] for row in dense]


def split_cells(tableau, free):
    """The nonzero cells of a stored tableau's split form, in row-major order."""
    return [(r, c) for r, row in enumerate(split_tableau(tableau, free)) for c, v in enumerate(row[:-1]) if v]


def integer_tableau(tableau):
    """Each Fraction row as the kernel keeps it: the primitive row of
    row . x <= 1 as ({column: nonzero numerator}, denominator), the last
    column, the right-hand side, at -1."""
    rows = []
    for row in tableau:
        nums, den = integer_row(row, 1, "row")
        rows.append(({k if k < len(row) - 1 else -1: v for k, v in enumerate(nums) if v}, den))
    return rows


def dense_row(nums, width):
    """A kernel row's numerators as a list of width entries, the right-hand side last."""
    return [nums.get(k, 0) for k in range(width - 1)] + [nums.get(-1, 0)]


def fraction_tableau(tableau, width):
    return [[F(v, den) for v in dense_row(nums, width)] for nums, den in tableau]


def stored_width(n_vars, ineqs):
    """The width of the stored tableau of inequalities: x+, one slack per row,
    one artificial per negative right-hand side, the right-hand side."""
    return n_vars + len(ineqs) + sum(b < 0 for _, b in ineqs) + 1


@given(tableaux())
def test_sparse_pivot_matches_dense_pivot(case):
    # the stored pivot on a split column, an x- one among them, is the dense
    # pivot on the full split tableau with its x- block removed
    tableau, free, (row, col) = case
    sparse, dense = integer_tableau(tableau), split_tableau(tableau, free)
    sparse_basis, dense_basis = list(range(len(tableau))), list(range(len(tableau)))
    _pivot(sparse, sparse_basis, row, col, free)
    dense_pivot(dense, dense_basis, row, col)
    assert (fraction_tableau(sparse, len(tableau[0])), sparse_basis) == (stored_half(dense, free), dense_basis)


@given(tableaux(), st.integers(1, 4))
def test_pivoted_rows_stay_in_lowest_terms(case, pivots):
    tableau, free, (row, col) = case
    work, basis = integer_tableau(tableau), list(range(len(tableau)))
    for _ in range(pivots):
        _pivot(work, basis, row, col, free)
        for nums, den in work:
            assert den > 0 and gcd(den, *nums.values()) == 1 and 0 not in nums.values()
        # pivot next on the first nonzero split cell after (row, col) in row-major order
        cells = split_cells(fraction_tableau(work, len(tableau[0])), free)
        row, col = next((cell for cell in cells if cell > (row, col)), cells[0])


def sign_rows(n):
    """x >= 0 in the one LP form: the rows -x_j <= 0."""
    return [([F(-1) if k == j else F(0) for k in range(n)], F(0)) for j in range(n)]


@st.composite
def linear_programs(draw):
    n = draw(st.integers(1, 4))
    rhs = st.integers(-3, 6).map(F)

    def rows(most):
        return draw(st.lists(st.tuples(st.lists(ENTRY, min_size=n, max_size=n), rhs), max_size=most))

    ineqs, eqs, objective = rows(6), rows(2), draw(st.lists(ENTRY, min_size=n, max_size=n))
    if draw(st.booleans()):  # a maximization, as the minimum of the negated objective
        objective = [-c for c in objective]
    if draw(st.booleans()):  # sign-constrained variables
        ineqs += sign_rows(n)
    return dict(n_vars=n, ineqs=ineqs, eqs=eqs, objective=objective)


@settings(max_examples=300)
@given(linear_programs())
# one fixed case per status, with a negative right-hand side and an equality
@example(dict(n_vars=2, ineqs=[([F(-1), F(-1)], F(-2)), ([F(1), F(0)], F(3)), ([F(0), F(1)], F(3))],
              eqs=[([F(1), F(-1)], F(1, 2))], objective=[F(1), F(2)]))
@example(dict(n_vars=1, ineqs=[([F(1)], F(0)), ([F(-1)], F(-1))], eqs=[], objective=[F(1)]))
# the maximum of x0 over x0 - x1 <= 1 and x >= 0
@example(dict(n_vars=2, ineqs=[([F(1), F(-1)], F(1)), *sign_rows(2)], eqs=[], objective=[F(-1), F(0)]))
def test_solver_matches_dense_reference(lp):
    # the kernel is its Fraction mirror, equalities solved out first, to the
    # point; the artificial-column reference, which keeps the equalities as
    # rows, may reach another point of a non-unique optimum, but not another
    # status or value
    result = solve_linear_program(**lp)
    assert result == eliminated_solve_linear_program(**lp)
    reference = dense_solve_linear_program(**lp)
    assert (result.status, result.value) == (reference.status, reference.value)


@st.composite
def equality_heavy_programs(draw):
    """LPs with up to five columns and as many equalities, redundant and
    contradictory ones among them (a row repeated, scaled or summed)."""
    n = draw(st.integers(1, 5))
    rhs = st.integers(-3, 6).map(F)
    row = st.tuples(st.lists(ENTRY, min_size=n, max_size=n), rhs)
    eqs = draw(st.lists(row, min_size=1, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        (a, b), (c, d) = draw(st.sampled_from(eqs)), draw(st.sampled_from(eqs))
        k = draw(st.sampled_from([F(1), F(-2), F(3, 2)]))
        eqs.append(([x + k * y for x, y in zip(a, c)], b + k * d + draw(st.sampled_from([0, 0, 1]))))
    ineqs = draw(st.lists(row, max_size=5)) + (sign_rows(n) if draw(st.booleans()) else [])
    return dict(n_vars=n, ineqs=ineqs, eqs=eqs, objective=draw(st.lists(ENTRY, min_size=n, max_size=n)))


@settings(max_examples=300, derandomize=True)
@given(linear_programs() | equality_heavy_programs())
def test_one_pass_front_matches_the_sequential_front(lp):
    # the reduced equalities clear each row in one pass; the rows they leave
    # are the primitive ones the sequential elimination leaves, so the
    # tableau, the pivots and the whole result are the same
    assert solve_linear_program(**lp) == sequential_front_solve_linear_program(**lp)


@settings(max_examples=200)
@given(linear_programs())
def test_stored_tableau_is_the_split_tableau_without_its_negative_parts(lp):
    # after every pivot, the kernel's tableau is the split tableau of the
    # dense reference on the mirror's reduced LP with the x- block removed,
    # and that block is the negated x+ block
    stored, dense = [], []
    reduced = eliminate_equalities(**lp)
    left, ineqs = reduced[:2] if reduced else ([], [])

    def record_stored(tableau, basis, row, col, free):
        pivot(tableau, basis, row, col, free)
        stored.append((fraction_tableau(tableau, stored_width(len(left), ineqs)), list(basis)))

    def record_dense(tableau, basis, row, col):
        reference_pivot(tableau, basis, row, col)
        dense.append((stored_half(tableau, len(left)), list(basis)))

    pivot, reference_pivot = simplex._pivot, _brute.dense_pivot
    with mock.patch.object(simplex, "_pivot", record_stored), mock.patch.object(_brute, "dense_pivot", record_dense):
        result = solve_linear_program(**lp)
        assert result == eliminated_solve_linear_program(**lp)
    assert stored == dense
    reference = dense_solve_linear_program(**lp)
    assert (result.status, result.value) == (reference.status, reference.value)


# -- a row enters the tableau over its leading coefficient ---------------------


def lead_scaled_tableau_row(coeffs, rhs):
    """The one-row tableau of coeffs . x <= rhs over free x, built from the
    row divided by the magnitude of its leading coefficient: the stored
    columns of x's positive parts (the negative parts are their negation
    and not stored), slack, artificial, right-hand side, as integer
    numerators over their least common denominator."""
    lead = abs(next(v for v in coeffs if v))
    coeffs, rhs = [F(c) / lead for c in coeffs], F(rhs) / lead
    row = coeffs + [F(1), rhs]
    if rhs < 0:
        row = [-v for v in row]
        row.insert(-1, F(1))  # the artificial
    den = lcm(*(v.denominator for v in row))
    return [int(v * den) for v in row], den


@settings(max_examples=300)
@given(st.lists(ENTRY, min_size=1, max_size=4), ENTRY | st.integers(-3, 6).map(F), st.booleans())
@example([F(0), F(-2, 3), F(1, 2)], F(4), True)  # the lead is not in column 0
@example([F(0), F(0)], F(-5, 3), True)  # an emptied row that fails
@example([F(0), F(0)], F(7, 2), False)  # an emptied equation that fails
@example([F(0)], F(0), True)  # 0 <= 0
def test_tableau_row_is_the_row_over_its_leading_coefficient(coeffs, rhs, is_ineq):
    # the kernel reads the primitive row and sets its slack and artificial in
    # units of the leading coefficient, so every positive multiple of an
    # inequality, the row scaled to lead with 1 or -1 among them, gives one
    # tableau row and one pivot path; an equality is solved out and a row
    # with no coefficient settles the status, so neither becomes a tableau row
    built = []
    run = simplex._run

    def record(tableau, basis, allowed, free):
        # each run's rows, the cost row aside; the first run sees them as built
        built.append([(dense_row(nums, stored_width(len(coeffs), row)), den) for nums, den in tableau[:-1]])
        return run(tableau, basis, allowed, free)

    row = [(coeffs, rhs)]
    lp = (row, []) if is_ineq else ([], row)
    with mock.patch.object(simplex, "_run", record):
        result = solve_linear_program(len(coeffs), *lp, [0] * len(coeffs))
    if is_ineq and any(coeffs):
        assert built[0] == [lead_scaled_tableau_row(coeffs, rhs)]
    else:
        assert all(rows == [] for rows in built)
        fails = not any(coeffs) and (rhs < 0 if is_ineq else rhs != 0)
        assert result.status == ("infeasible" if fails else "optimal")
