import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anglecuts import oracle, simplex
from anglecuts.cuts import build_cpvi, cpvi_from_json, cpvi_to_json, cvi_from_json, cvi_to_json
from anglecuts.errors import AllPatternsInfeasibleError, CapExceededError, UnboundedError
from anglecuts.extended import build_extended, eliminate
from anglecuts.graph import fundamental_cycle_basis, split_cycle
from anglecuts.milp import MilpModel, build_dcots, dcots_names, fixed_topology, lp_text
from anglecuts.oracle import (
    HULL_CANDIDATES,
    CertificateReport,
    Claim,
    DcotsResult,
    HPolytope,
    ModelLP,
    affine_rank,
    brute_force_dcots,
    candidate_hull,
    cpvi_validity_certificate,
    enumerate_vertices,
    facet_certificate,
    full_dimension_certificate,
    hull_equality,
    integer_points,
    local_idealness_certificate,
    model_polytope,
    pair_relaxation,
)
from anglecuts.rational import format_rational, integer_row, matrix_rank
from anglecuts.simplex import LPResult, solve_linear_program

from _brute import (
    InfeasibleError,
    brute_vertices,
    dense_solve_linear_program,
    dot,
    fraction_matrix_rank,
    fraction_vertices,
    model_bounds,
    model_rows,
    point_in_hull,
    rational_simplex,
    with_all_lines_fixed,
)
from conftest import basis_cuts, make_net, random_net, ring_net


@pytest.fixture(scope="module")
def fig1_pair(fig1):
    return split_cycle(fig1, fundamental_cycle_basis(fig1)[0], "i0", "i4")


@pytest.fixture(scope="module")
def fig1_relax(fig1, fig1_pair):
    return pair_relaxation(fig1, fig1_pair, F(6))


# -- integer points ---------------------------------------------------------


def test_integer_points_bounds(fig1_pair, fig1_relax):
    points = integer_points(fig1_relax)
    by_bits = {}
    for d, bits in points:
        by_bits.setdefault(bits, set()).add(d)
    assert by_bits[(1,) * 6] == {F(-2), F(0), F(2)}
    assert by_bits[(0,) * 6] == {F(-6), F(0), F(6)}
    # one longer-path line off, shorter active: the shorter path governs
    bits = [1] * 6
    bits[fig1_pair.longer.lines[0]] = 0
    assert max(by_bits[tuple(bits)]) == 2


def test_integer_points_cap():
    net = ring_net([1] * 21)
    pair = split_cycle(net, fundamental_cycle_basis(net)[0], "r0", "r1")
    with pytest.raises(CapExceededError):
        integer_points(pair_relaxation(net, pair, net.lines[0].weight * 21))


# -- vertex enumeration -----------------------------------------------------


def _box_rows(dim, hi=1):
    rows = []
    for j in range(dim):
        up = [F(0)] * dim
        up[j] = F(1)
        rows.append((tuple(up), F(hi)))
        down = [F(0)] * dim
        down[j] = F(-1)
        rows.append((tuple(down), F(0)))
    return rows


def test_unit_box_vertices():
    poly = HPolytope(tuple(_box_rows(2)), 2)
    assert len(enumerate_vertices(poly)) == 4
    poly3 = HPolytope(tuple(_box_rows(3)), 3)
    assert len(enumerate_vertices(poly3)) == 8


def test_simplex_vertices():
    rows = [((F(1), F(1)), F(1)), ((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))]
    assert fraction_vertices(enumerate_vertices(HPolytope(tuple(rows), 2))) == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
    ]


def test_empty_polytope():
    rows = [((F(1),), F(0)), ((F(-1),), F(-1))]
    assert enumerate_vertices(HPolytope(tuple(rows), 1)) == []


def test_unbounded_polytope_raises():
    rows = [((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))]
    with pytest.raises(UnboundedError):
        enumerate_vertices(HPolytope(tuple(rows), 2))


def test_lower_dimensional_polytope():
    rows = _box_rows(2) + [((F(1), F(0)), F(0))]  # x pinned to 0
    vertices = fraction_vertices(enumerate_vertices(HPolytope(tuple(rows), 2)))
    assert vertices == [(F(0), F(0)), (F(0), F(1))]


def test_caps_raise():
    with pytest.raises(CapExceededError):
        enumerate_vertices(HPolytope(tuple(_box_rows(13)), 13))
    rows = tuple(_box_rows(2)) * 11
    with pytest.raises(CapExceededError):
        enumerate_vertices(HPolytope(rows, 2))


def _rational(rng, low, high):
    """An integer in [low, high] half the time, else a rational in that
    range whose denominator the other entries need not share."""
    if rng.random() < 0.5:
        return F(rng.randint(low, high))
    den = rng.choice([2, 3, 5, 7, 12])
    return F(rng.randint(low * den, high * den), den)


def _scaled(rng, row):
    """The row times a random positive rational: the same halfspace."""
    coeffs, b = row
    factor = F(rng.randint(1, 9), rng.randint(1, 9))
    return tuple(factor * c for c in coeffs), factor * b


def test_vertices_match_basis_enumeration_oracle():
    # dim 1 included: there an edge's common tight set is empty
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.randint(1, 4)
        rows = [_scaled(rng, row) if rng.random() < 0.3 else row
                for row in _box_rows(dim, hi=_rational(rng, 1, 3))]
        for _ in range(rng.randint(1, 4)):
            coeffs = tuple(_rational(rng, -2, 3) for _ in range(dim))
            rows.append((coeffs, _rational(rng, -1, 5)))
        poly = HPolytope(tuple(rows), dim)
        assert fraction_vertices(enumerate_vertices(poly)) == brute_vertices(rows, dim)


def _degenerate_rows(rng, dim):
    """A random box-bounded polytope made degenerate on purpose: repeated
    rows and rows scaled by a rational, rows through a vertex that cut the
    polytope, and redundant rows through a vertex (the sum of two rows
    tight there)."""
    rows = _box_rows(dim, hi=_rational(rng, 1, 3))
    for _ in range(rng.randint(1, 3)):
        rows.append((tuple(_rational(rng, -2, 3) for _ in range(dim)), _rational(rng, -1, 5)))
    for _ in range(rng.randint(2, 4)):
        vertices = brute_vertices(rows, dim)
        kind = rng.randrange(4)
        if kind == 0:
            rows.append(rng.choice(rows))
        elif kind == 1:
            rows.append(_scaled(rng, rng.choice(rows)))
        elif vertices and kind == 2:
            v = rng.choice(vertices)
            coeffs = tuple(_rational(rng, -2, 2) for _ in range(dim))
            rows.append((coeffs, dot(coeffs, v)))
        elif vertices:
            v = rng.choice(vertices)
            tight = [row for row in rows if dot(row[0], v) == row[1]]
            (a, b), (c, d) = rng.sample(tight, 2) if len(tight) > 1 else tight * 2
            rows.append((tuple(x + y for x, y in zip(a, c)), b + d))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(24))
def test_vertices_match_oracle_on_degenerate_polytopes(seed):
    # a vertex with more than dim tight rows is where deriving a new
    # vertex's tight set from its edge, not from the rows, has to hold
    rng = random.Random(seed)
    dim = 1 + seed % 4
    rows = _degenerate_rows(rng, dim)
    assert fraction_vertices(enumerate_vertices(HPolytope(tuple(rows), dim))) == brute_vertices(rows, dim)


def test_vertices_come_reduced_in_the_order_of_their_points():
    # on the degenerate cases above: each vertex is its gcd-reduced (x, w)
    # with w > 0, and the integer sort keys give the Fractions' sorted order,
    # also where the vertices' denominators w differ
    mixed = 0
    for seed in range(24):
        rows = _degenerate_rows(random.Random(seed), 1 + seed % 4)
        vertices = enumerate_vertices(HPolytope(tuple(rows), 1 + seed % 4))
        assert all(w > 0 and gcd(w, *x) == 1 for x, w in vertices)
        points = fraction_vertices(vertices)
        assert points == sorted(points) == brute_vertices(rows, 1 + seed % 4)
        mixed += len({w for _, w in vertices}) > 1
    assert mixed  # some case orders points over different denominators


RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def any_polytope(draw):
    """Rows over dims 0-4 that may leave the polytope empty, unbounded or
    of lower rank: box rows on some sides, rational and zero rows, right-hand
    sides of either sign, coordinates no row touches, all shuffled."""
    dim = draw(st.integers(0, 4))
    untouched = draw(st.sets(st.integers(0, dim - 1), max_size=dim)) if dim else set()
    rows = []
    for j in sorted(set(range(dim)) - untouched):
        for sign in sorted(draw(st.sets(st.sampled_from((1, -1))))):
            rows.append((tuple(F(sign if i == j else 0) for i in range(dim)), draw(RATIONAL)))
    for _ in range(draw(st.integers(0, 4))):
        zero = draw(st.integers(0, 9)) == 0
        coeffs = tuple(F(0) if zero or j in untouched else draw(RATIONAL) for j in range(dim))
        rows.append((coeffs, draw(RATIONAL)))
    return draw(st.permutations(rows)), dim


def _reference_vertices(rows, dim):
    """[] when the LP finds no point, else the message naming the first
    coordinate with no LP minimum or maximum, else the basis enumeration."""
    poly = HPolytope(tuple(rows), dim)
    try:
        rational_simplex(poly, [F(0)] * dim)
    except InfeasibleError:
        return []
    for j in range(dim):
        for sense in ("min", "max"):
            try:
                rational_simplex(poly, [F(int(i == j)) for i in range(dim)], sense)
            except UnboundedError:
                return f"polytope is unbounded in coordinate {j}"
    return brute_vertices(rows, dim)


@settings(max_examples=300, derandomize=True)
@given(any_polytope())
def test_vertices_match_the_lp_and_basis_references(case):
    rows, dim = case
    expected = _reference_vertices(rows, dim)
    if isinstance(expected, str):
        with pytest.raises(UnboundedError, match=f"^{expected}$"):
            enumerate_vertices(HPolytope(tuple(rows), dim))
    else:
        assert fraction_vertices(enumerate_vertices(HPolytope(tuple(rows), dim))) == expected


class _Ranked(tuple):
    """A polytope row that sorts by a rank of its own, so that the double
    description inserts the rows in an order the test chooses."""

    def __new__(cls, row, rank):
        ranked = super().__new__(cls, row)
        ranked.rank = rank
        return ranked

    def __lt__(self, other):
        return self.rank < other.rank


def _vertices_or_message(poly):
    try:
        return enumerate_vertices(poly)
    except UnboundedError as exc:
        return str(exc)


@settings(max_examples=300, derandomize=True)
@given(any_polytope(), st.randoms(use_true_random=False))
def test_vertices_do_not_depend_on_the_row_order(case, rng):
    # the vertices are sorted by point, and the unbounded coordinate is the
    # first in the recession cone's support: neither depends on the order the
    # rows are inserted in, which only shapes the intermediate cones
    rows, dim = case
    expected = _vertices_or_message(HPolytope(tuple(rows), dim))
    shuffled = HPolytope(tuple(rng.sample(rows, len(rows))), dim)
    assert _vertices_or_message(shuffled) == expected
    # the same rows inserted in the shuffled order rather than the lexicographic one
    object.__setattr__(shuffled, "rows", tuple(_Ranked(row, k) for k, row in enumerate(shuffled.rows)))
    assert _vertices_or_message(shuffled) == expected


@st.composite
def polytope_and_point(draw):
    """Rows with rational coefficients and a rational or integer point,
    some rows passing exactly through the point."""
    dim = draw(st.integers(1, 4))
    point = tuple(draw(st.lists(st.one_of(RATIONAL, st.integers(-3, 3)), min_size=dim, max_size=dim)))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = tuple(draw(st.lists(RATIONAL, min_size=dim, max_size=dim)))
        on_row = draw(st.booleans())
        rows.append((coeffs, dot(coeffs, point) if on_row else draw(RATIONAL)))
    return rows, point


@given(polytope_and_point())
def test_first_violated_matches_the_rational_rows(case):
    rows, point = case
    poly = HPolytope(tuple(rows), len(point))
    expected = next((k for k, (coeffs, b) in enumerate(rows) if dot(coeffs, point) > b), None)
    assert poly.first_violated(point) == expected
    assert poly.contains(point) == (expected is None)


@pytest.mark.parametrize("rows, message", [
    ((((F(1), 0.5), F(1)),), "row 0, column 1"),
    ((((F(1), F(0)), F(1)), ((F(0), F(1)), True)), "row 1, the right-hand side"),
    ((((F(1), False), F(1)),), "row 0, column 1"),
], ids=["float-coefficient", "bool-rhs", "bool-coefficient"])
def test_polytope_refuses_inexact_entries(rows, message):
    with pytest.raises(ValueError, match=message):
        HPolytope(rows, 2)


@pytest.mark.parametrize("rows, message", [
    ((((F(1),), F(1)),), "row 0: width 1, expected 2"),
    ((((F(1), F(0)), F(1)), ((F(0), F(1), F(0)), F(1))), "row 1: width 3, expected 2"),
], ids=["short-row", "long-row"])
def test_polytope_refuses_rows_of_the_wrong_width(rows, message):
    with pytest.raises(ValueError, match=message):
        HPolytope(rows, 2)


def test_polytope_accepts_int_entries():
    poly = HPolytope((((1, 0), 2), ((-1, 0), 0), ((0, 1), F(1, 2)), ((0, -1), 0)), 2)
    assert fraction_vertices(enumerate_vertices(poly)) == [(0, 0), (0, F(1, 2)), (2, 0), (2, F(1, 2))]


def test_extended_two_cycle_vertices_binary():
    net = ring_net([1, 3])
    pair = split_cycle(net, fundamental_cycle_basis(net)[0], "r0", "r1")
    poly = model_polytope(build_extended(pair, F(4)))
    vertices = fraction_vertices(enumerate_vertices(poly))
    assert vertices == brute_vertices(list(poly.rows), poly.dim)
    for vertex in vertices:
        assert all(v in (0, 1) for v in vertex[1:])


@pytest.mark.parametrize("weights, ends, big_m, count", [
    ([1, 3], ("r0", "r1"), F(4), 8),
    ([1] * 6, ("r0", "r4"), F(6), 128),
], ids=["two-cycle-ring", "unit-six-ring"])
def test_extended_vertex_count_pinned(weights, ends, big_m, count):
    net = ring_net(weights)
    pair = split_cycle(net, fundamental_cycle_basis(net)[0], *ends)
    assert len(enumerate_vertices(model_polytope(build_extended(pair, big_m)))) == count


@pytest.mark.parametrize("weights, ends, big_m, calls", [
    ([1] * 6, ("r0", "r4"), F(6), 150),
    ([1, 2, 3, 4, 5, 6], ("r0", "r3"), F(21), 154),
], ids=["unit-six-ring", "distinct-six-ring"])
def test_lexicographic_row_order_combination_count_pinned(monkeypatch, weights, ends, big_m, calls):
    # the lifted model's rows enter the double description in lexicographic
    # order; in the model's own order the same vertices took 405 and 300 rays
    net = ring_net(weights)
    pair = split_cycle(net, fundamental_cycle_basis(net)[0], *ends)
    poly = model_polytope(build_extended(pair, big_m))
    count = 0
    kernel = oracle._combination

    def record(*args):
        nonlocal count
        count += 1
        return kernel(*args)

    monkeypatch.setattr(oracle, "_combination", record)
    assert len(enumerate_vertices(poly)) == 128
    assert count == calls


# -- affine rank ------------------------------------------------------------


def test_affine_rank_examples(fig1_pair, fig1_relax):
    cut = build_cpvi(fig1_pair, F(6))
    report = facet_certificate(cut, integer_points(fig1_relax), fig1_relax)
    assert report.passed
    assert affine_rank([(F(1), F(2)), (F(1), F(2))]) == 0
    dim = 4
    points = [tuple(F(0) for _ in range(dim))]
    for j in range(dim):
        e = [F(0)] * dim
        e[j] = F(1)
        points.append(tuple(e))
    assert affine_rank(points) == dim


@st.composite
def matrices(draw):
    """Rows of int and rational entries, some of them zero rows or combinations
    of two earlier rows, so often rank-deficient; zero-width rows among them."""
    width = draw(st.integers(0, 5))
    entry = st.integers(-3, 3) | RATIONAL
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("drawn", "zero", "combination")))
        if kind == "combination" and rows:
            u, v, a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(entry), draw(entry)
            rows.append([a * x + b * y for x, y in zip(u, v)])
        elif kind == "zero":
            rows.append([0] * width)
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    return rows


@settings(max_examples=300, derandomize=True)
@given(matrices())
@example([])  # no rows
@example([[], []])  # rows of no column
@example([[0, F(0)], [0, 0]])  # the zero matrix
@example([[F(1, 2), 1, 0], [1, 2, 0], [0, 0, F(-3, 7)]])  # rank-deficient
def test_matrix_rank_matches_the_fraction_elimination(rows):
    assert matrix_rank(rows) == fraction_matrix_rank(rows)


# -- certificates -----------------------------------------------------------


def test_validity_certificate(fig1_pair, fig1_relax):
    cut = build_cpvi(fig1_pair, F(6))
    assert cpvi_validity_certificate(cut, integer_points(fig1_relax)).passed


def test_full_dimension_certificate(fig1_relax):
    report = full_dimension_certificate(fig1_relax)
    assert report.claim is Claim.FULL_DIMENSION and report.passed


def test_full_dimension_refused_on_a_row_through_the_center(fig1_pair, fig1_relax):
    # y of the first cycle line <= 1/2 passes through (0, 1/2, ..., 1/2)
    row = tuple(F(int(j == 1)) for j in range(fig1_relax.dim))
    relax = HPolytope((*fig1_relax.rows, (row, F(1, 2))), fig1_relax.dim)
    witness = {"non_interior_row": len(fig1_relax.rows), "point": ["0"] + ["1/2"] * (fig1_relax.dim - 1)}
    assert full_dimension_certificate(relax) == CertificateReport(Claim.FULL_DIMENSION, False, witness)
    # the tight family still checks out against the true relaxation's integer points
    report = facet_certificate(build_cpvi(fig1_pair, F(6)), integer_points(fig1_relax), relax)
    assert report == CertificateReport(Claim.FACET_RANK, False, {"full_dimension": witness})


def test_facet_certificate_fig1(fig1_pair, fig1_relax):
    assert facet_certificate(build_cpvi(fig1_pair, F(6)), integer_points(fig1_relax), fig1_relax).passed


def test_facet_certificate_degenerate_tie_recorded():
    net = ring_net([1, 1, 1, 1])
    pair = split_cycle(net, fundamental_cycle_basis(net)[0], "r0", "r2")
    relax = pair_relaxation(net, pair, F(4))
    report = facet_certificate(build_cpvi(pair, F(4)), integer_points(relax), relax)
    assert report == CertificateReport(Claim.FACET_RANK, True)


def test_facet_certificate_big_m_boundary(fig1, fig1_pair):
    relax = pair_relaxation(fig1, fig1_pair, F(4))
    report = facet_certificate(build_cpvi(fig1_pair, F(4)), integer_points(relax), relax)  # delta_m == 0
    assert report == CertificateReport(Claim.FACET_RANK, True)


def test_local_idealness_fig1(fig1, fig1_pair):
    report = local_idealness_certificate(build_extended(fig1_pair, F(6)))
    assert report.passed


def test_hull_equality_strict_fails_with_zero_pattern_witness(fig1_pair, fig1_relax):
    candidate = candidate_hull(fig1_pair, build_extended(fig1_pair, F(6)), "cpvi_only")
    report = hull_equality(integer_points(fig1_relax), fig1_relax, candidate)
    assert not report.passed
    witness = report.witness["infeasible_vertex"]
    assert witness[1:] == ["0"] * 6  # every line off
    assert abs(F(witness[0])) == 14  # the cut constant, well past the big-M of 6


def test_hull_equality_fallback_candidate_still_leaks(fig1_pair, fig1_relax):
    """The y box, the cut, and the fallback bound do not close the hull:
    a vertex with the shorter path active sits above the shorter-path row."""
    candidate = candidate_hull(fig1_pair, build_extended(fig1_pair, F(6)), "cpvi_with_fallback")
    points = integer_points(fig1_relax)
    report = hull_equality(points, fig1_relax, candidate)
    assert not report.passed
    key = "infeasible_vertex" if "infeasible_vertex" in report.witness else "fractional_vertex"
    vertex = [F(v) for v in report.witness[key]]
    if key == "infeasible_vertex":
        assert not fig1_relax.contains(vertex)
        # independent confirmation: not a convex combination of integer points
        generators = [(d, *[F(b) for b in bits]) for d, bits in points]
        assert not point_in_hull(vertex, generators)


def test_hull_equality_completed_projection_passes(fig1_pair, fig1_relax):
    candidate = candidate_hull(fig1_pair, build_extended(fig1_pair, F(6)), "completed_projection")
    assert hull_equality(integer_points(fig1_relax), fig1_relax, candidate).passed


def test_candidates_are_read_off_the_given_model(fig1_pair):
    """A copy of fig1's lifted model whose angle_hi rhs is 1 higher moves
    every branch row of every candidate by 1 (the cut, |angle| <= M and
    the single-arc rows: 14, 6, 10 and 12 at M = 6) and leaves the y box."""
    lifted = build_extended(fig1_pair, F(6))
    shifted = MilpModel(list(lifted.variables), [dataclasses.replace(con, rhs=con.rhs + 1) if con.name == "angle_hi"
                                                 else con for con in lifted.constraints])
    for name, branches in HULL_CANDIDATES.items():
        rows = candidate_hull(fig1_pair, lifted, name).rows
        moved = candidate_hull(fig1_pair, shifted, name).rows
        assert list(moved) == [(coeffs, b + 1 if coeffs[0] else b) for coeffs, b in rows]
        assert sum(1 for coeffs, _ in rows if coeffs[0]) == 2 * len(branches)
    assert {b for coeffs, b in moved if coeffs[0]} == {15, 7, 11, 13}  # completed_projection comes last


def test_candidate_hull_rejects_an_unknown_name(fig1, fig1_pair):
    with pytest.raises(ValueError, match="unknown hull candidate 'complete'"):
        candidate_hull(fig1_pair, build_extended(fig1_pair, F(6)), "complete")


def pair_model(pair, angle_rows):
    """The pair space as a model, the lifted model's names and order: the
    angle difference (free), then y in cycle-line order, each in [0, 1],
    then for each (name, slopes, rhs) the rows +-dtheta + slopes . y <= rhs
    as <name>_hi and <name>_lo."""
    model = MilpModel()
    model.add_variable("dtheta", "continuous", None, None)
    for line in pair.cycle.lines:
        model.add_variable(f"y_{line}", "continuous", 0, 1)
    for name, slopes, rhs in angle_rows:
        terms = [(f"y_{line}", c) for line, c in slopes.items()]
        for sign, side in ((1, "hi"), (-1, "lo")):
            model.add_constraint(f"{name}_{side}", [("dtheta", sign), *terms], "<=", rhs)
    return model


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32))
def test_pair_polytopes_are_their_models_read_back(seed):
    """On a seeded net, cycle, pair and big-M, the relaxation and every hull
    candidate, written as integer rows, equal model_polytope of the model of
    the same rows, the polytope they were read from before."""
    rng = random.Random(seed)
    net = random_net(seed)
    cycle = rng.choice(fundamental_cycle_basis(net))
    pair = split_cycle(net, cycle, *rng.sample(list(cycle.buses), 2))
    big_m = pair.longer.total_weight + rng.choice((0, F(1, 2), rng.randint(1, 5)))
    rows = []
    for arc, path in (("short", pair.shorter), ("long", pair.longer)):
        slopes = {line: big_m - net.lines[line].weight for line in path.lines}
        rows.append((arc, slopes, path.total_weight + sum(slopes.values(), F(0))))
    assert pair_relaxation(net, pair, big_m) == model_polytope(pair_model(pair, [*rows, ("fallback", {}, big_m)]))
    lifted = build_extended(pair, big_m)
    for name, branches in HULL_CANDIDATES.items():
        model = pair_model(pair, [(f"branch_{k}", *eliminate(pair, lifted, linked)) for k, linked in enumerate(branches)])
        assert candidate_hull(pair, lifted, name) == model_polytope(model)


def test_hull_equality_trivial_box_fails(fig1_relax):
    size = 6
    rows = []
    for sign in (1, -1):
        coeffs = [F(0)] * (size + 1)
        coeffs[0] = F(sign)
        rows.append((tuple(coeffs), F(6)))
    for j in range(size):
        up = [F(0)] * (size + 1)
        up[j + 1] = F(1)
        rows.append((tuple(up), F(1)))
        down = [F(0)] * (size + 1)
        down[j + 1] = F(-1)
        rows.append((tuple(down), F(0)))
    report = hull_equality(integer_points(fig1_relax), fig1_relax, HPolytope(tuple(rows), size + 1))
    assert not report.passed and "infeasible_vertex" in report.witness


def test_hull_equality_cap(fig1):
    net = ring_net([1] * 7)
    pair = split_cycle(net, fundamental_cycle_basis(net)[0], "r0", "r3")
    relax = pair_relaxation(net, pair, F(7))
    with pytest.raises(CapExceededError):
        hull_equality(integer_points(relax), relax, candidate_hull(pair, build_extended(pair, F(7)), "cpvi_with_fallback"))


def test_completed_hull_on_random_cycles():
    rng = random.Random(31)
    for _ in range(8):
        size = rng.randint(2, 5)
        weights = [F(rng.randint(1, 20), rng.randint(1, 6)) for _ in range(size)]
        net = ring_net(weights)
        cycle = fundamental_cycle_basis(net)[0]
        m, n = rng.sample(list(cycle.buses), 2)
        pair = split_cycle(net, cycle, m, n)
        candidate = candidate_hull(pair, build_extended(pair, cycle.total_weight), "completed_projection")
        relax = pair_relaxation(net, pair, cycle.total_weight)
        assert hull_equality(integer_points(relax), relax, candidate).passed


def first_violated_point(poly, points):
    """The first integer point, made homogeneous, that HPolytope.first_violated
    finds outside poly, with that row: the reference for the certificates' test."""
    for dtheta, bits in points:
        x = (dtheta.numerator, *(b * dtheta.denominator for b in bits))
        if (row := poly.first_violated(x, dtheta.denominator)) is not None:
            return (dtheta, bits), row
    return None


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32))
def test_integer_point_tests_match_first_violated(seed):
    """On a seeded ring, pair and big-M, hull_equality and the validity
    certificate find the first violated integer point and row that
    HPolytope.first_violated finds, and report that witness, for every hull
    candidate and the cut as built (passing) and with the bound of each
    angle row lowered (failing at some integer point)."""
    rng = random.Random(seed)
    net = ring_net([F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(rng.randint(3, 5))])
    cycle = fundamental_cycle_basis(net)[0]
    pair = split_cycle(net, cycle, *rng.sample(list(cycle.buses), 2))
    big_m = pair.longer.total_weight + rng.randint(0, 3)
    relax = pair_relaxation(net, pair, big_m)
    points, lifted, cut = integer_points(relax), build_extended(pair, big_m), build_cpvi(pair, big_m)
    found = set()
    for lower in (0, F(1, 2), rng.randint(1, 3)):
        for name in HULL_CANDIDATES:
            hull = candidate_hull(pair, lifted, name)
            candidate = HPolytope(tuple((c, b - lower if c[0] else b) for c, b in hull.rows), hull.dim)
            expected = first_violated_point(candidate, points)
            assert oracle._first_violation(candidate.rows, points) == expected
            if expected:
                (dtheta, bits), row = expected
                witness = {"violated_integer_point": {"dtheta": format_rational(dtheta), "y": list(bits)}, "row": row}
                assert hull_equality(points, relax, candidate) == CertificateReport(Claim.HULL_EQUALITY, False, witness)
            found.add(expected is None)
        y = [-dict(cut.y_coeffs).get(line, 0) for line in pair.cycle.lines]
        rows = HPolytope((((1, *y), cut.constant - lower), ((-1, *y), cut.constant - lower)), 1 + len(y))
        expected = first_violated_point(rows, points)
        report = cpvi_validity_certificate(dataclasses.replace(cut, constant=cut.constant - lower), points)
        if expected:
            (dtheta, bits), _ = expected
            witness = {"integer_point": {"dtheta": format_rational(dtheta), "y": list(bits)}}
            assert report == CertificateReport(Claim.VALIDITY, False, witness)
        else:
            assert lower == 0 and report == CertificateReport(Claim.VALIDITY, True)
    assert found == {True, False}


# -- rational simplex over polytopes ---------------------------------------


def test_rational_simplex_examples(fig1, fig1_pair):
    poly = HPolytope((((F(-1),), F(-1, 3)),), 1)
    value, point = rational_simplex(poly, [F(1)], "min")
    assert value == F(1, 3)

    system = model_polytope(build_extended(fig1_pair, F(6)))
    value, _ = rational_simplex(system, [F(1)] + [F(0)] * (system.dim - 1), "max")
    assert value == 6  # the unlinked big-M bound is attainable


# -- brute-force switching enumeration --------------------------------------


def test_model_lp_scales_rows_and_keeps_an_emptied_row_only_when_it_fails():
    model = MilpModel()
    model.add_variable("x", "continuous", F(0), None)
    model.add_variable("y", "binary", F(0), F(1))
    model.add_constraint("c", [("x", 2), ("y", 1)], "<=", F(3))
    model.add_constraint("d", [("y", 1)], "<=", F(0))
    lp = ModelLP(model, switches=[({"y": ({}, F(0))}, {"y": ({}, F(1))})])
    assert lp.bounds == [([-1], 0)]
    # y = 0: 2x <= 3, and d is left 0 <= 0, which holds, so the simplex drops it
    ineqs, eqs = lp.rows((0,))
    assert (ineqs, eqs) == ([([2], 3), ([0], 0)], [])
    result = solve_linear_program(1, lp.bounds + ineqs, eqs, [-1])
    assert result == solve_linear_program(1, lp.bounds + ineqs[:1], eqs, [-1]) == LPResult("optimal", F(-3, 2), (F(3, 2),))
    # y = 1: 2x <= 2, which the simplex reads as x <= 1, and d is left 0 <= -1,
    # which fails, so the LP is infeasible
    ineqs, eqs = lp.rows((1,))
    assert (ineqs, eqs) == ([([2], 2), ([0], -1)], [])
    assert [integer_row(a, b, "row") for a, b in ineqs] == [([1], 1), ([0], -1)]
    assert solve_linear_program(1, lp.bounds + ineqs[:1], eqs, [-1]) == LPResult("optimal", F(-1), (F(1),))
    assert solve_linear_program(1, lp.bounds + ineqs, eqs, [-1]) == LPResult("infeasible")


def primitive_rows(rows):
    return [integer_row(a, b, "row") for a, b in rows]


@given(st.integers(0, 2**32))
@example(0)  # parallel lines, two of them switchable
def test_row_reader_matches_the_per_pattern_reader(seed):
    """For every pattern of a seeded net, brute force's reader (each row read
    once as vectors per line state, summed) gives, up to a positive factor,
    the rows of the reference reader that substitutes each pattern's
    fixed_topology in Fractions, for every row of the model with all its
    basis cuts, and for the cut rows alone.  The simplex drops every row left
    with no term that holds, and a failing one makes the pattern infeasible."""
    net = random_net(seed, max_buses=5)
    switchable = [idx for idx, line in enumerate(net.lines) if line.switchable]
    assume(1 <= len(switchable) <= 6)
    cpvis, cvis = basis_cuts(net)
    model = build_dcots(net, "global", cpvis, cvis)
    split = len(model.constraints) - 2 * (len(cpvis) + len(cvis))
    names = dcots_names(net)
    # y >= 1 on a switchable line: emptied in every pattern, it holds with
    # the line closed and fails with it open
    model.add_constraint("forced_on", [(names.y[switchable[0]], F(-1))], "<=", F(-1))
    closed = fixed_topology(net, dict.fromkeys(range(len(net.lines)), 1))
    opened = fixed_topology(net, dict.fromkeys(range(len(net.lines)), 0))
    switches = [tuple({var: subst[var] for var in (names.f[i], names.y[i])} for subst in (opened, closed))
                for i in switchable]
    lp = ModelLP(model, closed, switches)
    n = len(lp.columns)
    for bits in itertools.product((1, 0), repeat=len(switchable)):
        fixed = fixed_topology(net, {**dict.fromkeys(range(len(net.lines)), 1), **dict(zip(switchable, bits))})
        ineqs, eqs = lp.rows(bits)
        assert (primitive_rows(ineqs), primitive_rows(eqs)) == model_rows(lp.columns, model.constraints, fixed)
        cut_rows, _ = lp.rows(bits, slice(split, -1))
        assert (primitive_rows(cut_rows), []) == model_rows(lp.columns, model.constraints[split:-1], fixed)
        assert primitive_rows(ineqs[-1:]) == [([0] * n, -1 if bits[0] == 0 else 0)]  # forced_on
        result = solve_linear_program(n, lp.bounds + ineqs, eqs, lp.objective)
        if bits[0] == 0:
            assert result == LPResult("infeasible")
        elif not any(bits[1:]):  # one pattern a seed: dropping every emptied row that holds gives the same result
            assert not any(eqs[-1][0]) and eqs[-1][1] == 0  # the reference angle's row, 0 = 0
            assert result == solve_linear_program(n, lp.bounds + [r for r in ineqs if any(r[0]) or r[1] < 0],
                                                  [r for r in eqs if any(r[0]) or r[1]], lp.objective)


def test_model_lp_reads_bounds_as_primitive_rows():
    model = MilpModel()
    model.add_variable("x", "continuous", F(-1, 3), F(5, 2))
    model.add_variable("t", "continuous", None, F(4))
    lp = ModelLP(model)
    # x <= 5/2 as 2x <= 5, -x <= 1/3 as -3x <= 1, t <= 4 as it stands
    assert lp.bounds == [([2, 0], 5), ([-3, 0], 1), ([0, 1], 4)]


EXACT_BOUND = st.none() | st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6)


@given(st.lists(st.tuples(EXACT_BOUND, EXACT_BOUND), max_size=5))
def test_model_lp_bounds_match_the_dense_reader(bounds):
    model = MilpModel()
    for j, (lower, upper) in enumerate(bounds):
        model.add_variable(f"x{j}", "continuous", lower, upper)
    assert ModelLP(model).bounds == model_bounds(model.variables)


def _as_fractions(model: MilpModel) -> MilpModel:
    """The model with every bound, coefficient, right-hand side and objective value wrapped in a Fraction."""
    def wrap(value):
        return None if value is None else F(value)

    return MilpModel([dataclasses.replace(var, lower=wrap(var.lower), upper=wrap(var.upper)) for var in model.variables],
                     [dataclasses.replace(con, coeffs=tuple((var, F(c)) for var, c in con.coeffs), rhs=F(con.rhs))
                      for con in model.constraints],
                     [(var, F(c)) for var, c in model.objective])


@pytest.mark.parametrize("name", [*range(8), "fig1", "kite"])
def test_model_readers_match_the_fraction_model(request, name):
    """On build_dcots of seeded nets, under each big-M and with every basis
    cut: ModelLP's bounds equal the dense integer_row reader's, and lp_text
    and ModelLP's rows and objective, plain and with the all-closed topology
    fixed, equal those of the same model with every value a Fraction."""
    net = random_net(name) if isinstance(name, int) else request.getfixturevalue(name)
    closed = fixed_topology(net, dict.fromkeys(range(len(net.lines)), 1))
    for bigm in ("global", "bounds"):
        model = build_dcots(net, bigm, *basis_cuts(net))
        fractions = _as_fractions(model)
        assert any(type(c) is int for con in model.constraints for _, c in con.coeffs)  # the models differ
        assert lp_text(model) == lp_text(fractions)
        for fixed in ({}, closed):
            lp, reference = ModelLP(model, fixed), ModelLP(fractions, fixed)
            assert lp.bounds == reference.bounds == model_bounds([v for v in model.variables if v.name in lp.columns])
            assert (lp.rows(), lp.objective) == (reference.rows(), reference.objective)


def test_brute_force_single_bus():
    net = make_net([("solo",)], [])
    result = brute_force_dcots(net)
    assert result.cost == 0 and result.generation == {"solo": F(0)}


def test_brute_force_two_bus_dispatch():
    net = make_net([("a", 0, 4, 5), ("b", 1)], [("a", "b", 1, 2)])
    result = brute_force_dcots(net)
    assert result.cost == 5
    assert result.flows[0] == 1
    assert result.generation["a"] == 1


def test_brute_force_switching_strictly_helps(triangle):
    switched = brute_force_dcots(triangle)
    fixed = brute_force_dcots(with_all_lines_fixed(triangle))
    assert switched.cost == 6 and fixed.cost == 33
    assert switched.cost < fixed.cost
    assert switched.y == {0: 1, 1: 1, 2: 0}


@pytest.fixture(scope="module")
def kite():
    """Four buses and five lines with fractional reactances, demands and
    costs, so few model rows lead with 1 or -1: a kernel that measured a
    row's slack in other units than its leading coefficient's would move
    the pinned pivot path."""
    return make_net(
        [("p", 0, "15/2", "3/4"), ("q", "1/2", 4, "5/2"), ("r", "7/3"), ("s", "5/4")],
        [("p", "q", "1/2", 3), ("q", "r", "2/3", "5/2"), ("r", "s", "3/4", 2), ("s", "p", "5/3", "7/2"),
         ("p", "r", "4/3", "3/2")],
    )


PINNED_DCOTS = {
    "triangle": dict(
        cost=F(6),
        generation={"a": F(6), "b": F(0), "c": F(0)},
        flows={0: F(6), 1: F(6), 2: F(0)},
        angles={"a": F(0), "b": F(-6), "c": F(-12)},
        y={0: 1, 1: 1, 2: 0},
    ),
    "fig1": dict(
        cost=F(5),
        generation={"i0": F(1), "i1": F(0), "i2": F(0), "i3": F(0), "i4": F(0), "i5": F(0)},
        flows={0: F(1, 2), 1: F(1, 2), 2: F(1, 2), 3: F(-1, 2), 4: F(-1, 2), 5: F(1, 2)},
        angles={"i0": F(0), "i1": F(-1, 2), "i2": F(-1), "i3": F(-3, 2), "i4": F(-1), "i5": F(-1, 2)},
        y={k: 1 for k in range(6)},
    ),
    "kite": dict(
        cost=F(49, 16),
        generation={"p": F(49, 12), "q": F(0), "r": F(0), "s": F(0)},
        flows={0: F(2842, 1641), 1: F(4043, 3282), 2: F(269, 1641), 3: F(-7129, 6564), 4: F(4153, 3282)},
        angles={"p": F(0), "q": F(-1421, 1641), "r": F(-8306, 4923), "s": F(-35645, 19692)},
        y={k: 1 for k in range(5)},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DCOTS))
def test_brute_force_full_result_pinned(request, name):
    # the optimal point depends on the simplex pivot path, so this pins it
    result = brute_force_dcots(request.getfixturevalue(name))
    assert result == DcotsResult(**PINNED_DCOTS[name])


# (pivot count, sha256 of the JSON list of (row, col) pivots) over every
# pattern LP, the path the dense reference kernel in _brute also takes
PINNED_PIVOTS = {
    "fig1": (12, "23eb597f2d01f96fa96f00f261b893582203d3be41ac993987a174e500383dc4"),
    "triangle": (7, "8703bd7b0f7cd0de46caf474e2d9505db50ca3cfa06a55c51cbc0090a368add5"),
    "kite": (35, "a8661eb30696324ae094c15bc88b7622a13914fcbd2beb1b8945083fd6357b54"),
}


@pytest.mark.parametrize("name", sorted(PINNED_PIVOTS))
def test_brute_force_pivot_path_pinned(request, monkeypatch, name):
    # a kernel change that moves a single Bland pivot fails here
    pivots = []
    kernel = simplex._pivot

    def record(tableau, basis, row, col, free):
        pivots.append((row, col))  # col in the split numbering, x- columns included
        kernel(tableau, basis, row, col, free)

    monkeypatch.setattr(simplex, "_pivot", record)
    brute_force_dcots(request.getfixturevalue(name))
    digest = hashlib.sha256(json.dumps(pivots).encode()).hexdigest()
    assert (len(pivots), digest) == PINNED_PIVOTS[name]


def test_brute_force_hands_the_simplex_no_equality_and_no_pinned_column(monkeypatch, fig1):
    """No tableau brute_force_dcots(fig1) builds holds an artificial column
    for an equality: in every run each row has its own slack (the columns
    that may enter are x+, x- and one slack per row), and as built a row
    holds an artificial exactly when its slack enters negated, one each.
    The balance rows are solved out, so fewer columns than the LP's reach
    the tableau, and no variable its bounds pin (the g of the four buses
    with gen_max 0) is a column of its LP."""
    lps, seen, runs = [], [], []
    run = simplex._run

    def record(tableau, basis, allowed, free):
        rows = tableau[:-1]
        built = not any(t is tableau for t in seen)  # an LP's first run sees its rows as built
        seen.append(tableau)
        runs.append((allowed == 2 * free + len(rows), free, [
            (nums.get(free + i, 0), [k for k in nums if k >= free + len(rows)]) for i, (nums, _) in enumerate(rows)
        ] if built else []))
        return run(tableau, basis, allowed, free)

    class Recorded(ModelLP):
        def __init__(self, *args):
            super().__init__(*args)
            lps.append(self)

    monkeypatch.setattr(simplex, "_run", record)
    monkeypatch.setattr(oracle, "ModelLP", Recorded)
    brute_force_dcots(fig1)
    pinned = {var.name for var in build_dcots(fig1).variables if var.lower is not None and var.lower == var.upper}
    assert pinned == {"g_i1", "g_i2", "g_i3", "g_i5"}
    (lp,) = lps
    assert not pinned & set(lp.columns)
    assert runs and any(built for _, _, built in runs)
    for own_slacks, free, built in runs:
        assert own_slacks and free < len(lp.columns)
        assert all(slack and len(artificials) == (slack < 0) for slack, artificials in built)


def dispatch_net(seed):
    """random_net's buses and lines with seeded demands, generation limits
    and costs: about half of the buses get gen_max 0, and a pattern that
    strands a demand or overloads a line is infeasible."""
    rng = random.Random(seed)
    net = random_net(seed, max_buses=5)
    buses = [(bus.id, rng.randint(0, 3), rng.choice((0, 0, 2, 5)), rng.randint(0, 4)) for bus in net.buses]
    return make_net(buses, [(ln.from_bus, ln.to_bus, ln.reactance, ln.capacity, ln.switchable) for ln in net.lines])


def optimal_face_is_a_point(n, ineqs, eqs, objective, value, rng):
    """Whether the LP's optimal face is one point: the least and the greatest
    value over it of a seeded direction of 64-bit integers agree.  A face of
    more points is flat along such a direction only by a chance near 2**-64."""
    face = [*ineqs, (objective, value)]
    direction = [rng.randrange(-2**64, 2**64) for _ in range(n)]
    low, high = (simplex.solve_linear_program(n, face, eqs, [sign * d for d in direction]) for sign in (1, -1))
    return low.value == -high.value


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32))
def test_eliminated_solve_matches_the_full_lp(seed):
    """The reduced solve against the slow exact one, on seeded nets with
    demands, generators, buses of gen_max 0 and infeasible patterns, plain and
    with every basis cpvi and cvi.  For every pattern, on the unreduced rows of
    ModelLP.rows and ModelLP.bounds (every row appended, every pinned variable
    a column), solve_linear_program and the dense reference that keeps the
    equalities as rows, each with its artificial column, agree in status and
    value, and _pattern_optima, which also substitutes the pinned variables,
    yields the pattern exactly when it is optimal, with that value.  Both
    points satisfy every row and equality, and where the optimum is unique
    they are the simplex's point."""
    net = dispatch_net(seed)
    switchable = [idx for idx, line in enumerate(net.lines) if line.switchable]
    assume(1 <= len(switchable) <= 4)
    rng = random.Random(seed)
    names = dcots_names(net)
    closed = fixed_topology(net, dict.fromkeys(range(len(net.lines)), 1))
    opened = fixed_topology(net, dict.fromkeys(range(len(net.lines)), 0))
    switches = [tuple({var: subst[var] for var in (names.f[i], names.y[i])} for subst in (opened, closed))
                for i in switchable]
    for cpvis, cvis in (((), ()), basis_cuts(net)):
        lp = ModelLP(build_dcots(net, "global", cpvis, cvis), closed, switches)
        n = len(lp.columns)
        optima = {tuple(active[i] for i in switchable): (value, tuple(values[name] for name in lp.columns))
                  for value, active, values in oracle._pattern_optima(net, cpvis, cvis)}
        for bits in itertools.product((1, 0), repeat=len(switchable)):
            ineqs, eqs = lp.rows(bits)
            ineqs = lp.bounds + ineqs
            full = dense_solve_linear_program(n, ineqs, eqs, lp.objective)
            reduced = simplex.solve_linear_program(n, ineqs, eqs, lp.objective)
            assert (reduced.status, reduced.value) == (full.status, full.value)
            if full.status != "optimal":
                assert bits not in optima
                continue
            value, point = optima[bits]
            assert value == full.value
            unique = optimal_face_is_a_point(n, ineqs, eqs, lp.objective, full.value, rng)
            for point in (reduced.point, point):
                assert all(dot(a, point) <= b for a, b in ineqs) and all(dot(a, point) == b for a, b in eqs)
                assert point == full.point or not unique


def test_brute_force_all_infeasible():
    net = make_net([("a", 0, 0, 0), ("b", 5)], [("a", "b", 1, 1)])
    with pytest.raises(AllPatternsInfeasibleError):
        brute_force_dcots(net)


def test_brute_force_cap():
    lines = [("a", "b", 1, 1)] * 13
    net = make_net([("a", 0, 1, 1), ("b", 1)], lines)
    with pytest.raises(CapExceededError):
        brute_force_dcots(net)


def test_brute_force_kcl_holds_at_optimum(triangle):
    result = brute_force_dcots(triangle)
    for bus in triangle.buses:
        inflow = sum(
            result.flows[i] * (1 if triangle.lines[i].to_bus == bus.id else -1)
            for i in triangle.adjacency[bus.id]
        )
        assert inflow + result.generation[bus.id] == bus.demand


def test_cuts_never_change_optimum(fig1, triangle):
    for net in (triangle, fig1):
        cpvis, cvis = basis_cuts(net)
        # the same cuts as emit --cuts reads them back from their JSON lines
        read_cpvis = [cpvi_from_json(net, json.loads(json.dumps(cpvi_to_json(cut)))) for cut in cpvis]
        read_cvis = [cvi_from_json(net, json.loads(json.dumps(cvi_to_json(cut)))) for cut in cvis]
        plain = brute_force_dcots(net)
        for cuts in ((cpvis, cvis), (read_cpvis, read_cvis)):
            assert brute_force_dcots(net, *cuts).cost == plain.cost


def test_point_in_hull_basics():
    square = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    assert point_in_hull((F(1, 2), F(1, 2)), square)
    assert not point_in_hull((F(2), F(0)), square)
