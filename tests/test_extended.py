import itertools
import random
from fractions import Fraction as F

import pytest

from anglecuts.bounds import global_big_m
from anglecuts.cuts import build_cpvi
from anglecuts.errors import InvalidBigMError
from anglecuts.extended import build_extended, eliminate, project_to_cpvi
from anglecuts.graph import fundamental_cycle_basis, split_cycle
from anglecuts.milp import MilpModel, build_dcots, lp_text, merge_models
from anglecuts.network import load_network
from anglecuts.oracle import enumerate_vertices, integer_points, model_polytope, pair_relaxation
from anglecuts.rational import integer_row

from _brute import fraction_vertices, point_in_hull, read_lp_text
from conftest import DATA, ring_net


@pytest.fixture(scope="module")
def fig1_pair(fig1):
    return split_cycle(fig1, fundamental_cycle_basis(fig1)[0], "i0", "i4")


def test_structural_row_count_fig1(fig1_pair):
    sys_ = build_extended(fig1_pair, F(6))
    # per-line links plus closures, three product rows, two angle rows
    assert len(sys_.constraints) == 13
    names = tuple(var.name for var in sys_.variables)
    assert names[0] == "dtheta"
    assert names[-3:] == ("z_short", "z_long", "z_long_only")


def test_structural_row_count_two_cycle():
    net = ring_net([1, 3])
    pair = split_cycle(net, fundamental_cycle_basis(net)[0], "r0", "r1")
    sys_ = build_extended(pair, F(4))
    assert len(sys_.constraints) == 9


def test_big_m_boundary_is_valid(fig1_pair):
    sys_ = build_extended(fig1_pair, F(4))  # equal to the longer-path weight
    assert project_to_cpvi(fig1_pair, sys_).big_m == 4
    with pytest.raises(InvalidBigMError):
        build_extended(fig1_pair, F(3))


def test_projection_matches_direct_construction(fig1_pair):
    assert project_to_cpvi(fig1_pair, build_extended(fig1_pair, F(6))) == build_cpvi(fig1_pair, F(6))


def test_projection_matches_on_random_cycles():
    rng = random.Random(4)
    for _ in range(30):
        size = rng.randint(2, 7)
        weights = [F(rng.randint(1, 24), rng.randint(1, 6)) for _ in range(size)]
        net = ring_net(weights)
        cycle = fundamental_cycle_basis(net)[0]
        buses = list(cycle.buses)
        m, n = rng.sample(buses, 2)
        pair = split_cycle(net, cycle, m, n)
        big_m = cycle.total_weight + F(rng.randint(0, 5), 3)
        assert project_to_cpvi(pair, build_extended(pair, big_m)) == build_cpvi(pair, big_m)


def _with_row(model, name, **change):
    """A copy of model whose row name has the given fields replaced."""
    rows = [con._replace(**change) if con.name == name else con for con in model.constraints]
    return MilpModel(list(model.variables), rows)


def test_projection_reads_the_lifted_rows(fig1_pair):
    lifted = build_extended(fig1_pair, F(6))
    closure = next(con for con in lifted.constraints if con.name == "short_closure")
    angle = next(con for con in lifted.constraints if con.name == "angle_hi")
    # M - w(shorter) where M - w(longer) belongs
    wrong_slope = tuple((var, F(4) if var == "z_long_only" else c) for var, c in angle.coeffs)
    for changed in (_with_row(lifted, "short_closure", rhs=closure.rhs + 1),
                    _with_row(lifted, "angle_hi", coeffs=wrong_slope)):
        assert project_to_cpvi(fig1_pair, changed) != build_cpvi(fig1_pair, F(6))


def test_elimination_branches_on_fig1(fig1_pair):
    """fig1 split at i0-i4 at M = 6: the shorter arc is lines 4 and 5
    (weight 2), the longer arc lines 0-3 (weight 4).  Each branch choice
    gives one row dtheta + slopes . y <= rhs of the completed projection."""
    lifted = build_extended(fig1_pair, F(6))

    def slopes(value, lines):
        return {line: F(value) if line in lines else F(0) for line in range(6)}

    expected = {
        # the cut: slopes M - w_long and w_long - w_short, 2 + 2 * 2 + 4 * 2
        ("z_long_only", "z_short", "z_long"): (slopes(2, range(6)), 14),
        # shorter arc alone: w_short + (M - w_short) * 2 lines
        ("z_short",): (slopes(4, (4, 5)), 10),
        # longer arc alone: w_long + (M - w_long) * 4 lines
        ("z_long_only", "z_long"): (slopes(2, range(4)), 12),
        # no linking row: |dtheta| <= M
        (): (slopes(0, ()), 6),
    }
    for linked, row in expected.items():
        assert eliminate(fig1_pair, lifted, linked) == row


def test_projection_tie_and_boundary_degeneracies():
    net = ring_net([1, 1, 1, 1])
    cycle = fundamental_cycle_basis(net)[0]
    pair = split_cycle(net, cycle, "r0", "r2")  # tied arcs
    cut = project_to_cpvi(pair, build_extended(pair, F(2)))  # big-M at the longer weight
    assert cut.delta_rho == 0 and cut.delta_m == 0
    assert cut.rhs_at({line: F(0) for line in cycle.lines}) == 2


def _rows_from_lp_text(text):
    """Dense rows, then an upper and a lower row per finite bound, read
    off LP text of '<=' rows over the variables in Bounds order."""
    lp = read_lp_text(text)
    col = {name: j for j, name in enumerate(lp["bounds"])}

    def dense(entries, rhs):
        coeffs = [F(0)] * len(col)
        for j, value in entries:
            coeffs[j] = value
        return tuple(coeffs), rhs

    rows = []
    for _name, terms, sense, rhs, scale in lp["rows"]:
        assert sense == "<="
        rows.append(dense([(col[var], c / (scale or 1)) for var, c in terms], rhs / (scale or 1)))
    for j, (lower, upper) in enumerate(lp["bounds"].values()):
        if upper is not None:
            rows.append(dense([(j, F(1))], upper))
        if lower is not None:
            rows.append(dense([(j, F(-1))], -lower))
    return rows


def test_certified_polytope_is_the_emitted_system(fig1):
    """What certify adjudicates, model_polytope of the lifted model, is
    the system emit --embed-extended writes for every basis pair: the
    same halfspaces in the same order, each as its primitive integer row."""
    mixed6 = load_network((DATA / "mixed6.json").read_bytes())
    for net in (fig1, mixed6, ring_net([1, 2, 3])):
        big_m = global_big_m(net)
        for cycle in fundamental_cycle_basis(net):
            for m, n in itertools.combinations(cycle.buses, 2):
                lifted = build_extended(split_cycle(net, cycle, m, n), big_m)
                emitted = MilpModel()
                merge_models(emitted, lifted, "ext")
                emitted_rows = [integer_row(coeffs, rhs, "row") for coeffs, rhs in _rows_from_lp_text(lp_text(emitted))]
                assert [(tuple(nums), rhs) for nums, rhs in emitted_rows] == list(model_polytope(lifted).rows)


def test_model_polytope_reads_only_le_rows(fig1):
    with pytest.raises(ValueError, match="row 'kcl_i0' has sense '='"):
        model_polytope(build_dcots(fig1))


def _vertices(net, pair, big_m):
    return fraction_vertices(enumerate_vertices(model_polytope(build_extended(pair, big_m))))


def test_vertices_binary_in_lifted_variables(fig1, fig1_pair):
    for vertex in _vertices(fig1, fig1_pair, F(6)):
        assert all(value in (0, 1) for value in vertex[1:])


def test_mccormick_product_exact_at_vertices(fig1, fig1_pair):
    sys_ = build_extended(fig1_pair, F(6))
    names = [var.name for var in sys_.variables]
    zs = names.index("z_short")
    zl = names.index("z_long")
    zo = names.index("z_long_only")
    for vertex in fraction_vertices(enumerate_vertices(model_polytope(sys_))):
        assert vertex[zo] == vertex[zl] * (1 - vertex[zs])


def test_path_indicators_track_line_status(fig1, fig1_pair):
    sys_ = build_extended(fig1_pair, F(6))
    names = [var.name for var in sys_.variables]
    for vertex in fraction_vertices(enumerate_vertices(model_polytope(sys_))):
        values = dict(zip(names, vertex))
        short_on = all(values[f"y_{line}"] == 1 for line in fig1_pair.shorter.lines)
        long_on = all(values[f"y_{line}"] == 1 for line in fig1_pair.longer.lines)
        assert values["z_short"] == int(short_on)
        assert values["z_long"] == int(long_on)


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_local_idealness_random_cycles(size):
    rng = random.Random(100 + size)
    weights = [F(rng.randint(1, 18), rng.randint(1, 5)) for _ in range(size)]
    net = ring_net(weights)
    cycle = fundamental_cycle_basis(net)[0]
    m, n = rng.sample(list(cycle.buses), 2)
    pair = split_cycle(net, cycle, m, n)
    for vertex in _vertices(net, pair, cycle.total_weight):
        assert all(value in (0, 1) for value in vertex[1:])


@pytest.mark.parametrize("size", [2, 3, 4])
def test_sharpness_projection_equals_integer_hull(size):
    """conv(projected lifted vertices) == conv(integer extremes), both ways."""
    rng = random.Random(40 + size)
    weights = [F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(size)]
    net = ring_net(weights)
    cycle = fundamental_cycle_basis(net)[0]
    m, n = rng.sample(list(cycle.buses), 2)
    pair = split_cycle(net, cycle, m, n)
    big_m = cycle.total_weight
    sys_ = build_extended(pair, big_m)
    lifted = fraction_vertices(enumerate_vertices(model_polytope(sys_)))
    projected = sorted({vertex[: size + 1] for vertex in lifted})
    integer = [(d, *[F(b) for b in bits]) for d, bits in integer_points(pair_relaxation(net, pair, big_m))]
    for point in projected:
        assert point_in_hull(point, integer)
    for point in integer:
        assert point_in_hull(point, projected)
