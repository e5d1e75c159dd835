import itertools
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import anglecuts.cuts
from anglecuts.bounds import BoundSource, global_big_m, pair_bound
from anglecuts.cuts import (
    FractionalPoint,
    SeparationConfig,
    build_cpvi,
    build_cvi,
    cpvi_from_json,
    cpvi_to_json,
    cpvi_violation,
    cvi_from_json,
    cvi_to_json,
    cvi_violation,
    separate_cpvi,
    separate_cvi,
)
from anglecuts.errors import InvalidBigMError, MissingVariableError, SubsetNotInCycleError
from anglecuts.graph import all_simple_cycles, fundamental_cycle_basis, split_cycle
from anglecuts.milp import build_dcots, dcots_names

from _brute import exhaustive_cpvi, exhaustive_cvi, two_arc_cvi
from conftest import make_net, ring_net


@pytest.fixture(scope="module")
def fig1_pair(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    return split_cycle(fig1, cycle, "i0", "i4")


@pytest.fixture(scope="module")
def fig1_cut(fig1_pair):
    return build_cpvi(fig1_pair, F(6))


def all_on(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    return {line: F(1) for line in cycle.lines}


def test_cpvi_fig1_coefficients(fig1_cut):
    assert fig1_cut.delta_rho == 2 and fig1_cut.delta_m == 2
    assert fig1_cut.constant == 14
    assert all(coeff == -2 for _, coeff in fig1_cut.y_coeffs)
    assert len(fig1_cut.y_coeffs) == 6


def test_cpvi_all_active_collapses_to_shorter_weight(fig1, fig1_cut, fig1_pair):
    assert fig1_cut.rhs_at(all_on(fig1)) == fig1_pair.shorter.total_weight == 2


def test_cpvi_one_shorter_line_off_gives_longer_weight(fig1, fig1_cut, fig1_pair):
    y = all_on(fig1)
    y[fig1_pair.shorter.lines[0]] = F(0)
    assert fig1_cut.rhs_at(y) == fig1_pair.longer.total_weight == 4


def test_cpvi_requires_big_m_at_least_longer_weight(fig1_pair):
    with pytest.raises(InvalidBigMError):
        build_cpvi(fig1_pair, F(3))
    boundary = build_cpvi(fig1_pair, F(4))  # equal to the longer weight
    assert boundary.delta_m == 0


def test_a_big_m_above_the_longer_arc_but_below_the_pair_bound_cuts_off_a_feasible_point():
    # a unit 4-cycle a-b-c-d (lines 0-3, switchable) with an always-on path
    # a-e-f-c (lines 4-6): with lines 0 and 2 open, theta_a - theta_c reaches
    # 3, the pair's bound, while the longer arc of a..c weighs only 2
    net = make_net([("a", 0, 1), ("b",), ("c", 1), ("d",), ("e",), ("f",)],
                   [("a", "b", 1, 1), ("b", "c", 1, 1), ("c", "d", 1, 1), ("d", "a", 1, 1),
                    ("a", "e", 1, 1, False), ("e", "f", 1, 1, False), ("f", "c", 1, 1, False)])
    theta = {"a": F(0), "b": F(-3), "c": F(-3), "d": F(0), "e": F(-1), "f": F(-2)}
    y = {0: F(0), 1: F(1), 2: F(0), 3: F(1), 4: F(1), 5: F(1), 6: F(1)}
    f = {0: F(0), 1: F(0), 2: F(0), 3: F(0), 4: F(1), 5: F(1), 6: F(1)}
    names = dcots_names(net)
    value = {names.g["a"]: F(1), **{names.g[b]: F(0) for b in "bcdef"}, **{names.theta[b]: t for b, t in theta.items()},
             **{names.f[k]: v for k, v in f.items()}, **{names.y[k]: v for k, v in y.items()}}
    model = build_dcots(net, "global")
    for var in model.variables:
        assert (var.lower is None or var.lower <= value[var.name]) and (var.upper is None or value[var.name] <= var.upper)
    for con in model.constraints:
        lhs = sum(c * value[name] for name, c in con.coeffs)
        assert lhs == con.rhs if con.sense == "=" else lhs <= con.rhs, con.name
    cycle = next(cycle for cycle in all_simple_cycles(net) if sorted(cycle.lines) == [0, 1, 2, 3])
    pair = split_cycle(net, cycle, "a", "c")
    assert pair.longer.total_weight == 2 and pair_bound(net, "a", "c") == (3, BoundSource.SHORTEST_PATH_ACTIVE)
    point = FractionalPoint(theta=theta, y=y, f=f)
    assert cpvi_violation(build_cpvi(pair, F(2)), point) == 1
    assert cpvi_violation(build_cpvi(pair, F(3)), point) == 0


def test_cpvi_tie_drops_shorter_term():
    net = ring_net([1, 1, 1, 1])
    cycle = fundamental_cycle_basis(net)[0]
    pair = split_cycle(net, cycle, "r0", "r2")
    cut = build_cpvi(pair, cycle.total_weight)
    assert cut.delta_rho == 0
    assert all(coeff == 0 for line, coeff in cut.y_coeffs if line in pair.shorter.lines)


def test_cvi_fig1a_subset(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    cut = build_cvi(fig1, cycle, [5, 4, 1, 2])
    assert cut.delta_s == 2
    assert cut.constant == 10  # delta * (|C| - 1)
    coeffs = dict(cut.y_coeffs)
    for line in (1, 2, 4, 5):
        assert coeffs[line] == -1  # -(delta - w)
    for line in (0, 3):
        assert coeffs[line] == -2  # -delta


def test_cvi_half_weight_subset_is_trivial(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    assert build_cvi(fig1, cycle, [0, 1, 2]) is None


def test_cvi_full_cycle_subset(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    cut = build_cvi(fig1, cycle, cycle.lines)
    assert cut.delta_s == 6
    assert all(coeff == -(F(6) - 1) for _, coeff in cut.y_coeffs)


def test_cvi_subset_must_lie_on_cycle(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    with pytest.raises(SubsetNotInCycleError):
        build_cvi(fig1, cycle, [99])
    with pytest.raises(SubsetNotInCycleError):
        build_cvi(fig1, cycle, [])


def test_cpvi_violation_examples(fig1, fig1_cut):
    tight = FractionalPoint({"i0": F(0), "i4": F(2)}, all_on(fig1))
    assert cpvi_violation(fig1_cut, tight) == 0
    slack = FractionalPoint({"i0": F(0), "i4": F(0)}, all_on(fig1))
    assert cpvi_violation(fig1_cut, slack) == -2
    hot = FractionalPoint({"i0": F(0), "i4": F(3)}, all_on(fig1))
    assert cpvi_violation(fig1_cut, hot) == 1


def test_cpvi_violation_missing_variable(fig1_cut):
    with pytest.raises(MissingVariableError):
        cpvi_violation(fig1_cut, FractionalPoint({"i0": F(0)}, {}))
    with pytest.raises(MissingVariableError):
        cpvi_violation(fig1_cut, FractionalPoint({"i0": F(0), "i4": F(0)}, {0: F(1)}))


@pytest.mark.parametrize("field, theta, y, f", [
    ("theta['i4']", {"i0": F(0), "i4": 2.5}, {}, None),  # a float gave cpvi_violation -0.5
    ("y[0]", {}, {0: True}, None),  # a bool is an int, but not a line status
    ("f[3]", {}, {}, {3: 0.5}),
    ("theta['i0']", {"i0": "1/2"}, {}, None),
], ids=["theta-float", "y-bool", "f-float", "theta-string"])
def test_fractional_point_refuses_inexact_values(field, theta, y, f):
    with pytest.raises(ValueError, match=re.escape(f"point {field} = ") + ".* is not an exact rational"):
        FractionalPoint(theta, y, f)


def test_fractional_point_refuses_y_outside_the_unit_interval():
    # the cpvi spread screen needs every 1 - y >= 0: on ring_net([1, 2, 3]) at
    # these angles, y = (2, 1, 1) would give no cut from the screened separation
    # and two from the exhaustive sweep
    theta = {"r0": F(0), "r1": F(1), "r2": F(0)}
    with pytest.raises(ValueError, match=re.escape("point y[0] = 2 is outside [0, 1]")):
        FractionalPoint(theta, {0: F(2), 1: F(1), 2: F(1)})
    with pytest.raises(ValueError, match=re.escape("point y[2] = -1/3 is outside [0, 1]")):
        FractionalPoint(theta, {0: F(0), 1: F(1), 2: F(-1, 3)})
    assert FractionalPoint(theta, {0: F(0), 1: 1, 2: F(1, 2)}).y[1] == 1


def test_cvi_violation_needs_flows(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    cut = build_cvi(fig1, cycle, [0, 1, 2, 3])
    with pytest.raises(MissingVariableError):
        cvi_violation(fig1, cut, FractionalPoint({}, all_on(fig1)))


def _zero_theta(net):
    return {bus.id: F(0) for bus in net.buses}


def test_separation_interior_point_returns_nothing(fig1):
    cycles = fundamental_cycle_basis(fig1)
    pt = FractionalPoint(_zero_theta(fig1), {k: F(1, 2) for k in range(6)})
    assert separate_cpvi(fig1, cycles, pt) == []


def test_separation_finds_fig1_cut(fig1):
    cycles = fundamental_cycle_basis(fig1)
    theta = _zero_theta(fig1)
    theta["i4"] = F(3)
    pt = FractionalPoint(theta, {k: F(1) for k in range(6)})
    results = separate_cpvi(fig1, cycles, pt)
    by_pair = {frozenset(cut.pair.pair): violation for cut, violation in results}
    assert by_pair[frozenset(("i0", "i4"))] == 1
    # sorted by violation, descending
    violations = [v for _, v in results]
    assert violations == sorted(violations, reverse=True)


def test_separation_single_violated_cut(fig1):
    theta = _zero_theta(fig1)
    theta["i4"] = F(2)
    theta["i5"] = F(1)
    pt = FractionalPoint(theta, {k: F(1) for k in range(6)})
    results = separate_cpvi(fig1, fundamental_cycle_basis(fig1), pt)
    assert len(results) == 1
    cut, violation = results[0]
    assert frozenset(cut.pair.pair) == frozenset(("i3", "i4"))
    assert violation == 1


def _random_point(net, rng, fractional=True):
    big = global_big_m(net)
    theta = {bus.id: F(rng.randint(-3 * big.numerator, 3 * big.numerator), rng.randint(1, 7)) for bus in net.buses}
    y = {}
    for idx in range(len(net.lines)):
        if fractional and rng.random() < 0.5:
            y[idx] = F(rng.randint(0, 8), 8)
        else:
            y[idx] = F(rng.choice((0, 1)))
    return FractionalPoint(theta, y)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_separation_equals_exhaustive_enumeration(fig1, triangle, seed):
    rng = random.Random(seed)
    nets = [fig1, triangle, ring_net([F(1, 2), 3, F(5, 4), 2, 1])]
    for net in nets:
        cycles = fundamental_cycle_basis(net)
        for _ in range(25):
            pt = _random_point(net, rng)
            got = separate_cpvi(net, cycles, pt)
            want = exhaustive_cpvi(net, cycles, pt, F(0))
            got_keys = {
                (cut.pair.cycle.lines, frozenset(cut.pair.pair)): (cut.constant, cut.y_coeffs, v)
                for cut, v in got
            }
            want_keys = {key: (cut.constant, cut.y_coeffs, v) for key, (cut, v) in want.items()}
            assert got_keys == want_keys


def test_screening_skips_only_unviolated_pairs(fig1):
    rng = random.Random(9)
    cycles = fundamental_cycle_basis(fig1)
    big = global_big_m(fig1)
    for _ in range(40):
        pt = _random_point(fig1, rng)
        for cycle in cycles:
            for m, n in itertools.combinations(cycle.buses, 2):
                pair = split_cycle(fig1, cycle, m, n)
                if abs(pt.theta[n] - pt.theta[m]) <= pair.shorter.total_weight:
                    cut = build_cpvi(pair, big)
                    assert cpvi_violation(cut, pt) <= 0


def test_tolerance_filters_results(fig1):
    theta = _zero_theta(fig1)
    theta["i4"] = F(3)
    pt = FractionalPoint(theta, {k: F(1) for k in range(6)})
    cycles = fundamental_cycle_basis(fig1)
    strict = separate_cpvi(fig1, cycles, pt, SeparationConfig(tolerance=F(3, 2)))
    loose = separate_cpvi(fig1, cycles, pt)
    assert {v for _, v in strict} == {v for _, v in loose if v > F(3, 2)}


def test_fractional_cycle_filter(fig1):
    theta = _zero_theta(fig1)
    theta["i4"] = F(3)
    integral = FractionalPoint(theta, {k: F(1) for k in range(6)})
    config = SeparationConfig(fractional_cycles_only=True)
    assert separate_cpvi(fig1, fundamental_cycle_basis(fig1), integral, config) == []
    mixed = FractionalPoint(theta, {k: (F(1, 2) if k == 0 else F(1)) for k in range(6)})
    assert separate_cpvi(fig1, fundamental_cycle_basis(fig1), mixed, config) != []


def test_separate_cvi_finds_violations(fig1):
    cycles = fundamental_cycle_basis(fig1)
    flows = {k: F(1) for k in range(6)}
    pt = FractionalPoint(_zero_theta(fig1), {k: F(1) for k in range(6)}, flows)
    results = separate_cvi(fig1, cycles, pt)
    assert results
    subsets = {cut.subset for cut, _ in results}
    assert (0, 1, 2, 3, 4, 5) in subsets  # the whole cycle breaks KVL at f = 1
    for cut, violation in results:
        assert violation == cvi_violation(fig1, cut, pt) > 0


def test_cut_json_round_trip(fig1, fig1_cut):
    obj = cpvi_to_json(fig1_cut, F(1))
    assert obj["constant"] == "14" and obj["violation"] == "1"
    again = cpvi_from_json(fig1, obj)
    assert again == fig1_cut

    cycle = fundamental_cycle_basis(fig1)[0]
    cvi = build_cvi(fig1, cycle, [5, 4, 1, 2])
    back = cvi_from_json(fig1, cvi_to_json(cvi))
    assert back == cvi


def test_negative_or_inexact_tolerance_is_refused():
    # the screens prove violation <= 0 only; here they would drop 3 cuts
    net = ring_net([1, 2, 3])
    pt = FractionalPoint({bus.id: F(0) for bus in net.buses}, {k: F(1) for k in range(3)})
    assert len(exhaustive_cpvi(net, fundamental_cycle_basis(net), pt, F(-100))) == 3
    with pytest.raises(ValueError, match="tolerance -100 is not an exact rational of at least 0"):
        SeparationConfig(tolerance=F(-100))
    with pytest.raises(ValueError, match="tolerance 0.5 is not an exact rational"):
        SeparationConfig(tolerance=0.5)
    with pytest.raises(ValueError, match="tolerance True is not an exact rational"):
        SeparationConfig(tolerance=True)  # a bool is an int, but not a tolerance
    assert SeparationConfig(tolerance=F(0)).tolerance == SeparationConfig(tolerance=0).tolerance == 0


def _cvi_result(call):
    """Cut keys with constants, y_coeffs, flow_signs and violations, or the
    message of the MissingVariableError the call raised."""
    try:
        found = call()
    except MissingVariableError as exc:
        return str(exc)
    return {
        (cut.cycle.lines, cut.subset): (cut.constant, cut.y_coeffs, cut.flow_signs, violation)
        for cut, violation in found
    }


def _gapped_point(draw, net):
    """A point over the net with zero angles, some fractional y and flows
    in [-12, 12], that may lack one y, one or two f values, one of each,
    or every f."""
    n_lines = len(net.lines)
    y = {k: draw(st.sampled_from([F(0), F(1), F(1), F(1), F(1, 2), F(1, 3), F(5, 6)])) for k in range(n_lines)}
    f = {k: draw(st.fractions(min_value=-12, max_value=12, max_denominator=3)) for k in range(n_lines)}
    gap = draw(st.sampled_from(["none"] * 4 + ["y", "f", "f2", "f y", "no f"]))
    if "y" in gap:
        del y[draw(st.integers(0, n_lines - 1))]
    if "f" in gap and gap != "no f":
        for k in draw(st.lists(st.integers(0, n_lines - 1), min_size=1, max_size=2 if gap == "f2" else 1)):
            f.pop(k, None)
    return FractionalPoint({bus.id: F(0) for bus in net.buses}, y, None if gap == "no f" else f)


@st.composite
def cvi_instances(draw):
    """A ring of 2 to 12 lines, maybe with a chord, and a _gapped_point over it."""
    size = draw(st.sampled_from([*range(2, 12), 12, 12, 12]))
    buses = [(f"r{k}",) for k in range(size)]
    rat = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)
    lines = [(f"r{k}", f"r{(k + 1) % size}", draw(rat), draw(st.integers(1, 5))) for k in range(size)]
    if size >= 4 and draw(st.booleans()):
        lines.append(("r0", f"r{draw(st.integers(2, size - 2))}", draw(rat), draw(st.integers(1, 5))))
    net = make_net(buses, lines)
    return net, _gapped_point(draw, net)


# the separation differentials report their first failing example as it
# was drawn: shrinking one through these searches outlasts any useful wait
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@settings(phases=NO_SHRINK)
@given(cvi_instances(), st.sampled_from([F(0), F(1, 1000000), F(1, 2), F(3)]), st.booleans())
def test_separate_cvi_equals_exhaustive_subsets(instance, tolerance, fractional_only):
    net, pt = instance
    cycles = all_simple_cycles(net)
    assert max(len(cycle.lines) for cycle in cycles) <= anglecuts.cuts.CVI_EXHAUSTIVE_CAP
    config = SeparationConfig(tolerance, fractional_only)
    scanned = [c for c in cycles if not fractional_only or any(0 < pt.y.get(i, 0) < 1 for i in c.lines)]
    got = _cvi_result(lambda: separate_cvi(net, cycles, pt, config))
    want = _cvi_result(lambda: exhaustive_cvi(net, scanned, pt, tolerance).values())
    assert got == want


@st.composite
def long_cvi_instances(draw):
    """A ring of 13 to 16 lines with weights from a short list, so that
    equal arcs are common, maybe with a chord, and a _gapped_point over it."""
    size = draw(st.integers(13, 16))
    weight = st.sampled_from([F(1), F(1), F(1), F(2), F(1, 2)])
    lines = [(f"r{k}", f"r{(k + 1) % size}", 1, draw(weight)) for k in range(size)]
    if draw(st.booleans()):
        lines.append(("r0", f"r{draw(st.integers(2, size - 2))}", 1, draw(weight)))
    net = make_net([(f"r{k}",) for k in range(size)], lines)
    return net, _gapped_point(draw, net)


def _ring14_without(f_line, y_line):
    """A unit ring of 14 lines and a point with every flow 3 but on f_line and every y 1 but on y_line."""
    net = ring_net([1] * 14)
    f = {k: F(3) for k in range(14) if k != f_line}
    return net, FractionalPoint({bus.id: F(0) for bus in net.buses}, {k: F(1) for k in range(14) if k != y_line}, f)


@settings(max_examples=100, derandomize=True, phases=NO_SHRINK)
@given(long_cvi_instances(), st.sampled_from([F(0), F(1, 2), F(3)]), st.booleans())
@example(_ring14_without(0, 5), F(0), False)  # the first pair's arc lacks line 0: its missing y is named, not the flow
def test_separate_cvi_past_the_cap_equals_the_two_arc_cuts(instance, tolerance, fractional_only):
    # past the cap only each pair's longer arc is a subset; this pins that contract, cut order and error messages
    net, pt = instance
    cap = anglecuts.cuts.CVI_EXHAUSTIVE_CAP
    cycles = [cycle for cycle in all_simple_cycles(net) if len(cycle.lines) > cap]
    assert cycles and all(13 <= len(cycle.lines) <= 16 for cycle in cycles)
    config = SeparationConfig(tolerance, fractional_only)
    scanned = [c for c in cycles if not fractional_only or any(0 < pt.y.get(i, 0) < 1 for i in c.lines)]
    got = _ordered_result(lambda: separate_cvi(net, cycles, pt, config))
    assert got == _ordered_result(lambda: two_arc_cvi(net, scanned, pt, tolerance))


def test_separate_cvi_past_the_cap_skips_equal_arcs():
    # on a unit ring of 14 lines the 7 opposite pairs split into equal arcs, whose cut is trivial
    net, pt = _ring14_without(None, None)
    found = separate_cvi(net, all_simple_cycles(net), pt)
    assert found == two_arc_cvi(net, all_simple_cycles(net), pt, 0)
    assert {len(cut.subset) for cut, _ in found} == set(range(8, 14))


def test_missing_entries_raise_as_in_exhaustive_subset_order():
    # the first nontrivial subset, by size then cycle position, that meets
    # a missing entry names it; near-equal weights make that order matter
    rng = random.Random(17)
    for _ in range(200):
        net = ring_net([rng.randint(1, 3) for _ in range(rng.randint(3, 8))])
        cycles = fundamental_cycle_basis(net)
        lines = range(len(net.lines))
        y = {k: F(rng.randint(0, 2), 2) for k in lines}
        f = {k: F(rng.randint(-6, 6)) for k in lines}
        for k in rng.sample(lines, 2):
            del f[k]
        if rng.random() < 0.5:
            del y[rng.choice(lines)]
        pt = FractionalPoint({bus.id: F(0) for bus in net.buses}, y, f)
        got = _cvi_result(lambda: separate_cvi(net, cycles, pt))
        assert got == _cvi_result(lambda: exhaustive_cvi(net, cycles, pt, 0).values())
        assert isinstance(got, str) and got.startswith("point has no")


def _grid3_point(seed):
    """A seeded 3x3 grid and a point whose angles spread over about one
    line weight, y fractional on about one line in five and flows that
    follow the angles."""
    rng = random.Random(seed)
    ids = [f"g{r}{c}" for r in range(3) for c in range(3)]
    ends = [(f"g{r}{c}", f"g{r}{c + 1}") for r in range(3) for c in range(2)]
    ends += [(f"g{r}{c}", f"g{r + 1}{c}") for r in range(2) for c in range(3)]
    net = make_net([(bus,) for bus in ids], [(a, b, F(1, rng.randint(1, 4)), rng.randint(1, 4)) for a, b in ends])
    theta = {bus: F(rng.randint(-8, 8), 8) for bus in ids}
    y = {k: F(rng.randint(1, 3), 4) if rng.random() < 0.2 else F(1) for k in range(len(net.lines))}
    f = {
        k: (theta[line.from_bus] - theta[line.to_bus]) / line.reactance + F(rng.randint(-2, 2), 2)
        for k, line in enumerate(net.lines)
    }
    return net, FractionalPoint(theta, y, f)


def test_cvi_pruning_builds_few_cuts(monkeypatch):
    net, pt = _grid3_point(11)
    cycles = all_simple_cycles(net)
    built = []
    build = anglecuts.cuts.build_cvi
    monkeypatch.setattr(anglecuts.cuts, "build_cvi", lambda *args: built.append(args) or build(*args))
    found = separate_cvi(net, cycles, pt)
    exhaustive = sum(2 ** len(cycle.lines) - 1 for cycle in cycles)
    assert (len(cycles), exhaustive) == (13, 1_587)
    # only violated subsets reach build_cvi
    assert len(built) == len(found) == 30
    assert len(built) < exhaustive / 20


def _ordered_result(call):
    """The cuts and violations in the order returned, or the message of the
    MissingVariableError the call raised."""
    try:
        return list(call())
    except MissingVariableError as exc:
        return str(exc)


def _screened_cpvi(net, cycles, pt, tolerance):
    """exhaustive_cpvi in separate_cpvi's order, raising as separate_cpvi
    does: a cycle's first bus without an angle when the cycle is reached,
    its smallest line without a y once a pair's angle spread passes the
    pair's shorter arc weight."""
    for cycle in cycles:
        no_angle = [bus for bus in cycle.buses if bus not in pt.theta]
        if no_angle:
            raise MissingVariableError(f"point has no angle for bus {no_angle[0]!r}")
        no_y = sorted(i for i in cycle.lines if i not in pt.y)
        pairs = [split_cycle(net, cycle, m, n) for m, n in itertools.combinations(cycle.buses, 2)]
        if no_y and any(abs(pt.theta[p.pair[1]] - pt.theta[p.pair[0]]) > p.shorter.total_weight for p in pairs):
            raise MissingVariableError(f"point has no y value for line {no_y[0]}")
    found = exhaustive_cpvi(net, cycles, pt, tolerance).values()
    return sorted(found, key=lambda entry: (-entry[1], entry[0].pair.cycle.lines, entry[0].pair.pair))


@st.composite
def cpvi_instances(draw):
    """A seeded ring of 2 to 8 lines (maybe with a chord) or a grid of up to
    3x3 buses, with line weights from a short list so that equal arcs are
    common, and a point over it with y in {0, 1} or fractional that may
    lack an angle or a y."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        size = rng.randint(2, 8)
        ends = [(f"b{k}", f"b{(k + 1) % size}") for k in range(size)]
        if size >= 4 and rng.random() < 0.5:
            ends.append(("b0", f"b{rng.randint(2, size - 2)}"))
        ids = [f"b{k}" for k in range(size)]
    else:
        rows, cols = rng.randint(2, 3), rng.randint(2, 3)
        ids = [f"b{r}{c}" for r in range(rows) for c in range(cols)]
        ends = [(f"b{r}{c}", f"b{r}{c + 1}") for r in range(rows) for c in range(cols - 1)]
        ends += [(f"b{r}{c}", f"b{r + 1}{c}") for r in range(rows - 1) for c in range(cols)]
    net = make_net([(bus,) for bus in ids], [(a, b, 1, rng.choice([F(1), F(1), F(2), F(1, 2), F(3, 2)])) for a, b in ends])
    statuses = [F(0), F(1), F(1), F(1, 2), F(1, 3), F(3, 4)] if draw(st.booleans()) else [F(0), F(1), F(1), F(1)]
    theta = {bus: F(rng.randint(-12, 12), rng.choice([1, 2, 4])) for bus in ids}
    y = {k: rng.choice(statuses) for k in range(len(net.lines))}
    gap = draw(st.sampled_from(["none"] * 4 + ["theta", "y", "y2", "both"]))
    if gap in ("theta", "both"):
        del theta[rng.choice(ids)]
    for _ in range({"y": 1, "y2": 2, "both": 1}.get(gap, 0)):
        y.pop(rng.randrange(len(net.lines)), None)
    return net, FractionalPoint(theta, y)


@settings(max_examples=300, derandomize=True, phases=NO_SHRINK)
@given(cpvi_instances(), st.sampled_from([F(0), F(1, 1000000), F(1, 2), F(2)]), st.booleans(), st.booleans())
def test_separate_cpvi_equals_exhaustive_pairs(instance, tolerance, fractional_only, every_cycle):
    net, pt = instance
    cycles = all_simple_cycles(net) if every_cycle else fundamental_cycle_basis(net)
    config = SeparationConfig(tolerance, fractional_only)
    scanned = [c for c in cycles if not fractional_only or any(0 < pt.y.get(i, 0) < 1 for i in c.lines)]
    got = _ordered_result(lambda: separate_cpvi(net, cycles, pt, config))
    assert got == _ordered_result(lambda: _screened_cpvi(net, scanned, pt, tolerance))


# (grid seed, every simple cycle, buses without an angle, lines without a
# y, fractional cycles only) and what separate_cpvi gave before the exact
# screen: the error message, or the number of cuts
CPVI_MISSING_ENTRIES = [
    (3, False, (), (0,), False, 3),  # no pair of line 0's basis cycle passes the spread screen
    (3, False, (), (0, 7), False, "point has no y value for line 7"),
    (3, False, ("g22",), (1,), False, "point has no y value for line 1"),
    (3, False, ("g00",), (1,), False, "point has no angle for bus 'g00'"),
    (3, False, ("g22", "g12"), (), False, "point has no angle for bus 'g12'"),
    (3, True, (), (0,), False, "point has no y value for line 0"),
    (11, False, (), (1,), True, 0),
    (11, True, (), (9,), False, "point has no y value for line 9"),
    (11, True, (), (9,), True, 0),
    (11, False, (), (11, 4), False, "point has no y value for line 4"),
]


@pytest.mark.parametrize("seed, every_cycle, no_theta, no_y, fractional_only, expected", CPVI_MISSING_ENTRIES)
def test_cpvi_missing_entries_raise_as_before(seed, every_cycle, no_theta, no_y, fractional_only, expected):
    net, pt = _grid3_point(seed)
    cycles = all_simple_cycles(net) if every_cycle else fundamental_cycle_basis(net)
    theta = {bus: v for bus, v in pt.theta.items() if bus not in no_theta}
    y = {k: v for k, v in pt.y.items() if k not in no_y}
    got = _ordered_result(lambda: separate_cpvi(net, cycles, FractionalPoint(theta, y), SeparationConfig(0, fractional_only)))
    assert (got if isinstance(got, str) else len(got)) == expected


@pytest.mark.parametrize("seed", [3, 11, 17, 23])
@pytest.mark.parametrize("every_cycle", [False, True])
def test_cpvi_separation_builds_only_returned_cuts(monkeypatch, seed, every_cycle):
    net, pt = _grid3_point(seed)
    cycles = all_simple_cycles(net) if every_cycle else fundamental_cycle_basis(net)
    calls = {"build_cpvi": 0, "split_cycle": 0}

    def counted(name):
        real = getattr(anglecuts.cuts, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(anglecuts.cuts, name, counted(name))
    found = separate_cpvi(net, cycles, pt)
    assert found and calls == {"build_cpvi": len(found), "split_cycle": len(found)}


@pytest.mark.parametrize("weights", [[1, 1, 1, 1], [3, 1, 1, 2, 1], [1, 2, 2, 1, 3, 1], [F(1, 2), 2, 1, 1, F(3, 2), 1, 2]])
def test_cvi_missing_entries_at_each_cycle_position(weights):
    # the upfront check names what exhaustive_cvi's first nontrivial subset
    # meeting a gap raises, for up to two flow and two y gaps anywhere on the ring
    net = ring_net(weights)
    cycles = fundamental_cycle_basis(net)
    lines = range(len(net.lines))
    theta = {bus.id: F(0) for bus in net.buses}
    full_y, full_f = {k: F(k % 3, 2) for k in lines}, {k: F(k - 2) for k in lines}
    up_to_two = [(), *itertools.combinations(lines, 1), *itertools.combinations(lines, 2)]
    gaps = [(f_gone, y_gone) for f_gone in up_to_two for y_gone in up_to_two][1:]
    messages, named_smallest = set(), 0
    for f_gone, y_gone in gaps:
        y = {k: v for k, v in full_y.items() if k not in y_gone}
        f = {k: v for k, v in full_f.items() if k not in f_gone}
        pt = FractionalPoint(theta, y, f)
        got = _cvi_result(lambda: separate_cvi(net, cycles, pt))
        assert got == _cvi_result(lambda: exhaustive_cvi(net, cycles, pt, 0).values())
        messages.add(got)
        named_smallest += got.endswith(f" {min(f_gone + y_gone)}")
    # every gap is named in some case, and not always the smallest line with one
    assert messages == {f"point has no {entry} for line {k}" for entry in ("flow", "y value") for k in lines}
    assert 0 < named_smallest < len(gaps)
