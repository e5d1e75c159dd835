import itertools
import random
from fractions import Fraction as F

import pytest

from anglecuts.bounds import global_big_m
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
from anglecuts.graph import fundamental_cycle_basis, split_cycle

from _brute import exhaustive_cpvi
from conftest import ring_net


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
