import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from anglecuts.errors import BusNotOnCycleError, DisconnectedError, UnknownBusError
from anglecuts.graph import (
    all_simple_cycles,
    cycle_orientation_signs,
    fundamental_cycle_basis,
    shortest_path_bound,
    shortest_path_lengths,
    spanning_tree,
    split_cycle,
)

from _brute import brute_shortest_path
from conftest import make_net, random_net, ring_net


@pytest.fixture(scope="module")
def two_triangles():
    return make_net(
        [("a",), ("b",), ("c",), ("d",)],
        [("a", "b", 1, 1), ("b", "c", 1, 1), ("a", "c", 1, 1), ("c", "d", 1, 1), ("b", "d", 1, 1)],
    )


def test_spanning_tree_sizes(fig1, two_triangles):
    assert len(spanning_tree(fig1)) == 5
    assert len(spanning_tree(two_triangles)) == 3
    tree = make_net([("a",), ("b",), ("c",)], [("a", "b", 1, 1), ("b", "c", 1, 1)])
    assert spanning_tree(tree) == frozenset({0, 1})


def test_spanning_tree_active_only_disconnected(fig1):
    with pytest.raises(DisconnectedError):
        spanning_tree(fig1, active_only=True)  # every line is switchable


def test_spanning_tree_active_only_over_fixed_lines(fig1_fixed):
    tree = spanning_tree(fig1_fixed, active_only=True)
    assert len(tree) == 5 and tree <= set(range(6))


def test_cycle_basis_counts(fig1, two_triangles):
    assert fundamental_cycle_basis(make_net([("a",), ("b",)], [("a", "b", 1, 1)])) == []
    basis = fundamental_cycle_basis(fig1)
    assert len(basis) == 1 and len(basis[0].lines) == 6
    assert len(fundamental_cycle_basis(two_triangles)) == 2


def test_cycle_invariants(fig1, two_triangles):
    for net in (fig1, two_triangles):
        for cycle in fundamental_cycle_basis(net):
            assert len(cycle.lines) == len(cycle.buses) >= 2
            assert len(set(cycle.buses)) == len(cycle.buses)
            assert cycle.total_weight == sum(
                (net.lines[i].weight for i in cycle.lines), F(0)
            )
            # consecutive buses joined by the listed line
            n = len(cycle.buses)
            for k, idx in enumerate(cycle.lines):
                ends = {cycle.buses[k], cycle.buses[(k + 1) % n]}
                assert net.lines[idx].endpoints() == frozenset(ends)


def test_parallel_lines_form_two_cycle():
    net = make_net([("u",), ("v",)], [("u", "v", 1, 1), ("u", "v", 1, 3)])
    basis = fundamental_cycle_basis(net)
    assert len(basis) == 1
    assert basis[0].lines == (0, 1)
    assert basis[0].total_weight == 4


def test_shortest_path_examples(fig1):
    assert shortest_path_bound(fig1, "i0", "i1") == 1
    assert shortest_path_bound(fig1, "i0", "i4") == 2  # via i5
    assert shortest_path_bound(fig1, "i0", "i3") == 3
    with pytest.raises(UnknownBusError):
        shortest_path_bound(fig1, "i0", "nope")


def test_shortest_path_unreachable(fig1):
    assert shortest_path_bound(fig1, "i0", "i3", active_lines={0}) is None


def test_split_cycle_fig1(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    pair = split_cycle(fig1, cycle, "i0", "i4")
    assert pair.shorter.total_weight == 2
    assert pair.longer.total_weight == 4
    assert set(pair.shorter.lines) == {4, 5}
    assert set(pair.longer.lines) == {0, 1, 2, 3}
    assert set(pair.shorter.lines) | set(pair.longer.lines) == set(cycle.lines)
    assert not set(pair.shorter.lines) & set(pair.longer.lines)
    with pytest.raises(BusNotOnCycleError):
        split_cycle(fig1, cycle, "i0", "zz")


def test_split_two_cycle_by_weight():
    net = make_net([("u",), ("v",)], [("u", "v", 1, 1), ("u", "v", 1, 3)])
    cycle = fundamental_cycle_basis(net)[0]
    pair = split_cycle(net, cycle, "u", "v")
    assert pair.shorter.lines == (0,) and pair.shorter.total_weight == 1
    assert pair.longer.lines == (1,) and pair.longer.total_weight == 3


def test_split_tie_break_is_lexicographic():
    net = ring_net([1, 1, 1, 1])
    cycle = fundamental_cycle_basis(net)[0]
    pair = split_cycle(net, cycle, "r0", "r2")
    assert pair.shorter.total_weight == pair.longer.total_weight == 2
    assert list(pair.shorter.lines) < list(pair.longer.lines)


def test_split_weights_sum_to_cycle_weight(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    for m, n in itertools.combinations(cycle.buses, 2):
        pair = split_cycle(fig1, cycle, m, n)
        assert pair.shorter.total_weight + pair.longer.total_weight == cycle.total_weight
        assert pair.shorter.total_weight <= pair.longer.total_weight


def test_orientation_signs(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    signs = cycle_orientation_signs(fig1, cycle)
    # line 5 is stored i0->i5 but traversed i5->i0
    assert signs[5] == -1
    assert all(signs[i] == 1 for i in range(5))


def test_all_simple_cycles(two_triangles):
    cycles = all_simple_cycles(two_triangles)
    assert len(cycles) == 3
    assert {len(c.lines) for c in cycles} == {3, 4}


weights = st.lists(
    st.fractions(min_value=F(1, 12), max_value=F(20), max_denominator=12),
    min_size=3,
    max_size=7,
)


@given(weights)
def test_shortest_path_matches_brute_force_on_rings_with_chord(ws):
    net = ring_net(ws)
    ids = [b.id for b in net.buses]
    for m, n in itertools.combinations(ids, 2):
        assert shortest_path_bound(net, m, n) == brute_shortest_path(net, m, n)


@given(weights)
def test_shortest_path_symmetry_and_triangle(ws):
    net = ring_net(ws)
    ids = [b.id for b in net.buses]
    for m, n in itertools.combinations(ids, 2):
        d = shortest_path_bound(net, m, n)
        assert d == shortest_path_bound(net, n, m)
    for a, b, c in itertools.permutations(ids[:4] if len(ids) >= 4 else ids, 3):
        assert shortest_path_bound(net, a, c) <= shortest_path_bound(net, a, b) + shortest_path_bound(net, b, c)


def test_shortest_path_brute_force_on_mesh():
    net = make_net(
        [("a",), ("b",), ("c",), ("d",), ("e",)],
        [
            ("a", "b", 1, F(1, 3)),
            ("b", "c", 1, F(5, 2)),
            ("a", "c", 1, 2),
            ("c", "d", 1, F(3, 4)),
            ("b", "d", 1, 3),
            ("d", "e", 1, 1),
            ("a", "e", 1, 5),
        ],
    )
    ids = [b.id for b in net.buses]
    for m, n in itertools.combinations(ids, 2):
        assert shortest_path_bound(net, m, n) == brute_shortest_path(net, m, n)


@pytest.mark.parametrize("seed", range(40))
def test_shortest_path_lengths_match_brute_force_on_random_networks(seed):
    net = random_net(seed)
    ids = [b.id for b in net.buses]
    fixed = [i for i, line in enumerate(net.lines) if not line.switchable]
    for active in (None, fixed):
        for source in ids:
            brute = {t: brute_shortest_path(net, source, t, active) for t in ids}
            expect = {t: d for t, d in brute.items() if d is not None}
            assert shortest_path_lengths(net, source, active) == expect
            for target in ids:
                if target != source:
                    assert shortest_path_bound(net, source, target, active) == brute[target]


def test_shortest_path_lengths_checks(fig1):
    assert shortest_path_lengths(fig1, "i0", active_lines=[0, 1]) == {"i0": 0, "i1": 1, "i2": 2}
    with pytest.raises(UnknownBusError):
        shortest_path_lengths(fig1, "nope")
    with pytest.raises(ValueError):
        shortest_path_bound(fig1, "i0", "i0")
