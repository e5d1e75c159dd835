import itertools
import signal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from anglecuts import graph
from anglecuts.errors import BusNotOnCycleError, DisconnectedError, UnknownBusError
from anglecuts.graph import (
    all_simple_cycles,
    cycle_orientation_signs,
    fundamental_cycle_basis,
    shortest_path_bound,
    split_cycle,
)
from anglecuts.network import Bus, Line, Network, load_network, serialize_network

from _brute import (
    arc_walk_split_cycle,
    bfs_parents,
    brute_cycles,
    brute_shortest_path,
    fraction_shortest_path_lengths,
    full_search_cycle_order,
    root_walk_cycle_basis,
    spanning_tree,
)
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


def test_spanning_tree_names_an_unreached_bus():
    net = Network((Bus("a"), Bus("b"), Bus("c")), (Line("a", "b", F(1), F(1)),))
    with pytest.raises(DisconnectedError, match="bus 'c' unreachable from 'a'"):
        spanning_tree(net)
    with pytest.raises(DisconnectedError, match="bus 'c'"):
        fundamental_cycle_basis(net)


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


def square_chain(n):
    """n squares in a row, each sharing one bus with the next: 3n + 1 buses,
    4n lines and exactly n simple cycles, the squares."""
    ids, ends = ["c0"], []
    for k in range(n):
        ids += [f"a{k}", f"b{k}", f"c{k + 1}"]
        ends += [(f"c{k}", f"a{k}"), (f"a{k}", f"c{k + 1}"), (f"c{k + 1}", f"b{k}"), (f"b{k}", f"c{k}")]
    return make_net([(bus,) for bus in ids], [(a, b, 1, 1) for a, b in ends])


@pytest.mark.parametrize("seed", [*range(40), "chain2", "chain3", "chain4"])
def test_all_simple_cycles_match_brute_force_on_random_networks(seed):
    net = random_net(seed) if isinstance(seed, int) else square_chain(int(seed[len("chain"):]))
    cycles = all_simple_cycles(net)
    assert [tuple(sorted(c.lines)) for c in cycles] == brute_cycles(net)
    for cycle in cycles:
        size = len(cycle.lines)
        assert cycle.buses[0] == min(cycle.buses, key=net.bus_index.__getitem__)
        for k, idx in enumerate(cycle.lines):
            assert net.lines[idx].endpoints() == {cycle.buses[k], cycle.buses[(k + 1) % size]}
        assert cycle.total_weight == sum(net.lines[idx].weight for idx in cycle.lines)


def within_a_second(search, net):
    """search(net), raising TimeoutError when it takes more than a second."""
    def give_up(signum, frame):
        raise TimeoutError(f"{search.__name__} took more than a second")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        return search(net)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_all_simple_cycles_on_a_long_chain_of_squares():
    # 91 buses, 120 lines and 30 cycles: a search that grows paths which cannot close never ends here
    cycles = within_a_second(all_simple_cycles, square_chain(30))
    assert [sorted(c.lines) for c in cycles] == [list(range(4 * k, 4 * k + 4)) for k in range(30)]


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
        adj, den = graph.scaled_adjacency(net, active)
        for source in ids:
            brute = {t: brute_shortest_path(net, source, t, active) for t in ids}
            expect = {t: d for t, d in brute.items() if d is not None}
            assert {t: F(d, den) for t, d in graph.scaled_lengths(net, adj, source).items()} == expect
            for target in ids:
                if target != source:
                    assert shortest_path_bound(net, source, target, active) == brute[target]


def test_shortest_path_lengths_checks(fig1):
    # lines 0 and 1 join i0-i1-i2, and the rest of the ring is off
    assert [shortest_path_bound(fig1, "i0", bus, active_lines=[0, 1]) for bus in ("i1", "i2", "i3")] == [1, 2, None]
    for m, n in (("nope", "i0"), ("i0", "nope"), ("nope", "nope")):
        with pytest.raises(UnknownBusError, match="^unknown bus 'nope'$"):
            shortest_path_bound(fig1, m, n)
    with pytest.raises(ValueError, match="^shortest_path_bound requires two distinct buses$"):
        shortest_path_bound(fig1, "i0", "i0")


@st.composite
def nets_with_parallel_lines(draw):
    """A random tree over 2 to 8 buses, extra lines between random buses,
    and parallel copies of some lines, with rational weights."""
    size = draw(st.integers(2, 8))
    ids = [f"v{k}" for k in range(size)]
    ends = [(ids[draw(st.integers(0, k - 1))], ids[k]) for k in range(1, size)]
    bus = st.sampled_from(ids)
    ends += [pair for pair in draw(st.lists(st.tuples(bus, bus), max_size=4)) if pair[0] != pair[1]]
    ends += draw(st.lists(st.sampled_from(ends), min_size=1, max_size=3))  # parallel lines
    rat = st.fractions(min_value=F(1, 6), max_value=5, max_denominator=6)
    return make_net([(b,) for b in ids], [(a, b, draw(rat), draw(rat)) for a, b in draw(st.permutations(ends))])


def assert_cycles_match_the_full_search(net, monkeypatch):
    # the same cycles as every line subset gives, closed in the same DFS order
    # as the search that explored every state's returnable set in full, so the
    # list and the point where SIMPLE_CYCLE_CAP raises stay the same
    closed = []
    canonical = graph._canonical_cycle

    def record(net, line_seq, bus_seq, total):
        closed.append(tuple(line_seq))
        return canonical(net, line_seq, bus_seq, total)

    monkeypatch.setattr(graph, "_canonical_cycle", record)
    cycles = all_simple_cycles(net)
    assert closed == full_search_cycle_order(net)
    assert [tuple(sorted(c.lines)) for c in cycles] == brute_cycles(net)


@settings(max_examples=100, derandomize=True)
@given(nets_with_parallel_lines())
def test_all_simple_cycles_match_the_full_search(net):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_cycles_match_the_full_search(net, monkeypatch)


@pytest.mark.parametrize("seed", range(20))
def test_all_simple_cycles_match_the_full_search_on_random_networks(seed, monkeypatch):
    assert_cycles_match_the_full_search(random_net(seed, max_buses=9), monkeypatch)


@given(nets_with_parallel_lines())
def test_basis_cycle_weights_are_their_line_sums(net):
    cycles = fundamental_cycle_basis(net)
    assert len(cycles) == len(net.lines) - len(net.buses) + 1
    for cycle in cycles:
        assert cycle.total_weight == sum(net.lines[i].weight for i in cycle.lines)


def assert_walks_match_the_references(net):
    basis = fundamental_cycle_basis(net)
    assert basis == root_walk_cycle_basis(net)
    for cycle in basis:
        for m, n in itertools.permutations(cycle.buses, 2):
            # the same pair and the same shorter and longer lines and weights
            assert split_cycle(net, cycle, m, n) == arc_walk_split_cycle(net, cycle, m, n)


@given(nets_with_parallel_lines())
def test_tree_matches_the_level_by_level_search(net):
    assert list(net.tree.items()) == list(bfs_parents(net).items())


@pytest.mark.parametrize("seed", range(40))
def test_tree_matches_the_level_by_level_search_on_random_networks(seed):
    net = random_net(seed, max_buses=12)
    assert list(net.tree.items()) == list(bfs_parents(net).items())


def test_tree_and_the_reference_name_the_same_unreached_bus():
    net = Network(tuple(Bus(b) for b in "adbce"), (Line("a", "b", F(1), F(1)), Line("c", "d", F(1), F(1))))
    with pytest.raises(DisconnectedError, match="^bus 'd' unreachable from 'a'$"):
        bfs_parents(net)
    with pytest.raises(DisconnectedError, match="^bus 'd' is not connected to bus 'a'$"):
        net.tree
    with pytest.raises(DisconnectedError, match="^bus 'd' is not connected to bus 'a'$"):
        fundamental_cycle_basis(net)


def test_the_basis_reuses_the_tree_validation_built(fig1):
    net = load_network(serialize_network(fig1))
    assert "tree" in vars(net)
    tree = net.tree
    fundamental_cycle_basis(net)
    assert net.tree is tree


@given(nets_with_parallel_lines())
def test_basis_and_split_match_the_references(net):
    assert_walks_match_the_references(net)


@pytest.mark.parametrize("seed", range(40))
def test_basis_and_split_match_the_references_on_random_networks(seed):
    assert_walks_match_the_references(random_net(seed, max_buses=12))


@pytest.mark.parametrize("weight", [1, F(1, 3)])
@pytest.mark.parametrize("size", [2, 3, 4, 5, 8, 13])
def test_basis_and_split_match_the_references_on_equal_weight_rings(size, weight):
    # every split of an even ring at opposite buses is an exact tie
    assert_walks_match_the_references(ring_net([weight] * size))


def ladder(n):
    """Two rails of n buses joined by n rungs, rail lines listed first, so
    that the BFS tree takes one rail and the rungs: n - 1 four-line cycles."""
    ids = [f"{rail}{k}" for rail in "ab" for k in range(n)]
    ends = [(f"{rail}{k}", f"{rail}{k + 1}") for rail in "ab" for k in range(n - 1)]
    ends += [(f"a{k}", f"b{k}") for k in range(n)]
    return make_net([(bus,) for bus in ids], [(a, b, 1, 1) for a, b in ends])


def test_cycle_basis_on_a_long_ladder():
    # 8,000 buses and 11,998 lines, built outside the timer: a basis that
    # walks each non-tree line's ends to the root is quadratic here
    cycles = within_a_second(fundamental_cycle_basis, ladder(4000))
    assert len(cycles) == 3999 and all(len(cycle.lines) == 4 for cycle in cycles)


def assert_search_matches_the_fraction_search(net, active):
    adj, den = graph.scaled_adjacency(net, active)
    for source in [bus.id for bus in net.buses]:
        got = graph.scaled_lengths(net, adj, source)
        assert all(type(d) is int for d in got.values())
        # the same Fractions, settled in the same order
        assert [(bus, F(d, den)) for bus, d in got.items()] == list(fraction_shortest_path_lengths(net, source, active).items())


@given(nets_with_parallel_lines(), st.data())
def test_integer_search_matches_the_fraction_search(net, data):
    """Mixed weight denominators up to 6, with every line active and on a
    random subset that leaves some buses unreachable."""
    subset = data.draw(st.sets(st.integers(0, len(net.lines) - 1)))
    for active in (None, subset, sorted(subset)):
        assert_search_matches_the_fraction_search(net, active)


@pytest.mark.parametrize("seed", range(20))
def test_integer_search_matches_the_fraction_search_on_random_networks(seed):
    net = random_net(seed, max_buses=12)
    # an isolated bus, which no search reaches and whose search reaches nothing else
    net = Network(net.buses + (Bus("iso"),), net.lines)
    fixed = [i for i, line in enumerate(net.lines) if not line.switchable]
    for active in (None, fixed, fixed[::2]):
        assert_search_matches_the_fraction_search(net, active)
