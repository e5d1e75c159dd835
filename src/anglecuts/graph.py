"""Pure graph algorithms over a loaded network.

The fundamental cycle basis, grown from `Network.tree` (the BFS spanning
tree that validation built), weighted shortest paths on line subsets,
and splitting a cycle at a bus pair into its two complementary arcs.
Everything here is a pure function of immutable inputs.  Weights are
exact rationals; the shortest-path search runs on them scaled to
integers by the lcm of their denominators.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import BusNotOnCycleError, CapExceededError, UnknownBusError
from .network import Network

__all__ = [
    "Path",
    "Cycle",
    "CyclePathPair",
    "fundamental_cycle_basis",
    "shortest_path_lengths",
    "shortest_path_bound",
    "split_cycle",
    "all_simple_cycles",
    "cycle_orientation_signs",
]

# all_simple_cycles refuses a network with more simple cycles than this
SIMPLE_CYCLE_CAP = 10000


@dataclass(frozen=True)
class Path:
    """A simple walk between two buses, as an ordered list of line indices."""

    lines: tuple[int, ...]
    total_weight: Fraction


@dataclass(frozen=True)
class Cycle:
    """A simple cycle: buses[k] and buses[k+1] are joined by lines[k].

    The last line closes the cycle back to buses[0].  Canonical form:
    the lowest-index bus comes first and the traversal direction is the
    deterministic one chosen by the basis builder.
    """

    lines: tuple[int, ...]
    buses: tuple[str, ...]
    total_weight: Fraction


@dataclass(frozen=True)
class CyclePathPair:
    """A cycle split at a bus pair into its shorter and longer arcs by weight."""

    cycle: Cycle
    pair: tuple[str, str]
    shorter: Path
    longer: Path


def _check_bus(net: Network, bus: str) -> None:
    if bus not in net.bus_index:
        raise UnknownBusError(f"unknown bus {bus!r}")


def _canonical_cycle(net: Network, line_seq: Sequence[int], bus_seq: Sequence[str], total: Fraction) -> Cycle:
    """Rotate/reflect so the lowest-index bus leads and direction is fixed;
    total is the cycle's weight."""
    n = len(bus_seq)
    order = net.bus_index
    start = min(range(n), key=lambda i: order[bus_seq[i]])
    buses = [bus_seq[(start + i) % n] for i in range(n)]
    lines = [line_seq[(start + i) % n] for i in range(n)]
    if n == 2:
        if lines[0] > lines[1]:
            lines = [lines[1], lines[0]]
    elif order[buses[-1]] < order[buses[1]]:
        # reflect: keep buses[0], walk the other way round
        buses = [buses[0]] + buses[1:][::-1]
        lines = lines[::-1]
    return Cycle(tuple(lines), tuple(buses), total)


def fundamental_cycle_basis(net: Network) -> list[Cycle]:
    """One cycle per non-tree line: the line plus the unique tree path.

    The list has exactly len(lines) - len(buses) + 1 entries and is
    deterministic (the BFS tree `Network.tree` from the lowest-index bus,
    non-tree lines in index order; a disconnected network raises the
    tree's DisconnectedError).  The tree path is found by stepping the end lower
    in the tree up until the two ends meet, so each cycle costs its own
    length.  A cycle's weight is d(a) + d(b) - 2 d(meet) + w(line), from
    the tree's root distances d.
    """
    parents = net.tree
    root = net.buses[0].id
    level, depth = {root: 0}, {root: Fraction(0)}
    for bus, (parent, idx) in parents.items():  # in BFS order, so each parent comes first
        level[bus] = level[parent] + 1
        depth[bus] = depth[parent] + net.lines[idx].weight
    tree = {idx for _, idx in parents.values()}
    cycles = []
    for idx, line in enumerate(net.lines):
        if idx in tree:
            continue
        # step the end lower in the tree up until the ends meet; each step is (tree line, bus it leads to)
        a, b, up, down = line.from_bus, line.to_bus, [], []
        while a != b:
            if level[a] >= level[b]:
                a, tidx = parents[a]
                up.append((tidx, a))
            else:
                down.append((parents[b][1], b))
                b = parents[b][0]
        steps = up + down[::-1]  # from_bus -> meet -> to_bus, closed by idx
        line_seq = [tidx for tidx, _ in steps] + [idx]
        bus_seq = [line.from_bus] + [bus for _, bus in steps]
        total = depth[line.from_bus] + depth[line.to_bus] - 2 * depth[a] + line.weight
        cycles.append(_canonical_cycle(net, line_seq, bus_seq, total))
    return cycles


def scaled_adjacency(net: Network, active_lines: Iterable[int] | None = None) -> tuple[dict[str, list], int]:
    """Per bus, (neighbour, weight * den) over the given lines in line
    order, and den, the lcm of the line weights' denominators.  A
    positive scale keeps every comparison, so a search on these integers
    settles the buses in the order a search on the Fractions would."""
    active = range(len(net.lines)) if active_lines is None else frozenset(active_lines)
    den = lcm(*[line.weight.denominator for line in net.lines])
    adj: dict[str, list[tuple[str, int]]] = {bus.id: [] for bus in net.buses}
    for idx, line in enumerate(net.lines):
        if idx in active:
            weight = line.weight.numerator * (den // line.weight.denominator)
            adj[line.from_bus].append((line.to_bus, weight))
            adj[line.to_bus].append((line.from_bus, weight))
    return adj, den


def scaled_lengths(net: Network, adj: dict[str, list], source: str) -> dict[str, int]:
    """Label-setting search over scaled_adjacency's integers: each bus
    source reaches, in the order it is settled, with its distance."""
    order, dist, done = net.bus_index, {source: 0}, {}
    heap = [(0, order[source], source)]
    while heap:
        d, _, bus = heapq.heappop(heap)
        if bus in done:
            continue
        done[bus] = d
        for other, weight in adj[bus]:
            if other in done:
                continue
            nd = d + weight
            if other not in dist or nd < dist[other]:
                dist[other] = nd
                heapq.heappush(heap, (nd, order[other], other))
    return done


def shortest_path_lengths(
    net: Network, source: str, active_lines: Iterable[int] | None = None
) -> dict[str, Fraction]:
    """Minimum total weight from source to every bus it reaches inside
    the given line subset, source itself at 0.

    With active_lines None the whole line set is used.  Label-setting
    search on the weights scaled to integers; comparisons are exact.
    """
    _check_bus(net, source)
    adj, den = scaled_adjacency(net, active_lines)
    return {bus: Fraction(d, den) for bus, d in scaled_lengths(net, adj, source).items()}


def shortest_path_bound(net: Network, m: str, n: str, active_lines: Iterable[int] | None = None):
    """Minimum total weight over paths m..n inside the given line subset.

    Returns None when the pair is unreachable in that subgraph.  With
    active_lines None the whole line set is used.
    """
    _check_bus(net, m)
    _check_bus(net, n)
    if m == n:
        raise ValueError("shortest_path_bound requires two distinct buses")
    return shortest_path_lengths(net, m, active_lines).get(n)


def split_cycle(net: Network, cycle: Cycle, m: str, n: str) -> CyclePathPair:
    """Split the cycle at buses m and n into its two complementary arcs.

    Both arcs run from m to n, each summed once.  The lighter arc is the
    shorter path.  Exact ties are broken by the lexicographically smaller
    sorted line-index tuple, so the labels do not depend on which bus is
    passed first.
    """
    if m == n:
        raise BusNotOnCycleError("pair buses must be distinct")
    try:
        pos_m = cycle.buses.index(m)
    except ValueError:
        raise BusNotOnCycleError(f"bus {m!r} is not on the cycle") from None
    try:
        pos_n = cycle.buses.index(n)
    except ValueError:
        raise BusNotOnCycleError(f"bus {n!r} is not on the cycle") from None
    # the cycle's lines turned to start at m: forward up to n, backward the rest walked back
    lines, cut = cycle.lines[pos_m:] + cycle.lines[:pos_m], (pos_n - pos_m) % len(cycle.lines)
    arcs = (lines[:cut], lines[cut:][::-1])
    forward, backward = (Path(arc, sum((net.lines[i].weight for i in arc), Fraction(0))) for arc in arcs)
    if (forward.total_weight, sorted(forward.lines)) <= (backward.total_weight, sorted(backward.lines)):
        shorter, longer = forward, backward
    else:
        shorter, longer = backward, forward
    return CyclePathPair(cycle=cycle, pair=(m, n), shorter=shorter, longer=longer)


def cycle_orientation_signs(net: Network, cycle: Cycle) -> dict[int, int]:
    """+1 where a line's stored direction agrees with the cycle traversal."""
    signs: dict[int, int] = {}
    for k, idx in enumerate(cycle.lines):
        tail = cycle.buses[k]
        signs[idx] = 1 if net.lines[idx].from_bus == tail else -1
    return signs


def all_simple_cycles(net: Network) -> list[Cycle]:
    """Every simple cycle of the network, canonicalized and deduplicated.

    Parallel line pairs count as 2-cycles.  Intended for desk-scale
    graphs; raises CapExceededError past SIMPLE_CYCLE_CAP.  A path grows
    only to a bus that still reaches its start through buses off the path
    and not below the start: no path that closes is lost.  Each state's
    search for those buses stops once it has reached every bus the state
    could step to.  A cycle's weight is summed in integers over the lcm of
    the line weights' denominators.
    """
    found: dict[frozenset[int], Cycle] = {}
    den = lcm(*[line.weight.denominator for line in net.lines])
    scaled = [line.weight.numerator * (den // line.weight.denominator) for line in net.lines]

    def record(line_seq: list[int], bus_seq: list[str]) -> None:
        key = frozenset(line_seq)
        if key not in found:
            found[key] = _canonical_cycle(net, line_seq, bus_seq, Fraction(sum([scaled[i] for i in line_seq]), den))
            if len(found) > SIMPLE_CYCLE_CAP:
                raise CapExceededError(f"more than {SIMPLE_CYCLE_CAP} simple cycles")

    order = net.bus_index
    # per bus, each of its lines in line order with the bus at its other end
    steps_from = {bus: [(idx, net.lines[idx].other(bus)) for idx in idxs] for bus, idxs in net.adjacency.items()}

    def returnable(start: str, on_path: set[str], wanted: set[str]) -> set[str]:
        """The buses that reach start through buses off the path and not below start, as far
        as the search has gone once it has reached every bus wanted (or all it can)."""
        reached, todo = set(), [start]
        while todo and wanted:
            for _, other in steps_from[todo.pop()]:
                if other not in reached and other not in on_path and order[other] >= order[start]:
                    reached.add(other)
                    todo.append(other)
                    wanted.discard(other)
        return reached

    # DFS anchored at the smallest-index bus of the cycle; a path never
    # reuses a line, so closing over a parallel line gives a 2-cycle
    for start_bus in [b.id for b in net.buses]:
        stack: list[tuple[str, list[int], list[str]]] = [(start_bus, [], [start_bus])]
        while stack:
            bus, line_seq, bus_seq = stack.pop()
            steps = [(idx, other) for idx, other in steps_from[bus] if idx not in line_seq]
            on_path = set(bus_seq)
            # a step goes on only to a bus off the path and above the start: the search needs reach no further
            reach = returnable(start_bus, on_path, {other for _, other in steps
                                                    if other not in on_path and order[other] > order[start_bus]})
            for idx, other in steps:
                if other == start_bus:
                    record(line_seq + [idx], list(bus_seq))
                elif other in reach:
                    stack.append((other, line_seq + [idx], bus_seq + [other]))
    return [found[key] for key in sorted(found, key=lambda k: tuple(sorted(k)))]
