"""Pure graph algorithms over a loaded network.

Spanning trees, the fundamental cycle basis, weighted shortest paths on
line subsets, and splitting a cycle at a bus pair into its two
complementary arcs.  Everything here is a pure function of immutable
inputs; weights are exact rationals throughout.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BusNotOnCycleError, CapExceededError, DisconnectedError, UnknownBusError
from .network import Network

__all__ = [
    "Path",
    "Cycle",
    "CyclePathPair",
    "spanning_tree",
    "fundamental_cycle_basis",
    "shortest_path_lengths",
    "shortest_path_bound",
    "split_cycle",
    "all_simple_cycles",
    "cycle_orientation_signs",
]


@dataclass(frozen=True)
class Path:
    """A simple walk between two buses, as an ordered list of line indices."""

    lines: tuple[int, ...]
    endpoints: tuple[str, str]
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


def _allowed(net: Network, active_only: bool) -> Iterable[int]:
    for idx, line in enumerate(net.lines):
        if active_only and line.switchable:
            continue
        yield idx


def spanning_tree(net: Network, active_only: bool = False) -> frozenset[int]:
    """BFS spanning tree rooted at the lowest-index bus, deterministic.

    With active_only, only non-switchable lines are eligible; raises
    DisconnectedError when the eligible subgraph does not reach every bus.
    """
    if not net.buses:
        return frozenset()
    allowed = set(_allowed(net, active_only))
    root = net.buses[0].id
    reached = {root}
    tree: list[int] = []
    frontier = [root]
    while frontier:
        nxt: list[str] = []
        for bus in frontier:
            for idx in net.adjacency[bus]:
                if idx not in allowed:
                    continue
                other = net.lines[idx].other(bus)
                if other not in reached:
                    reached.add(other)
                    tree.append(idx)
                    nxt.append(other)
        frontier = nxt
    for bus in net.buses:
        if bus.id not in reached:
            raise DisconnectedError(
                f"bus {bus.id!r} unreachable from {root!r}"
                + (" over non-switchable lines" if active_only else "")
            )
    return frozenset(tree)


def _tree_parents(net: Network, tree: frozenset[int]) -> dict[str, tuple[str, int]]:
    """Map each non-root bus to (parent bus, connecting tree line)."""
    root = net.buses[0].id
    parents: dict[str, tuple[str, int]] = {}
    stack = [root]
    seen = {root}
    while stack:
        bus = stack.pop()
        for idx in net.adjacency[bus]:
            if idx not in tree:
                continue
            other = net.lines[idx].other(bus)
            if other not in seen:
                seen.add(other)
                parents[other] = (bus, idx)
                stack.append(other)
    return parents


def _canonical_cycle(net: Network, line_seq: Sequence[int], bus_seq: Sequence[str]) -> Cycle:
    """Rotate/reflect so the lowest-index bus leads and direction is fixed."""
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
    total = sum((net.lines[i].weight for i in lines), Fraction(0))
    return Cycle(tuple(lines), tuple(buses), total)


def fundamental_cycle_basis(net: Network) -> list[Cycle]:
    """One cycle per non-tree line: the line plus the unique tree path.

    The list has exactly len(lines) - len(buses) + 1 entries and is
    deterministic (BFS tree from the lowest-index bus, non-tree lines in
    index order).
    """
    tree = spanning_tree(net)
    parents = _tree_parents(net, tree)
    root = net.buses[0].id

    def chain(bus: str) -> tuple[list[tuple[str, int]], list[str]]:
        """Edges (child, tree line) and buses visited walking up to the root."""
        edges = []
        while bus != root:
            parent, idx = parents[bus]
            edges.append((bus, idx))
            bus = parent
        return edges, [child for child, _ in edges] + [root]

    cycles = []
    for idx, line in enumerate(net.lines):
        if idx in tree:
            continue
        edges_a, buses_a = chain(line.from_bus)
        edges_b, buses_b = chain(line.to_bus)
        pos_a = {bus: k for k, bus in enumerate(buses_a)}
        meet_b = next(k for k, bus in enumerate(buses_b) if bus in pos_a)
        meet_a = pos_a[buses_b[meet_b]]
        # from_bus -> meet (up the tree), meet -> to_bus (down), close with idx
        bus_seq = [line.from_bus]
        line_seq = []
        for child, tidx in edges_a[:meet_a]:
            line_seq.append(tidx)
            bus_seq.append(net.lines[tidx].other(child))
        for child, tidx in reversed(edges_b[:meet_b]):
            line_seq.append(tidx)
            bus_seq.append(child)
        line_seq.append(idx)
        cycles.append(_canonical_cycle(net, line_seq, bus_seq))
    return cycles


def shortest_path_lengths(
    net: Network, source: str, active_lines: Iterable[int] | None = None
) -> dict[str, Fraction]:
    """Minimum total weight from source to every bus it reaches inside
    the given line subset, source itself at 0.

    With active_lines None the whole line set is used; a set or frozenset
    is used as is, so a caller searching from many sources builds it
    once.  Label-setting search; comparisons are exact.
    """
    _check_bus(net, source)
    if active_lines is not None and not isinstance(active_lines, (set, frozenset)):
        active_lines = frozenset(active_lines)
    dist: dict[str, Fraction] = {source: Fraction(0)}
    done: dict[str, Fraction] = {}
    heap: list[tuple[Fraction, int, str]] = [(Fraction(0), net.bus_index[source], source)]
    while heap:
        d, _, bus = heapq.heappop(heap)
        if bus in done:
            continue
        done[bus] = d
        for idx in net.adjacency[bus]:
            if active_lines is not None and idx not in active_lines:
                continue
            other = net.lines[idx].other(bus)
            if other in done:
                continue
            nd = d + net.lines[idx].weight
            if other not in dist or nd < dist[other]:
                dist[other] = nd
                heapq.heappush(heap, (nd, net.bus_index[other], other))
    return done


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


def _arc_path(net: Network, cycle: Cycle, start: int, stop: int) -> Path:
    """The arc walking forward from position start to position stop."""
    n = len(cycle.buses)
    lines = []
    pos = start
    while pos != stop:
        lines.append(cycle.lines[pos])
        pos = (pos + 1) % n
    total = sum((net.lines[i].weight for i in lines), Fraction(0))
    return Path(tuple(lines), (cycle.buses[start], cycle.buses[stop]), total)


def split_cycle(net: Network, cycle: Cycle, m: str, n: str) -> CyclePathPair:
    """Split the cycle at buses m and n into its two complementary arcs.

    The lighter arc is the shorter path.  Exact ties are broken by the
    lexicographically smaller sorted line-index tuple, so the labels do
    not depend on which bus is passed first.
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
    forward = _arc_path(net, cycle, pos_m, pos_n)
    backward = _arc_path(net, cycle, pos_n, pos_m)
    # orient both arcs from m to n
    backward = Path(tuple(reversed(backward.lines)), (m, n), backward.total_weight)
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


def all_simple_cycles(net: Network, max_cycles: int = 10000) -> list[Cycle]:
    """Every simple cycle of the network, canonicalized and deduplicated.

    Parallel line pairs count as 2-cycles.  Intended for desk-scale
    graphs; raises CapExceededError past max_cycles.
    """
    found: dict[frozenset[int], Cycle] = {}

    def record(line_seq: list[int], bus_seq: list[str]) -> None:
        key = frozenset(line_seq)
        if key not in found:
            found[key] = _canonical_cycle(net, line_seq, bus_seq)
            if len(found) > max_cycles:
                raise CapExceededError(f"more than {max_cycles} simple cycles")

    # 2-cycles from parallel lines
    by_pair: dict[frozenset[str], list[int]] = {}
    for idx, line in enumerate(net.lines):
        by_pair.setdefault(line.endpoints(), []).append(idx)
    for pair_key, idxs in by_pair.items():
        for i in range(len(idxs)):
            for j in range(i + 1, len(idxs)):
                a = net.lines[idxs[i]].from_bus
                b = net.lines[idxs[i]].to_bus
                record([idxs[i], idxs[j]], [a, b])

    # longer cycles: DFS anchored at the smallest-index bus of the cycle
    order = net.bus_index
    for start_bus in [b.id for b in net.buses]:
        stack: list[tuple[str, list[int], list[str]]] = [(start_bus, [], [start_bus])]
        while stack:
            bus, line_seq, bus_seq = stack.pop()
            for idx in net.adjacency[bus]:
                if idx in line_seq:
                    continue
                other = net.lines[idx].other(bus)
                if order[other] < order[start_bus]:
                    continue
                if other == start_bus:
                    if len(line_seq) >= 2:
                        record(line_seq + [idx], list(bus_seq))
                    continue
                if other in bus_seq:
                    continue
                stack.append((other, line_seq + [idx], bus_seq + [other]))
    return [found[key] for key in sorted(found, key=lambda k: tuple(sorted(k)))]
