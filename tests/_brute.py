"""Independent brute-force oracles used only by the tests.

These deliberately avoid the production code paths they are checking:
path enumeration instead of label-setting search, combinatorial basis
enumeration instead of incremental insertion, a full pair sweep instead
of the screened separation walk, every line subset instead of the
pruned flow-space search, hull membership as a feasibility LP, and a
dense-tableau simplex that updates every column of every pivot.  The
Fraction code the fast paths replaced stays here as their reference:
``Fraction``'s own string parser, the label-setting search on Fraction
weights, the pair bounds built on it, the two-arc flow-space cuts
past the cap, each priced by ``cvi_violation``, the cycle basis that
walks both ends of each non-tree line to the root, the cycle split
that walks each arc on its own, the level-by-level BFS that
``Network.tree`` replaced, which the root-walk basis and the spanning
tree below are built on, and the Fraction elimination that
``matrix_rank``'s integer one replaced.  The dense simplex keeps its
artificial column per equality, the reference the equality elimination in
front of the kernel is checked against; a Fraction mirror of that front
feeds it the reduced LP.  The sequential integer front that the reduced
equalities replaced, each equality cleared from every row as it is
solved and the eliminated columns back-substituted in reverse order,
stays as the reference for the one-pass front, and the simple-cycle DFS
that searched its whole returnable set at every state as the reference
for the one that stops once a state's steps are settled.  The
helpers only tests call (a Fraction dot product, the LP over a
polytope, the BFS spanning tree, a network with every line fixed) live
here too.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from anglecuts.bounds import BoundSource, global_big_m
from anglecuts.cuts import build_cpvi, build_cvi, cpvi_violation, cvi_violation
from anglecuts.errors import AngleCutsError, BusNotOnCycleError, DisconnectedError, UnboundedError, UnknownBusError
from anglecuts.graph import Cycle, CyclePathPair, Path, _canonical_cycle, split_cycle
from anglecuts.network import Network
from anglecuts.rational import _combination, integer_row
from anglecuts.simplex import LPResult, Row, _solve_inequalities, solve_linear_program


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


_EXPONENT = re.compile(r"[eE][-+]?([0-9][0-9_]*)\s*\Z")


def fraction_parse_rational(value: object, where: str = "value") -> Fraction:
    """rational.parse_rational with every string read by Fraction's own parser."""
    limit = sys.get_int_max_str_digits()
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, float):
        raise ValueError(f"{where}: floats are not exact; use a decimal or p/q string")
    if isinstance(value, str):
        if limit and ("e" in value or "E" in value) and (exponent := _EXPONENT.search(value)):
            digits = exponent[1].replace("_", "")
            if len(digits) >= limit or int(digits) >= limit:
                raise ValueError(f"{where}: decimal exponent in {value[:40]!r} gives more than {limit} digits")
        try:
            value = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: not a rational string: {value!r}") from exc
    elif isinstance(value, int):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise ValueError(f"{where}: expected a rational string or integer, got {type(value).__name__}")
    num, den = value.numerator, value.denominator
    if limit and (num.bit_length() > 3 * limit or den.bit_length() > 3 * limit) and max(-num, num, den) >= 10**limit:
        raise ValueError(f"{where}: a numerator or denominator has more than {limit} digits")
    return value


def fraction_shortest_path_lengths(net, source, active_lines=None):
    """graph.shortest_path_lengths with Fraction heap keys: each bus source
    reaches inside the line subset, in the order it is settled."""
    if source not in net.bus_index:
        raise UnknownBusError(f"unknown bus {source!r}")
    active = None if active_lines is None else frozenset(active_lines)
    dist = {source: Fraction(0)}
    done = {}
    heap = [(Fraction(0), net.bus_index[source], source)]
    while heap:
        d, _, bus = heapq.heappop(heap)
        if bus in done:
            continue
        done[bus] = d
        for idx in net.adjacency[bus]:
            if active is not None and idx not in active:
                continue
            other = net.lines[idx].other(bus)
            if other in done:
                continue
            nd = d + net.lines[idx].weight
            if other not in dist or nd < dist[other]:
                dist[other] = nd
                heapq.heappush(heap, (nd, net.bus_index[other], other))
    return done


def fraction_pair_bounds(net, pairs):
    """bounds.pair_bounds with one Fraction search over the fixed lines per pair."""
    fixed = [i for i, line in enumerate(net.lines) if not line.switchable]
    out = []
    for m, n in pairs:
        sp = fraction_shortest_path_lengths(net, m, fixed).get(n)
        out.append((global_big_m(net), BoundSource.TRIVIAL_M) if sp is None else (sp, BoundSource.SHORTEST_PATH_ACTIVE))
    return out


def brute_cycles(net):
    """Every simple cycle as a sorted tuple of line indices: each line
    subset in which every bus has degree 0 or 2 and whose lines are
    connected, by trying all subsets."""
    found = []
    for size in range(2, len(net.lines) + 1):
        for subset in itertools.combinations(range(len(net.lines)), size):
            degree: dict[str, int] = {}
            for idx in subset:
                for bus in (net.lines[idx].from_bus, net.lines[idx].to_bus):
                    degree[bus] = degree.get(bus, 0) + 1
            if any(d != 2 for d in degree.values()):
                continue
            reached = {net.lines[subset[0]].from_bus}
            grew = True
            while grew:
                grew = False
                for idx in subset:
                    ends = {net.lines[idx].from_bus, net.lines[idx].to_bus}
                    if ends & reached and not ends <= reached:
                        reached |= ends
                        grew = True
            if reached == set(degree):
                found.append(subset)
    return sorted(found)


def bfs_parents(net: Network) -> dict[str, tuple[str, int]]:
    """Network.tree as graph first wrote it, level by level with its own
    reached set: each non-root bus mapped to (parent bus, connecting line)
    in the BFS tree rooted at the lowest-index bus.

    Raises DisconnectedError when the search does not reach every bus.
    """
    root = net.buses[0].id
    parents: dict[str, tuple[str, int]] = {}
    reached = {root}
    frontier = [root]
    while frontier:
        nxt: list[str] = []
        for bus in frontier:
            for idx in net.adjacency[bus]:
                other = net.lines[idx].other(bus)
                if other not in reached:
                    reached.add(other)
                    parents[other] = (bus, idx)
                    nxt.append(other)
        frontier = nxt
    for bus in net.buses:
        if bus.id not in reached:
            raise DisconnectedError(f"bus {bus.id!r} unreachable from {root!r}")
    return parents


def root_walk_cycle_basis(net: Network) -> list[Cycle]:
    """graph.fundamental_cycle_basis as it was first written: both ends
    of each non-tree line walked to the root, the meet found by indexing
    one chain."""
    parents = bfs_parents(net)
    tree = {idx for _, idx in parents.values()}
    depth = {net.buses[0].id: Fraction(0)}
    for bus, (parent, idx) in parents.items():
        depth[bus] = depth[parent] + net.lines[idx].weight

    def chain(bus: str) -> tuple[list[tuple[str, int]], list[str]]:
        edges = []
        while bus in parents:
            parent, idx = parents[bus]
            edges.append((bus, idx))
            bus = parent
        return edges, [child for child, _ in edges] + [bus]

    cycles = []
    for idx, line in enumerate(net.lines):
        if idx in tree:
            continue
        edges_a, buses_a = chain(line.from_bus)
        edges_b, buses_b = chain(line.to_bus)
        pos_a = {bus: k for k, bus in enumerate(buses_a)}
        meet_b = next(k for k, bus in enumerate(buses_b) if bus in pos_a)
        meet_a = pos_a[buses_b[meet_b]]
        bus_seq = [line.from_bus]
        line_seq = []
        for child, tidx in edges_a[:meet_a]:
            line_seq.append(tidx)
            bus_seq.append(net.lines[tidx].other(child))
        for child, tidx in reversed(edges_b[:meet_b]):
            line_seq.append(tidx)
            bus_seq.append(child)
        line_seq.append(idx)
        total = depth[line.from_bus] + depth[line.to_bus] - 2 * depth[buses_b[meet_b]] + line.weight
        cycles.append(_canonical_cycle(net, line_seq, bus_seq, total))
    return cycles


def _arc_walk(net: Network, cycle: Cycle, start: int, stop: int) -> Path:
    """The arc walking forward from position start to position stop."""
    lines = []
    pos = start
    while pos != stop:
        lines.append(cycle.lines[pos])
        pos = (pos + 1) % len(cycle.buses)
    return Path(tuple(lines), sum((net.lines[i].weight for i in lines), Fraction(0)))


def arc_walk_split_cycle(net: Network, cycle: Cycle, m: str, n: str) -> CyclePathPair:
    """graph.split_cycle as it was first written: each arc walked on its
    own, the backward one rebuilt reversed."""
    if m == n:
        raise BusNotOnCycleError("pair buses must be distinct")
    for bus in (m, n):
        if bus not in cycle.buses:
            raise BusNotOnCycleError(f"bus {bus!r} is not on the cycle")
    pos_m, pos_n = cycle.buses.index(m), cycle.buses.index(n)
    forward = _arc_walk(net, cycle, pos_m, pos_n)
    backward = _arc_walk(net, cycle, pos_n, pos_m)
    backward = Path(tuple(reversed(backward.lines)), backward.total_weight)
    if (forward.total_weight, sorted(forward.lines)) <= (backward.total_weight, sorted(backward.lines)):
        shorter, longer = forward, backward
    else:
        shorter, longer = backward, forward
    return CyclePathPair(cycle=cycle, pair=(m, n), shorter=shorter, longer=longer)


def _lp_terms(tokens: Sequence[str]) -> list[tuple[str, Fraction]]:
    """`[+|-] number name` terms, zero placeholders dropped."""
    terms = []
    k = 0
    while k < len(tokens):
        sign = 1
        if tokens[k] in ("+", "-"):
            sign = -1 if tokens[k] == "-" else 1
            k += 1
        value = sign * Fraction(tokens[k])
        if value != 0:
            terms.append((tokens[k + 1], value))
        k += 2
    return terms


def read_lp_text(text: str) -> dict:
    """Read LP text back into exact values, by splitting lines and tokens.

    A scale noted on a row (`\\ scaled by N`) or before the objective
    (`\\ objective scaled by N`) is returned as N, else None; the
    written numbers are the model's times N.  Bounds map each variable
    to (lower, upper) with None for an infinite side.
    """
    lp: dict = {"objective": [], "objective_scale": None, "rows": [], "bounds": {}, "binaries": []}
    section = None
    for line in text.splitlines():
        if line in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            section = line
            continue
        if line.startswith("\\"):
            match = re.fullmatch(r"\\ objective scaled by (\d+)", line)
            if match:
                assert section == "Minimize"
                lp["objective_scale"] = int(match[1])
            continue
        if section == "Minimize":
            assert line.startswith(" obj: ")
            lp["objective"] = _lp_terms(line[len(" obj: ") :].split())
        elif section == "Subject To":
            body, _, note = line.partition("  \\ scaled by ")
            name, _, expr = body.strip().partition(": ")
            tokens = expr.split()
            scale = int(note) if note else None
            lp["rows"].append((name, _lp_terms(tokens[:-2]), tokens[-2], Fraction(tokens[-1]), scale))
        elif section == "Bounds":
            tokens = line.split()
            if len(tokens) == 2 and tokens[1] == "free":
                lp["bounds"][tokens[0]] = (None, None)
            elif len(tokens) == 3 and tokens[1] == "=":
                lp["bounds"][tokens[0]] = (Fraction(tokens[2]), Fraction(tokens[2]))
            else:
                lo, le1, name, le2, hi = tokens
                assert le1 == le2 == "<="
                lp["bounds"][name] = (
                    None if lo == "-inf" else Fraction(lo),
                    None if hi == "+inf" else Fraction(hi),
                )
        elif section == "Binary":
            lp["binaries"].append(line.strip())
        else:
            raise AssertionError(f"unexpected LP line {line!r}")
    assert section == "End"
    return lp


def fixed_binary_lp(model, fixed: Mapping[str, int]) -> LPResult:
    """The exact LP of a MilpModel with the named variables fixed.

    Each fixed variable is substituted into the rows and the objective;
    every other variable's finite bounds become rows.  A fixed value
    outside its variable's bounds makes the LP infeasible.
    """
    for var in model.variables:
        if var.name in fixed and not (
            (var.lower is None or var.lower <= fixed[var.name])
            and (var.upper is None or fixed[var.name] <= var.upper)
        ):
            return LPResult("infeasible")
    free = [var for var in model.variables if var.name not in fixed]
    col = {var.name: k for k, var in enumerate(free)}

    def row(terms, rhs):
        coeffs = [Fraction(0)] * len(free)
        for name, c in terms:
            if name in fixed:
                rhs -= c * fixed[name]
            else:
                coeffs[col[name]] += c
        return coeffs, rhs

    ineqs, eqs = [], []
    for con in model.constraints:
        coeffs, rhs = row(con.coeffs, con.rhs)
        if con.sense == "=":
            eqs.append((coeffs, rhs))
        elif con.sense == "<=":
            ineqs.append((coeffs, rhs))
        else:
            ineqs.append(([-c for c in coeffs], -rhs))
    for var in free:
        if var.upper is not None:
            ineqs.append(row([(var.name, 1)], var.upper))
        if var.lower is not None:
            ineqs.append(row([(var.name, -1)], -var.lower))
    objective, shift = row(model.objective, Fraction(0))
    result = solve_linear_program(len(free), ineqs, eqs, objective)
    if result.status != "optimal":
        return result
    return LPResult("optimal", result.value - shift, result.point)


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


def fraction_matrix_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = work[row][col]
        work[row] = [v / inv for v in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        row += 1
        rank += 1
        if row == len(work):
            break
    return rank


def brute_vertices(rows, dim):
    """Every vertex by enumerating all dim-subsets of tight rows."""
    rows = [([Fraction(c) for c in coeffs], Fraction(b)) for coeffs, b in rows]
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


def exhaustive_cvi(net, cycles, pt, tolerance):
    """All cycles times all nonempty line subsets, by size and then cycle
    position, no pruning; a point missing an entry raises at the first
    nontrivial subset that needs it."""
    found = {}
    for cycle in cycles:
        for r in range(1, len(cycle.lines) + 1):
            for subset in itertools.combinations(cycle.lines, r):
                cut = build_cvi(net, cycle, subset)
                if cut is None:
                    continue
                violation = cvi_violation(net, cut, pt)
                if violation > tolerance:
                    found[(cycle.lines, cut.subset)] = (cut, violation)
    return found


def two_arc_cvi(net, cycles, pt, tolerance):
    """separate_cvi on cycles past CVI_EXHAUSTIVE_CAP, as it was first
    written: each bus pair's longer arc by split_cycle, each arc once, as
    the subset, built and priced by cvi_violation; most violated first,
    ties by cycle and subset."""
    found = {}
    for cycle in cycles:
        arcs = dict.fromkeys(frozenset(split_cycle(net, cycle, m, n).longer.lines)
                             for m, n in itertools.combinations(cycle.buses, 2))
        for arc in arcs:
            cut = build_cvi(net, cycle, arc)
            if cut is None:
                continue
            violation = cvi_violation(net, cut, pt)
            if violation > tolerance:
                found[(cycle.lines, cut.subset)] = (cut, violation)
    return [found[key] for key in sorted(found, key=lambda key: (-found[key][1], key))]


def point_in_hull(point: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    """Exact membership of a point in the convex hull of finitely many points."""
    if not generators:
        return False
    n = len(generators)
    eqs = [([Fraction(g[j]) for g in generators], Fraction(point[j])) for j in range(len(point))]
    eqs.append(([Fraction(1)] * n, Fraction(1)))
    # weights w >= 0, each as the row -w_k <= 0
    signs = [([-1 if k == j else 0 for k in range(n)], 0) for j in range(n)]
    result = solve_linear_program(n, signs, eqs, [0] * n)
    return result.status == "optimal"


# -- helpers only the tests use


def fraction_vertices(vertices: Sequence[tuple[Sequence[int], int]]) -> list[tuple[Fraction, ...]]:
    """Homogeneous integer vertices (x, w), as enumerate_vertices returns
    them, as the points x / w in Fractions, in the same order."""
    return [tuple(Fraction(v, w) for v in x) for x, w in vertices]


def model_rows(columns: Mapping[str, int], constraints, subst: Mapping) -> tuple[list[Row], list[Row]]:
    """The '<=' rows and the '=' rows among constraints under subst
    (variable -> (terms, constant) over the named columns), each as its
    primitive integer row, read one pattern at a time in Fractions: the
    reference for ModelLP's rows, up to a positive factor.  A row left with
    no term stays, as its right-hand side's sign."""
    ineqs, eqs = [], []
    for con in constraints:
        if con.sense not in ("<=", "="):
            raise ValueError(f"row {con.name!r} has sense {con.sense!r}; only '<=' and '=' rows are read")
        coeffs: list[Fraction | int] = [0] * len(columns)
        rhs = con.rhs
        for var, c in con.coeffs:
            if var in subst:
                terms, value = subst[var]
                rhs -= c * value
                terms = [(columns[name], c * d) for name, d in terms.items()]
            else:
                terms = [(columns[var], c)]
            for j, v in terms:
                coeffs[j] += v
        (eqs if con.sense == "=" else ineqs).append(integer_row(coeffs, rhs, f"row {con.name!r}"))
    return ineqs, eqs


def model_bounds(variables) -> list[Row]:
    """The bounds of the variables, the columns in this order, each as a
    dense unit row read through integer_row, an upper, then a lower row per
    variable: the reference for ModelLP's bounds."""
    n = len(variables)
    return [integer_row([sign if k == j else 0 for k in range(n)], sign * bound, f"bound of {var.name!r}")
            for j, var in enumerate(variables) for sign, bound in ((1, var.upper), (-1, var.lower))
            if bound is not None]


def dot(coeffs: Sequence[Fraction], point: Sequence[Fraction]) -> Fraction:
    return sum((Fraction(c) * x for c, x in zip(coeffs, point)), Fraction(0))


class InfeasibleError(AngleCutsError):
    """The linear program has no feasible point."""


def rational_simplex(p, objective: Sequence[Fraction], sense: str = "min"):
    """Exact optimum of a linear objective over an HPolytope.

    Raises InfeasibleError or UnboundedError; otherwise returns the
    optimal value and a witness point.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    sign = 1 if sense == "min" else -1  # a maximum is the negated minimum of the negation
    result = solve_linear_program(p.dim, p.rows, [], [sign * c for c in objective])
    if result.status == "infeasible":
        raise InfeasibleError("no feasible point")
    if result.status == "unbounded":
        raise UnboundedError("objective is unbounded over the polytope")
    return sign * result.value, result.point


def spanning_tree(net: Network) -> frozenset[int]:
    """Lines of the BFS spanning tree rooted at the lowest-index bus, the
    tree the fundamental cycle basis is built on."""
    return frozenset(idx for _, idx in bfs_parents(net).values())


def with_all_lines_fixed(net: Network) -> Network:
    """Copy with every line non-switchable (y fixed to 1)."""
    return Network(net.buses, tuple(dataclasses.replace(line, switchable=False) for line in net.lines))


# -- the dense exact simplex: the reference for the sparse pivot kernel


def dense_pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pivot_row = tableau[row]
    inv = pivot_row[col]
    if inv != 1:
        tableau[row] = pivot_row = [v / inv for v in pivot_row]
    support = [(j, v) for j, v in enumerate(pivot_row) if v]  # a - factor * 0 is a: only these columns change
    for r, other in enumerate(tableau):
        if r == row:
            continue
        factor = other[col]
        if factor:
            tableau[r] = other = list(other)
            for j, v in support:
                other[j] -= factor * v
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
    n_vars: int, ineqs: Sequence[Row], eqs: Sequence[Row], objective: Sequence[Fraction]
) -> LPResult:
    """Minimize objective . x over free x subject to {a.x <= b} and {a.x == b} rows.

    Free variables are split internally.  Each row is divided by the
    magnitude of its leading coefficient (an emptied row by its
    right-hand side's), so slacks and artificials count in the units the
    integer kernel gives them.  Returns an exact optimal value and a
    witness point, or the infeasible/unbounded status.
    """
    obj = [Fraction(c) for c in objective]
    width = 2 * n_vars

    def expand(coeffs: Sequence[Fraction]) -> list[Fraction]:
        return [Fraction(c) for c in coeffs] + [Fraction(-c) for c in coeffs]

    # columns: structural, one slack per inequality, one artificial per row
    # whose slack cannot start basic (an equality, or a negative rhs)
    n_slack = len(ineqs)
    rows = []
    for i, (coeffs, b) in enumerate((*ineqs, *eqs)):
        lead = abs(next((v for v in (*coeffs, b) if v), 1))
        rows.append(([Fraction(c) / lead for c in coeffs], Fraction(b) / lead, i < n_slack))
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
    point = tuple(values[j] - values[n_vars + j] for j in range(n_vars))
    value = sum((c * x for c, x in zip(obj, point)), Fraction(0))
    return LPResult("optimal", value, point)


def eliminate_equalities(
    n_vars: int, ineqs: Sequence[Row], eqs: Sequence[Row], objective: Sequence[Fraction]
) -> tuple[list[int], list[Row], list[int], list[tuple[int, list[Fraction], Fraction]]] | None:
    """solve_linear_program's front in Fractions: in order, each equality is
    divided by its entry at its first nonzero column and substituted into the
    rows after it, the inequalities and the objective.  Returns the columns
    left, the inequalities over them that keep a coefficient, the objective
    over them and each (column, equality) solved, in order; None when an
    equality 0 = c != 0 or an inequality 0 <= b < 0 is left.  The objective,
    c . x - d after the substitutions, is returned as the kernel reads it, the
    primitive integer row of (c, d) without d, a positive multiple of it."""
    rows = [([Fraction(c) for c in a], Fraction(b)) for a, b in ineqs]
    pending = [([Fraction(c) for c in a], Fraction(b)) for a, b in eqs]
    obj = ([Fraction(c) for c in objective], Fraction(0))
    solved = []
    while pending:
        a, b = pending.pop(0)
        j = next((j for j, v in enumerate(a) if v), None)
        if j is None:
            if b:
                return None
            continue
        a, b = [v / a[j] for v in a], b / a[j]

        def substitute(c: list[Fraction], d: Fraction) -> tuple[list[Fraction], Fraction]:
            return [ck - c[j] * ak for ck, ak in zip(c, a)], d - c[j] * b

        rows, pending = [substitute(*row) for row in rows], [substitute(*row) for row in pending]
        obj = substitute(*obj)
        solved.append((j, a, b))
    left = sorted(set(range(n_vars)) - {j for j, _, _ in solved})
    rows = [([c[j] for j in left], d) for c, d in rows]
    if any(d < 0 and not any(c) for c, d in rows):
        return None
    objective, _ = integer_row([obj[0][j] for j in left], obj[1], "the objective")
    return left, [(c, d) for c, d in rows if any(c)], objective, solved


def eliminated_solve_linear_program(
    n_vars: int, ineqs: Sequence[Row], eqs: Sequence[Row], objective: Sequence[Fraction]
) -> LPResult:
    """The Fraction mirror of solve_linear_program: eliminate_equalities, the
    reduced LP on dense_solve_linear_program, then the eliminated columns
    back-substituted in reverse order; the value is the objective there."""
    reduced = eliminate_equalities(n_vars, ineqs, eqs, objective)
    if reduced is None:
        return LPResult("infeasible")
    left, rows, obj, solved = reduced
    result = dense_solve_linear_program(len(left), rows, [], obj)
    if result.status != "optimal":
        return result
    x = dict(zip(left, result.point))
    for j, a, b in reversed(solved):
        x[j] = b - sum((a[k] * x[k] for k in range(n_vars) if k != j and a[k]), Fraction(0))
    point = tuple(x[j] for j in range(n_vars))
    return LPResult("optimal", sum((Fraction(c) * v for c, v in zip(objective, point)), Fraction(0)), point)


def sequential_front_solve_linear_program(
    n_vars: int, ineqs: Sequence[Row], eqs: Sequence[Row], objective: Sequence[Fraction]
) -> LPResult:
    """solve_linear_program with its sequential integer front: in order, each
    equality is solved for its first nonzero column, taken positive, and that
    column is cleared from every other row, the equalities still pending and the
    objective at once, by one fraction-free combination each; the reduced LP goes
    to the same tableau kernel, and the eliminated columns are back-substituted in
    reverse order."""
    def scaled(coeffs, rhs, where):
        if len(coeffs) != n_vars:
            raise ValueError(f"{where}: width {len(coeffs)}, expected {n_vars}")
        nums, b = integer_row(coeffs, rhs, where)
        return (*nums, b)

    rows = [scaled(a, b, f"inequality {i}") for i, (a, b) in enumerate(ineqs)] + [scaled(objective, 0, "the objective")]
    pending = [scaled(a, b, f"equality {i}") for i, (a, b) in enumerate(eqs)]
    solved = []
    while pending:
        eq = pending.pop(0)
        if (j := next((j for j, v in enumerate(eq[:-1]) if v), None)) is None:
            if eq[-1]:
                return LPResult("infeasible")
            continue
        eq = eq if eq[j] > 0 else tuple(-v for v in eq)
        for group in (rows, pending):
            group[:] = [_combination(eq[j] // (g := gcd(eq[j], row[j])), row, row[j] // g, eq) if row[j] else row
                        for row in group]
        solved.append((j, eq))
    left = sorted(set(range(n_vars)) - {j for j, _ in solved})
    *rows, (obj, _) = [([row[j] for j in left], row[-1]) for row in rows]
    status, values = _solve_inequalities(rows, obj)
    if values is None:
        return LPResult(status)
    x = dict(zip(left, values))
    for j, eq in reversed(solved):
        x[j] = Fraction(eq[-1] - sum(v * x[k] for k, v in enumerate(eq[:-1]) if v and k != j), eq[j])
    point = tuple(x[j] for j in range(n_vars))
    return LPResult("optimal", sum((Fraction(c) * v for c, v in zip(objective, point)), Fraction(0)), point)


def full_search_cycle_order(net: Network) -> list[tuple[int, ...]]:
    """The line sequence of each simple cycle in the order all_simple_cycles
    first closes it, by the same DFS with a full reachability search from the
    start bus at every state, the search the stopped one replaced."""
    order, found = net.bus_index, {}

    def returnable(start: str, on_path: set[str]) -> set[str]:
        reached, todo = set(), [start]
        while todo:
            here = todo.pop()
            for idx in net.adjacency[here]:
                other = net.lines[idx].other(here)
                if other not in reached and other not in on_path and order[other] >= order[start]:
                    reached.add(other)
                    todo.append(other)
        return reached

    for start_bus in [b.id for b in net.buses]:
        stack = [(start_bus, [], [start_bus])]
        while stack:
            bus, line_seq, bus_seq = stack.pop()
            reach = returnable(start_bus, set(bus_seq))
            for idx in net.adjacency[bus]:
                if idx in line_seq:
                    continue
                other = net.lines[idx].other(bus)
                if other == start_bus:
                    found.setdefault(frozenset(line_seq + [idx]), tuple(line_seq + [idx]))
                elif other in reach:
                    stack.append((other, line_seq + [idx], bus_seq + [other]))
    return list(found.values())
