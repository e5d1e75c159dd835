"""Valid-inequality records and separation.

Two families over a cycle of the network:

* the path-based inequality of a cycle split at a bus pair, which bounds
  the pair's angle difference and tightens as lines on either arc are
  switched off (``CutCPVI``);
* the older flow-space inequality that bounds the reactance-weighted
  flow over any line subset of the cycle (``CutCVI``).

Both separators scan the cycles through one fractional-cycle filter,
price each candidate once, build only the cuts they return, exactly
those violated by more than the tolerance (at least 0), and rank them
most violated first.  cpvi scales the weights, angles,
M and tolerance to integers over one denominator and 1 - y over another,
once per call, and grows the lighter arc S from every anchor bus,
stopping once twice the arc weight passes the cycle's.  A pair whose
angle spread is at most w_S is screened out; for the rest the walk
tests the spread against the cut's right-hand side at the point,
w_S + (w_L - w_S) a_S + (M - w_L) a_L with a_X the sum of 1 - y over
arc X, and builds only violated cuts.  For cvi, with
K = |C| - 1 - sum of y over C, either sign's violation is modular in the
subset S: sum over S of (+-s_i f_i x_i - w_i (2K + y_i)) + w(C) K.  A
depth-first search over the lines drops a subtree when neither sign's
sum plus the positive terms ahead can pass the tolerance, or when the
weight still reachable cannot pass w(C)/2; a subset's violation is the
larger sum that proved it.  Past CVI_EXHAUSTIVE_CAP lines only each bus
pair's longer arc is a subset, priced by cvi_violation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    InvalidBigMError,
    MissingVariableError,
    ParseError,
    SubsetNotInCycleError,
)
from .graph import Cycle, CyclePathPair, cycle_orientation_signs, split_cycle
from .network import Network, line_index
from .rational import format_rational, integer_row, is_exact, parse_rational

__all__ = [
    "CutCPVI",
    "CutCVI",
    "FractionalPoint",
    "SeparationConfig",
    "build_cpvi",
    "build_cvi",
    "check_big_m",
    "cpvi_violation",
    "cvi_violation",
    "separate_cpvi",
    "separate_cvi",
    "cpvi_to_json",
    "cvi_to_json",
    "cpvi_from_json",
    "cvi_from_json",
]

# cycles with more lines than this get only their two-arc partitions
# as flow-space cut subsets, not every subset
CVI_EXHAUSTIVE_CAP = 12


def _rhs_at(cut: CutCPVI | CutCVI, y: Mapping[int, Fraction]) -> Fraction:
    """constant + sum of y_coeffs * y; every cycle line needs a y value."""
    total = cut.constant
    for line, coeff in cut.y_coeffs:
        if line not in y:
            raise MissingVariableError(f"point has no y value for line {line}")
        total += coeff * y[line]
    return total


@dataclass(frozen=True, eq=True)
class CutCPVI:
    """|theta_n - theta_m| <= constant + sum over cycle lines of y_coeffs * y."""

    pair: CyclePathPair
    big_m: Fraction
    delta_rho: Fraction
    delta_m: Fraction
    constant: Fraction
    y_coeffs: tuple[tuple[int, Fraction], ...]  # (line index, coefficient), sorted

    rhs_at = _rhs_at


@dataclass(frozen=True, eq=True)
class CutCVI:
    """|sum over S of sign * f * x| <= constant + sum over cycle lines of y_coeffs * y."""

    cycle: Cycle
    subset: tuple[int, ...]  # sorted line indices
    delta_s: Fraction
    flow_signs: tuple[tuple[int, int], ...]  # (line, +-1) for lines in S, cycle-oriented
    constant: Fraction
    y_coeffs: tuple[tuple[int, Fraction], ...]

    rhs_at = _rhs_at


@dataclass(frozen=True)
class FractionalPoint:
    """An LP point to separate: angles by bus id, y in [0, 1] (and
    optionally f) by line index."""

    theta: Mapping[str, Fraction]
    y: Mapping[int, Fraction]
    f: Mapping[int, Fraction] | None = None

    def __post_init__(self) -> None:
        for name in ("theta", "y", "f"):
            for key, value in (getattr(self, name) or {}).items():
                if not is_exact(value):
                    raise ValueError(f"point {name}[{key!r}] = {value!r} is not an exact rational")
        for key, value in self.y.items():
            if not 0 <= value <= 1:
                raise ValueError(f"point y[{key!r}] = {value} is outside [0, 1]")


@dataclass(frozen=True)
class SeparationConfig:
    tolerance: Fraction = Fraction(0)  # at least 0: the screens prove violation <= 0
    fractional_cycles_only: bool = False

    def __post_init__(self) -> None:
        if not is_exact(self.tolerance) or self.tolerance < 0:
            raise ValueError(f"tolerance {self.tolerance} is not an exact rational of at least 0")


def check_big_m(pair: CyclePathPair, big_m: Fraction) -> None:
    """Refuse a big-M below the pair's longer arc weight, under which its cut and lifted system are not valid."""
    if big_m < (weight := pair.longer.total_weight):
        raise InvalidBigMError(f"big-M {big_m} is below the longer-path weight {weight} for pair {'-'.join(pair.pair)}")


def build_cpvi(pair: CyclePathPair, big_m: Fraction) -> CutCPVI:
    """Assemble the path-based cut for a split cycle under the given big-M.

    Requires big_m >= the longer arc's weight, which only keeps both slope
    coefficients nonnegative.  The inequality is valid when big_m also
    bounds |theta_n - theta_m| under every topology: the global M, or the
    pair's bounds.pair_bound, the floor `emit --cuts` enforces.
    """
    check_big_m(pair, big_m)
    w_short = pair.shorter.total_weight
    w_long = pair.longer.total_weight
    delta_rho = w_long - w_short
    delta_m = big_m - w_long
    constant = w_short + len(pair.shorter.lines) * delta_rho + len(pair.longer.lines) * delta_m
    coeffs: dict[int, Fraction] = {}
    for line in pair.shorter.lines:
        coeffs[line] = -delta_rho
    for line in pair.longer.lines:
        coeffs[line] = -delta_m
    return CutCPVI(
        pair=pair,
        big_m=big_m,
        delta_rho=delta_rho,
        delta_m=delta_m,
        constant=constant,
        y_coeffs=tuple(sorted(coeffs.items())),
    )


def build_cvi(net: Network, cycle: Cycle, subset: Iterable[int]) -> CutCVI | None:
    """Assemble the flow-space cut for a line subset of the cycle.

    Returns None when the subset's weight does not exceed half the cycle
    weight (the inequality would be trivial).
    """
    chosen = set(subset)
    if not chosen:
        raise SubsetNotInCycleError("subset must be nonempty")
    cycle_lines = set(cycle.lines)
    stray = chosen - cycle_lines
    if stray:
        raise SubsetNotInCycleError(f"lines {sorted(stray)} are not on the cycle")
    w_s = sum((net.lines[i].weight for i in chosen), Fraction(0))
    delta_s = w_s - (cycle.total_weight - w_s)
    if delta_s <= 0:
        return None
    signs = cycle_orientation_signs(net, cycle)
    coeffs: dict[int, Fraction] = {}
    for line in cycle.lines:
        if line in chosen:
            coeffs[line] = -(delta_s - net.lines[line].weight)
        else:
            coeffs[line] = -delta_s
    return CutCVI(
        cycle=cycle,
        subset=tuple(sorted(chosen)),
        delta_s=delta_s,
        flow_signs=tuple(sorted((i, signs[i]) for i in chosen)),
        constant=delta_s * (len(cycle.lines) - 1),
        y_coeffs=tuple(sorted(coeffs.items())),
    )


def _angles(theta: Mapping, buses: Iterable[str]) -> list:
    """The angles at the buses; raises for the first without one."""
    for bus in buses:
        if bus not in theta:
            raise MissingVariableError(f"point has no angle for bus {bus!r}")
    return [theta[bus] for bus in buses]


def cpvi_violation(cut: CutCPVI, pt: FractionalPoint) -> Fraction:
    """|angle difference| minus the cut's right-hand side; positive means violated."""
    theta_m, theta_n = _angles(pt.theta, cut.pair.pair)
    return abs(theta_n - theta_m) - cut.rhs_at(pt.y)


def cvi_violation(net: Network, cut: CutCVI, pt: FractionalPoint) -> Fraction:
    """|oriented flow-reactance sum over S| minus the right-hand side."""
    if pt.f is None:
        raise MissingVariableError("point carries no flows; the flow-space cut needs f values")
    lhs = Fraction(0)
    for line, sign in cut.flow_signs:
        if line not in pt.f:
            raise MissingVariableError(f"point has no flow for line {line}")
        lhs += sign * pt.f[line] * net.lines[line].reactance
    return abs(lhs) - cut.rhs_at(pt.y)


def _scanned(cycles: Sequence[Cycle], pt: FractionalPoint, config: SeparationConfig) -> Iterable[Cycle]:
    """The cycles to separate over: with fractional_cycles_only, those with a line at a fractional y."""
    return (c for c in cycles if not config.fractional_cycles_only or any(0 < pt.y.get(i, 0) < 1 for i in c.lines))


def _ranked(found: Mapping[tuple, tuple]) -> list:
    """The (cut, violation) pairs, most violated first, then by their distinct keys."""
    return [found[key] for key in sorted(found, key=lambda key: (-found[key][1], key))]


def separate_cpvi(
    net: Network,
    cycles: Sequence[Cycle],
    pt: FractionalPoint,
    config: SeparationConfig = SeparationConfig(),
) -> list[tuple[CutCPVI, Fraction]]:
    """Find violated path-based cuts at a fractional point, by the exact arc
    walk of the module docstring.  Returns (cut, violation) pairs with
    violation above the tolerance, most violated first.  Of two equal arcs,
    the one holding the cycle's smallest line is the shorter, as in
    split_cycle.  A missing angle raises when its cycle is reached, a
    missing y (the cycle's smallest) once a pair of its cycle passes the
    spread screen.
    """
    from .bounds import global_big_m

    big_m = global_big_m(net)
    # weights, angles, M and the tolerance over their least common denominator, 1 - y over its own
    scaled, scale = integer_row([big_m, config.tolerance, *pt.theta.values(), *(line.weight for line in net.lines)], 1, "point")
    (m_scaled, tolerance), theta, weight_of = scaled[:2], dict(zip(pt.theta, scaled[2:])), scaled[2 + len(pt.theta) :]
    scaled, slack_scale = integer_row([1 - v for v in pt.y.values()], 1, "point")
    slack_of, tolerance = dict(zip(pt.y, scaled)), tolerance * slack_scale
    found: dict[tuple, tuple] = {}  # by cycle lines and pair: a cycle listed twice gives its cuts once
    for cycle in _scanned(cycles, pt, config):
        size = len(cycle.buses)
        angles = _angles(theta, cycle.buses)
        weights = [weight_of[i] for i in cycle.lines]
        slacks = [slack_of.get(i, 0) for i in cycle.lines]
        missing = min((i for i in cycle.lines if i not in slack_of), default=None)
        first = cycle.lines.index(min(cycle.lines))
        total, total_slack = sum(weights), sum(slacks)
        for anchor_pos in range(size):
            arc_weight = arc_slack = 0
            for step in range(1, size):
                pos = (anchor_pos + step) % size
                arc_weight += weights[pos - 1]
                arc_slack += slacks[pos - 1]
                if 2 * arc_weight > total:
                    break
                spread = abs(angles[pos] - angles[anchor_pos])
                if spread <= arc_weight:
                    continue  # the spread screen: for y in [0, 1] the right-hand side is at least w_S
                if missing is not None:
                    raise MissingVariableError(f"point has no y value for line {missing}")
                if 2 * arc_weight == total and (first - anchor_pos) % size >= step:
                    continue  # the longer of two equal arcs: the pair is met from its other end
                short_part = arc_weight * slack_scale + (total - 2 * arc_weight) * arc_slack  # w_S + drho a_S
                long_part = (m_scaled - total + arc_weight) * (total_slack - arc_slack)  # dm a_L
                excess = spread * slack_scale - short_part - long_part
                if excess > tolerance:
                    key = (cycle.lines, *sorted((cycle.buses[anchor_pos], cycle.buses[pos]), key=net.bus_index.__getitem__))
                    if key not in found:
                        found[key] = (build_cpvi(split_cycle(net, cycle, *key[1:]), big_m), Fraction(excess, scale * slack_scale))
    return _ranked(found)


def _violated_cuts(net: Network, cycle: Cycle, pt: FractionalPoint, tolerance: Fraction) -> list[tuple[CutCVI, Fraction]]:
    """The cycle's nontrivial cuts violated by more than the tolerance, with
    their violations.  Past the cap, each bus pair's longer arc, each once,
    priced by cvi_violation; else the module docstring's search, in
    integers, whose larger sum at a subset is its violation less the tolerance."""
    found: list[tuple[CutCVI, Fraction]] = []
    if len(cycle.lines) > CVI_EXHAUSTIVE_CAP:
        pairs = itertools.combinations(cycle.buses, 2)
        for arc in dict.fromkeys(frozenset(split_cycle(net, cycle, m, n).longer.lines) for m, n in pairs):
            cut = build_cvi(net, cycle, arc)
            if cut is not None and (violation := cvi_violation(net, cut, pt)) > tolerance:
                found.append((cut, violation))
        return found
    _check_cvi_entries(net, cycle, pt)
    lines, size = cycle.lines, len(cycle.lines)
    signs = cycle_orientation_signs(net, cycle)
    k = size - 1 - sum((pt.y[i] for i in lines), Fraction(0))
    flows = [signs[i] * pt.f[i] * net.lines[i].reactance for i in lines]
    slopes = [net.lines[i].weight * (2 * k + pt.y[i]) for i in lines]
    scaled, scale = integer_row([*(f - a for f, a in zip(flows, slopes)), *(-f - a for f, a in zip(flows, slopes)),
                                 *(net.lines[i].weight for i in lines), cycle.total_weight * k - tolerance], 1, "point")
    plus, minus, weights, base = scaled[:size], scaled[size : 2 * size], scaled[2 * size : -1], scaled[-1]
    # what lines j on can still add: each sign's positive terms, and weight
    ahead = [(sum(max(v, 0) for v in plus[j:]), sum(max(v, 0) for v in minus[j:]), sum(weights[j:])) for j in range(size + 1)]
    total = ahead[0][2]

    def walk(j: int, chosen: tuple[int, ...], sum_plus: int, sum_minus: int, weight: int) -> None:
        up_plus, up_minus, up_weight = ahead[j]
        if (sum_plus + up_plus <= 0 and sum_minus + up_minus <= 0) or 2 * (weight + up_weight) <= total:
            return
        if j == size:
            found.append((build_cvi(net, cycle, chosen), Fraction(max(sum_plus, sum_minus), scale) + tolerance))
        else:
            walk(j + 1, chosen + (lines[j],), sum_plus + plus[j], sum_minus + minus[j], weight + weights[j])
            walk(j + 1, chosen, sum_plus, sum_minus, weight)

    walk(0, (), base, base, 0)
    return found


def _check_cvi_entries(net: Network, cycle: Cycle, pt: FractionalPoint) -> None:
    """Raise what cvi_violation raises first over the cycle's nontrivial
    subsets by size, then cycle position.  The whole cycle is nontrivial,
    so a missing entry always raises."""
    if pt.f is None:
        raise MissingVariableError("point carries no flows; the flow-space cut needs f values")
    no_y = sorted(i for i in cycle.lines if i not in pt.y)
    if not no_y and all(i in pt.f for i in cycle.lines):
        return
    for r in range(1, len(cycle.lines) + 1):
        for subset in itertools.combinations(cycle.lines, r):
            no_f = sorted(i for i in subset if i not in pt.f)
            if (no_f or no_y) and 2 * sum(net.lines[i].weight for i in subset) > cycle.total_weight:
                gap = f"flow for line {no_f[0]}" if no_f else f"y value for line {no_y[0]}"
                raise MissingVariableError(f"point has no {gap}")


def separate_cvi(
    net: Network,
    cycles: Sequence[Cycle],
    pt: FractionalPoint,
    config: SeparationConfig = SeparationConfig(),
) -> list[tuple[CutCVI, Fraction]]:
    """Find violated flow-space cuts at a fractional point carrying flows,
    by the module docstring's search: (cut, violation) pairs with violation
    above the tolerance, most violated first.  Past CVI_EXHAUSTIVE_CAP
    lines a cycle gives only its two-arc cuts, priced by cvi_violation."""
    found = {(cycle.lines, cut.subset): (cut, violation)
             for cycle in _scanned(cycles, pt, config) for cut, violation in _violated_cuts(net, cycle, pt, config.tolerance)}
    return _ranked(found)


def _to_json(kind: str, cycle: Cycle, cut: CutCPVI | CutCVI, violation: Fraction | None, **fields) -> dict:
    """A cut's JSON object: its kind and cycle, the family's own fields, then constant, y_coeffs and any violation."""
    obj = {"kind": kind, "cycle_lines": list(cycle.lines), "cycle_buses": list(cycle.buses), **fields,
           "constant": format_rational(cut.constant), "y_coeffs": {str(line): format_rational(c) for line, c in cut.y_coeffs}}
    if violation is not None:
        obj["violation"] = format_rational(violation)
    return obj


def cpvi_to_json(cut: CutCPVI, violation: Fraction | None = None) -> dict:
    pair = cut.pair
    return _to_json("cpvi", pair.cycle, cut, violation, pair=list(pair.pair), shorter_lines=list(pair.shorter.lines),
                    longer_lines=list(pair.longer.lines), big_m=format_rational(cut.big_m),
                    delta_rho=format_rational(cut.delta_rho), delta_m=format_rational(cut.delta_m))


def cvi_to_json(cut: CutCVI, violation: Fraction | None = None) -> dict:
    return _to_json("cvi", cut.cycle, cut, violation, subset=list(cut.subset), delta_s=format_rational(cut.delta_s),
                    flow_signs={str(line): sign for line, sign in cut.flow_signs})


def _require_fields(obj: dict, kind: str, fields: Sequence[str]) -> None:
    for name in fields:
        if name not in obj:
            raise ParseError(f"{kind} cut has no {name!r} field")


def _line_list(net: Network, obj: dict, kind: str, name: str) -> tuple[int, ...]:
    """A nonempty JSON list of distinct in-range line indices."""
    value = obj[name]
    if not isinstance(value, list) or not value:
        raise ParseError(f"{kind} cut: {name!r} must be a nonempty list of line indices")
    for idx in value:
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise ParseError(f"{kind} cut: {name!r} entry {idx!r} is not a line index")
        if not 0 <= idx < len(net.lines):
            raise ParseError(f"{kind} cut: {name!r} line index {idx} out of range")
    if len(set(value)) != len(value):
        raise ParseError(f"{kind} cut: {name!r} repeats a line")
    return tuple(value)


def _rebuild_cycle(net: Network, obj: dict, kind: str) -> Cycle:
    """The stored cycle, checked to be a closed walk of the network:
    cycle_lines[k] joins cycle_buses[k] and the next bus, the last line
    returning to the first bus."""
    lines = _line_list(net, obj, kind, "cycle_lines")
    buses = obj["cycle_buses"]
    if not isinstance(buses, list) or len(buses) != len(lines) or len(lines) < 2:
        raise ParseError(f"{kind} cut: 'cycle_buses' must list one bus per cycle line, at least two")
    if not all(isinstance(b, str) for b in buses) or len(set(buses)) != len(buses):
        raise ParseError(f"{kind} cut: 'cycle_buses' must be distinct bus ids")
    for k, idx in enumerate(lines):
        here, after = buses[k], buses[(k + 1) % len(buses)]
        if net.lines[idx].endpoints() != {here, after}:
            raise ParseError(f"{kind} cut: 'cycle_lines' line {idx} does not join cycle_buses {here!r} and {after!r}")
    total = sum((net.lines[i].weight for i in lines), Fraction(0))
    return Cycle(lines, tuple(buses), total)


def _line_keyed(obj: dict, kind: str, name: str) -> dict[int, object]:
    """A JSON object keyed by line index, such as 'y_coeffs' or 'flow_signs'."""
    value = obj[name]
    if not isinstance(value, dict):
        raise ParseError(f"{kind} cut: {name!r} must be an object keyed by line index")
    where = f"{kind} cut: {name!r}"
    return {line_index(key, where): entry for key, entry in value.items()}


def _y_coeffs(obj: dict, kind: str) -> dict[int, Fraction]:
    return {line: parse_rational(c, f"y_coeffs[{line}]") for line, c in _line_keyed(obj, kind, "y_coeffs").items()}


def _check_stored(kind: str, name: str, stored: object, rebuilt: object) -> None:
    if stored != rebuilt:
        raise ParseError(f"{kind} cut: {name!r} does not match the cut rebuilt from its provenance")


def cpvi_from_json(net: Network, obj: dict) -> CutCPVI:
    """Rebuild a path-based cut from its provenance; re-derives and verifies."""
    _require_fields(obj, "cpvi", ("cycle_lines", "cycle_buses", "pair", "big_m", "y_coeffs", "constant"))
    cycle = _rebuild_cycle(net, obj, "cpvi")
    ends = obj["pair"]
    if not (
        isinstance(ends, list)
        and len(ends) == 2
        and all(isinstance(b, str) and b in cycle.buses for b in ends)
        and ends[0] != ends[1]
    ):
        raise ParseError("cpvi cut: 'pair' must list two distinct buses of 'cycle_buses'")
    pair = split_cycle(net, cycle, *ends)
    try:
        cut = build_cpvi(pair, parse_rational(obj["big_m"], "big_m"))
    except InvalidBigMError as exc:  # bad input here, not a library caller's invalid big-M
        raise ParseError(f"cpvi cut: 'big_m': {exc}") from exc
    _check_stored("cpvi", "y_coeffs", _y_coeffs(obj, "cpvi"), dict(cut.y_coeffs))
    _check_stored("cpvi", "constant", parse_rational(obj["constant"], "constant"), cut.constant)
    # derived fields are optional, but checked when present
    for name, value in (("delta_rho", cut.delta_rho), ("delta_m", cut.delta_m)):
        if name in obj:
            _check_stored("cpvi", name, parse_rational(obj[name], name), value)
    for name, path in (("shorter_lines", pair.shorter), ("longer_lines", pair.longer)):
        if name in obj:
            _check_stored("cpvi", name, _line_list(net, obj, "cpvi", name), path.lines)
    return cut


def cvi_from_json(net: Network, obj: dict) -> CutCVI:
    """Rebuild a flow-space cut from its provenance; re-derives and verifies."""
    _require_fields(obj, "cvi", ("cycle_lines", "cycle_buses", "subset", "flow_signs", "y_coeffs", "constant"))
    cycle = _rebuild_cycle(net, obj, "cvi")
    subset = _line_list(net, obj, "cvi", "subset")
    if not set(subset) <= set(cycle.lines):
        raise ParseError("cvi cut: 'subset' lists a line that is not on the cycle")
    cut = build_cvi(net, cycle, subset)
    if cut is None:
        raise ParseError("cvi cut: 'subset' weighs at most half the cycle, so its cut is trivial")
    # a sign is an int: JSON true or 1.0 compare equal to 1 but are not signs
    signs = {line: s if type(s) is int else None for line, s in _line_keyed(obj, "cvi", "flow_signs").items()}
    _check_stored("cvi", "flow_signs", signs, dict(cut.flow_signs))
    _check_stored("cvi", "y_coeffs", _y_coeffs(obj, "cvi"), dict(cut.y_coeffs))
    _check_stored("cvi", "constant", parse_rational(obj["constant"], "constant"), cut.constant)
    if "delta_s" in obj:
        _check_stored("cvi", "delta_s", parse_rational(obj["delta_s"], "delta_s"), cut.delta_s)
    return cut
