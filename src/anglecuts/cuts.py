"""Valid-inequality records and separation.

Two families over a cycle of the network:

* the path-based inequality of a cycle split at a bus pair, which bounds
  the pair's angle difference and tightens as lines on either arc are
  switched off (``CutCPVI``);
* the older flow-space inequality that bounds the reactance-weighted
  flow over any line subset of the cycle (``CutCVI``).

Separation walks each cycle from every anchor bus, growing the candidate
lighter arc, with a screening test and a half-weight stopping rule.
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
from .network import Network
from .rational import format_rational, parse_rational

__all__ = [
    "CutCPVI",
    "CutCVI",
    "FractionalPoint",
    "SeparationConfig",
    "build_cpvi",
    "build_cvi",
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

    def coeff_map(self) -> dict[int, Fraction]:
        return dict(self.y_coeffs)

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
    """An LP point to separate: angles by bus id, y (and optionally f) by line index."""

    theta: Mapping[str, Fraction]
    y: Mapping[int, Fraction]
    f: Mapping[int, Fraction] | None = None


@dataclass(frozen=True)
class SeparationConfig:
    tolerance: Fraction = Fraction(0)
    fractional_cycles_only: bool = False


def build_cpvi(pair: CyclePathPair, big_m: Fraction) -> CutCPVI:
    """Assemble the path-based cut for a split cycle under the given big-M.

    Requires big_m >= the longer arc's weight, so both slope coefficients
    are nonnegative and the inequality is valid.
    """
    w_short = pair.shorter.total_weight
    w_long = pair.longer.total_weight
    if big_m < w_long:
        raise InvalidBigMError(
            f"big-M {big_m} is below the longer-path weight {w_long} for pair {pair.pair}"
        )
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


def _angle_difference(cut: CutCPVI, pt: FractionalPoint) -> Fraction:
    m, n = cut.pair.pair
    for bus in (m, n):
        if bus not in pt.theta:
            raise MissingVariableError(f"point has no angle for bus {bus!r}")
    return pt.theta[n] - pt.theta[m]


def cpvi_violation(cut: CutCPVI, pt: FractionalPoint) -> Fraction:
    """|angle difference| minus the cut's right-hand side; positive means violated."""
    diff = _angle_difference(cut, pt)
    return abs(diff) - cut.rhs_at(pt.y)


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


def _cycle_is_promising(cycle: Cycle, pt: FractionalPoint) -> bool:
    for line in cycle.lines:
        value = pt.y.get(line)
        if value is not None and 0 < value < 1:
            return True
    return False


def _sort_key(entry):
    cut, violation = entry
    if isinstance(cut, CutCPVI):
        tie = (cut.pair.cycle.lines, cut.pair.pair)
    else:
        tie = (cut.cycle.lines, cut.subset)
    return (-violation, tie)


def separate_cpvi(
    net: Network,
    cycles: Sequence[Cycle],
    pt: FractionalPoint,
    config: SeparationConfig = SeparationConfig(),
) -> list[tuple[CutCPVI, Fraction]]:
    """Find violated path-based cuts at a fractional point.

    For every cycle and anchor bus the candidate lighter arc grows one
    line at a time; growth stops once its weight passes half the cycle
    weight (the complementary arc is then found from the other anchor).
    A cut is only evaluated when the point's angle spread across the pair
    already exceeds the arc weight, which is necessary for violation.
    Returns (cut, violation) pairs with violation above the tolerance,
    most violated first.
    """
    from .bounds import global_big_m

    big_m = global_big_m(net)
    found: dict[tuple, tuple[CutCPVI, Fraction]] = {}
    for cycle in cycles:
        if config.fractional_cycles_only and not _cycle_is_promising(cycle, pt):
            continue
        half = cycle.total_weight / 2
        size = len(cycle.buses)
        for anchor_pos in range(size):
            m = cycle.buses[anchor_pos]
            if m not in pt.theta:
                raise MissingVariableError(f"point has no angle for bus {m!r}")
            arc_weight = Fraction(0)
            for step in range(1, size):
                pos = (anchor_pos + step) % size
                arc_weight += net.lines[cycle.lines[(anchor_pos + step - 1) % size]].weight
                if arc_weight > half:
                    break
                n = cycle.buses[pos]
                if n not in pt.theta:
                    raise MissingVariableError(f"point has no angle for bus {n!r}")
                if abs(pt.theta[n] - pt.theta[m]) <= arc_weight:
                    continue  # screening: the cut cannot be violated here
                key = (cycle.lines, frozenset((m, n)))
                if key in found:
                    continue
                lo, hi = sorted((m, n), key=net.bus_index.__getitem__)
                pair = split_cycle(net, cycle, lo, hi)
                cut = build_cpvi(pair, big_m)
                violation = cpvi_violation(cut, pt)
                if violation > config.tolerance:
                    found[key] = (cut, violation)
    return sorted(found.values(), key=_sort_key)


def _cvi_subsets(net: Network, cycle: Cycle) -> Iterable[frozenset[int]]:
    size = len(cycle.lines)
    if size <= CVI_EXHAUSTIVE_CAP:
        for r in range(1, size + 1):
            for combo in itertools.combinations(cycle.lines, r):
                yield frozenset(combo)
    else:
        # past the cap, only the two-arc partitions (a pair's longer path)
        seen = set()
        for i in range(size):
            for j in range(i + 1, size):
                pair = split_cycle(net, cycle, cycle.buses[i], cycle.buses[j])
                key = frozenset(pair.longer.lines)
                if key not in seen:
                    seen.add(key)
                    yield key


def separate_cvi(
    net: Network,
    cycles: Sequence[Cycle],
    pt: FractionalPoint,
    config: SeparationConfig = SeparationConfig(),
) -> list[tuple[CutCVI, Fraction]]:
    """Find violated flow-space cuts at a fractional point carrying flows."""
    found: dict[tuple, tuple[CutCVI, Fraction]] = {}
    for cycle in cycles:
        if config.fractional_cycles_only and not _cycle_is_promising(cycle, pt):
            continue
        for subset in _cvi_subsets(net, cycle):
            cut = build_cvi(net, cycle, subset)
            if cut is None:
                continue
            violation = cvi_violation(net, cut, pt)
            if violation > config.tolerance:
                found[(cycle.lines, cut.subset)] = (cut, violation)
    return sorted(found.values(), key=_sort_key)


def cpvi_to_json(net: Network, cut: CutCPVI, violation: Fraction | None = None) -> dict:
    obj = {
        "kind": "cpvi",
        "cycle_lines": list(cut.pair.cycle.lines),
        "cycle_buses": list(cut.pair.cycle.buses),
        "pair": list(cut.pair.pair),
        "shorter_lines": list(cut.pair.shorter.lines),
        "longer_lines": list(cut.pair.longer.lines),
        "big_m": format_rational(cut.big_m),
        "delta_rho": format_rational(cut.delta_rho),
        "delta_m": format_rational(cut.delta_m),
        "constant": format_rational(cut.constant),
        "y_coeffs": {str(line): format_rational(c) for line, c in cut.y_coeffs},
    }
    if violation is not None:
        obj["violation"] = format_rational(violation)
    return obj


def cvi_to_json(net: Network, cut: CutCVI, violation: Fraction | None = None) -> dict:
    obj = {
        "kind": "cvi",
        "cycle_lines": list(cut.cycle.lines),
        "cycle_buses": list(cut.cycle.buses),
        "subset": list(cut.subset),
        "delta_s": format_rational(cut.delta_s),
        "flow_signs": {str(line): sign for line, sign in cut.flow_signs},
        "constant": format_rational(cut.constant),
        "y_coeffs": {str(line): format_rational(c) for line, c in cut.y_coeffs},
    }
    if violation is not None:
        obj["violation"] = format_rational(violation)
    return obj


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


def _y_coeffs(obj: dict, kind: str) -> dict[int, Fraction]:
    value = obj["y_coeffs"]
    if not isinstance(value, dict):
        raise ParseError(f"{kind} cut: 'y_coeffs' must be an object of line index to coefficient")
    out = {}
    for key, coeff in value.items():
        if not (key.isascii() and key.isdigit()):
            raise ParseError(f"{kind} cut: 'y_coeffs' key {key!r} is not a line index")
        out[int(key)] = parse_rational(coeff, f"y_coeffs[{key}]")
    return out


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
    cut = build_cpvi(pair, parse_rational(obj["big_m"], "big_m"))
    expect = _y_coeffs(obj, "cpvi")
    if cut.coeff_map() != expect or cut.constant != parse_rational(obj["constant"], "constant"):
        raise ValueError("stored cut coefficients do not match its provenance")
    return cut


def cvi_from_json(net: Network, obj: dict) -> CutCVI:
    _require_fields(obj, "cvi", ("cycle_lines", "cycle_buses", "subset", "constant"))
    cycle = _rebuild_cycle(net, obj, "cvi")
    subset = _line_list(net, obj, "cvi", "subset")
    if not set(subset) <= set(cycle.lines):
        raise ParseError("cvi cut: 'subset' lists a line that is not on the cycle")
    cut = build_cvi(net, cycle, subset)
    if cut is None:
        raise ValueError("stored subset yields a trivial cut")
    if cut.constant != parse_rational(obj["constant"], "constant"):
        raise ValueError("stored cut coefficients do not match its provenance")
    return cut
