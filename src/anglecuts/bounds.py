"""Big-M values and angle-difference bounds for bus pairs.

Two sources: the telescoped shortest-path bound over always-active
(non-switchable) lines, and the trivial network-wide fallback M equal to
the sum of all line weights, both over `graph.scaled_weights`' integers;
paths come from `graph.scaled_lengths`, the one shortest-path search.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import UnknownBusError
# shortest_path_bound is unused here but stays a module attribute: bench/layers.py wraps it by this name
from .graph import scaled_adjacency, scaled_lengths, scaled_weights, shortest_path_bound  # noqa: F401
from .network import Network
from .rational import format_rational

__all__ = ["BoundSource", "PairBound", "BoundReport", "global_big_m", "pair_bound", "pair_bounds", "bound_report"]


class BoundSource(enum.Enum):
    SHORTEST_PATH_ACTIVE = "shortest_path_active"
    TRIVIAL_M = "trivial_m"


class PairBound(NamedTuple):
    m: str
    n: str
    bound: Fraction
    source: BoundSource


@dataclass(frozen=True)
class BoundReport:
    global_m: Fraction
    pairs: tuple[PairBound, ...]

    def to_json(self) -> dict:
        return {"global_M": format_rational(self.global_m),
                "pairs": [{"m": m, "n": n, "bound": format_rational(bound), "source": source.value}
                          for m, n, bound, source in self.pairs]}


def global_big_m(net: Network) -> Fraction:
    """Sum of all line weights: valid for any pair under any topology.
    Summed over scaled_weights' integers."""
    weights, den = scaled_weights(net)
    return Fraction(sum(weights), den)


def pair_bounds(net: Network, pairs: Sequence[tuple[str, str]]) -> list[tuple[Fraction, BoundSource]]:
    """Tightest bound on the angle difference of each pair valid for every topology.

    Uses the shortest path over non-switchable lines when one exists;
    such a path is active under every switching decision, so the
    telescoped bound always applies.  Otherwise falls back to the global M.
    Every pair is checked before any search (its first bus, its second,
    then that they differ); then one scaled_lengths search over the fixed
    lines per distinct first bus answers all its pairs.
    """
    bus_index, by_source = net.bus_index, {}
    for k, (m, n) in enumerate(pairs):
        if m not in bus_index:
            raise UnknownBusError(f"unknown bus {m!r}")
        if n not in bus_index:
            raise UnknownBusError(f"unknown bus {n!r}")
        if m == n:
            raise ValueError("a pair bound requires two distinct buses")
        by_source.setdefault(m, []).append(k)
    adj, den = scaled_adjacency(net, [i for i, line in enumerate(net.lines) if not line.switchable])
    out = [(global_big_m(net), BoundSource.TRIVIAL_M)] * len(pairs)
    for m, ks in by_source.items():
        dist = scaled_lengths(net, adj, m)
        for k in ks:
            if (sp := dist.get(pairs[k][1])) is not None:
                out[k] = (Fraction(sp, den), BoundSource.SHORTEST_PATH_ACTIVE)
    return out


def pair_bound(net: Network, m: str, n: str) -> tuple[Fraction, BoundSource]:
    """The bound of one pair; see pair_bounds."""
    return pair_bounds(net, [(m, n)])[0]


def bound_report(net: Network) -> BoundReport:
    """Bounds for every unordered bus pair, in network bus order."""
    keys = list(itertools.combinations([bus.id for bus in net.buses], 2))
    bounds = pair_bounds(net, keys)
    return BoundReport(global_big_m(net), tuple([PairBound(m, n, *b) for (m, n), b in zip(keys, bounds)]))
