"""Big-M values and angle-difference bounds for bus pairs.

Two sources: the telescoped shortest-path bound over always-active
(non-switchable) lines, and the trivial network-wide fallback M equal to
the sum of all line weights.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import UnknownBusError
# shortest_path_bound is unused here but stays a module attribute: bench/layers.py wraps it by this name
from .graph import shortest_path_bound, shortest_path_lengths  # noqa: F401
from .network import Network
from .rational import format_rational

__all__ = ["BoundSource", "PairBound", "BoundReport", "global_big_m", "pair_bound", "pair_bounds", "bound_report"]


class BoundSource(enum.Enum):
    SHORTEST_PATH_ACTIVE = "shortest_path_active"
    TRIVIAL_M = "trivial_m"


@dataclass(frozen=True)
class PairBound:
    m: str
    n: str
    bound: Fraction
    source: BoundSource


@dataclass(frozen=True)
class BoundReport:
    global_m: Fraction
    pairs: tuple[PairBound, ...]

    def to_json(self) -> dict:
        return {
            "global_M": format_rational(self.global_m),
            "pairs": [
                {
                    "m": pb.m,
                    "n": pb.n,
                    "bound": format_rational(pb.bound),
                    "source": pb.source.value,
                }
                for pb in self.pairs
            ],
        }


def global_big_m(net: Network) -> Fraction:
    """Sum of all line weights: valid for any pair under any topology."""
    return sum((line.weight for line in net.lines), Fraction(0))


def pair_bounds(net: Network, pairs: Sequence[tuple[str, str]]) -> list[tuple[Fraction, BoundSource]]:
    """Tightest bound on the angle difference of each pair valid for every topology.

    Uses the shortest path over non-switchable lines when one exists;
    such a path is active under every switching decision, so the
    telescoped bound always applies.  Otherwise falls back to the global M.
    Every pair is checked before any search; then one search over the
    fixed lines runs per distinct first bus and answers all its pairs.
    """
    by_source: dict[str, list[int]] = {}
    for k, (m, n) in enumerate(pairs):
        for bus in (m, n):
            if bus not in net.bus_index:
                raise UnknownBusError(f"unknown bus {bus!r}")
        if m == n:
            raise ValueError("a pair bound requires two distinct buses")
        by_source.setdefault(m, []).append(k)
    fixed = frozenset(i for i, line in enumerate(net.lines) if not line.switchable)
    big = global_big_m(net)
    out: dict[int, tuple[Fraction, BoundSource]] = {}
    for m, ks in by_source.items():
        dist = shortest_path_lengths(net, m, fixed)
        for k in ks:
            sp = dist.get(pairs[k][1])
            if sp is not None:
                out[k] = (sp, BoundSource.SHORTEST_PATH_ACTIVE)
            else:
                out[k] = (big, BoundSource.TRIVIAL_M)
    return [out[k] for k in range(len(pairs))]


def pair_bound(net: Network, m: str, n: str) -> tuple[Fraction, BoundSource]:
    """The bound of one pair; see pair_bounds."""
    return pair_bounds(net, [(m, n)])[0]


def bound_report(net: Network) -> BoundReport:
    """Bounds for every unordered bus pair, in network bus order."""
    keys = list(itertools.combinations([bus.id for bus in net.buses], 2))
    bounds = pair_bounds(net, keys)
    return BoundReport(global_big_m(net), tuple(PairBound(m, n, *b) for (m, n), b in zip(keys, bounds)))
