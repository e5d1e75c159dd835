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
from math import lcm
from typing import NamedTuple, Sequence

from .errors import UnknownBusError
# shortest_path_bound is unused here but stays a module attribute: bench/layers.py wraps it by this name
from .graph import scaled_adjacency, scaled_lengths, shortest_path_bound  # noqa: F401
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
        # bounds repeat from pair to pair: each distinct one is formatted once, keyed by
        # numerator and denominator since Fraction's hash is slow
        texts: dict[tuple[int, int], str] = {}
        pairs = []
        for m, n, bound, source in self.pairs:
            key = (bound.numerator, bound.denominator)
            if (text := texts.get(key)) is None:
                text = texts[key] = format_rational(bound)
            pairs.append({"m": m, "n": n, "bound": text, "source": source.value})
        return {"global_M": format_rational(self.global_m), "pairs": pairs}


def global_big_m(net: Network) -> Fraction:
    """Sum of all line weights: valid for any pair under any topology.
    Summed as integers over the weights' least common denominator."""
    weights = [line.weight for line in net.lines]
    den = lcm(*[w.denominator for w in weights])
    return Fraction(sum([w.numerator * (den // w.denominator) for w in weights]), den)


def pair_bounds(net: Network, pairs: Sequence[tuple[str, str]]) -> list[tuple[Fraction, BoundSource]]:
    """Tightest bound on the angle difference of each pair valid for every topology.

    Uses the shortest path over non-switchable lines when one exists;
    such a path is active under every switching decision, so the
    telescoped bound always applies.  Otherwise falls back to the global M.
    Every pair is checked before any search; then one search over the
    fixed lines, their weights scaled to integers once per call, runs
    per distinct first bus and answers all its pairs.
    """
    by_source: dict[str, list[int]] = {}
    for k, (m, n) in enumerate(pairs):
        for bus in (m, n):
            if bus not in net.bus_index:
                raise UnknownBusError(f"unknown bus {bus!r}")
        if m == n:
            raise ValueError("a pair bound requires two distinct buses")
        by_source.setdefault(m, []).append(k)
    adj, den = scaled_adjacency(net, [i for i, line in enumerate(net.lines) if not line.switchable])
    trivial = (global_big_m(net), BoundSource.TRIVIAL_M)
    found: dict[int, tuple[Fraction, BoundSource]] = {}  # per distinct scaled length, its bound, made once
    out = [trivial] * len(pairs)
    for m, ks in by_source.items():
        dist = scaled_lengths(net, adj, m)
        for k in ks:
            if (sp := dist.get(pairs[k][1])) is not None:
                if (bound := found.get(sp)) is None:
                    bound = found[sp] = (Fraction(sp, den), BoundSource.SHORTEST_PATH_ACTIVE)
                out[k] = bound
    return out


def pair_bound(net: Network, m: str, n: str) -> tuple[Fraction, BoundSource]:
    """The bound of one pair; see pair_bounds."""
    return pair_bounds(net, [(m, n)])[0]


def bound_report(net: Network) -> BoundReport:
    """Bounds for every unordered bus pair, in network bus order."""
    keys = list(itertools.combinations([bus.id for bus in net.buses], 2))
    bounds = pair_bounds(net, keys)
    return BoundReport(global_big_m(net), tuple([PairBound(m, n, *b) for (m, n), b in zip(keys, bounds)]))
