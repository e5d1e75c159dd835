"""Seeded input generators for the benchmark.

Every generator takes the seed as an argument and builds its own
``random.Random``, so the same seed always gives byte-identical
documents.  Networks and points are plain JSON-ready dicts in the
formats the CLI reads; every number is an integer or a ``"p/q"``
string, never a float.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Reactances are unit fractions whose denominators divide 40, so every
# weight and flow coefficient has a denominator dividing 40 and the cost
# of exact arithmetic does not swing from seed to seed.
REACTANCES = ("1/2", "1/4", "1/5", "1/8", "1/10")

# Angles, flows and line statuses use this denominator, so a point's
# rationals stay small and separation cost does not depend on the seed.
POINT_DEN = 100


def rat(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def dumps(doc: dict) -> str:
    """The byte form written to disk: compact, key order as built."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _line(rng: random.Random, a: str, b: str, capacity_floor: int, switchable: bool) -> dict:
    return {
        "from": a,
        "to": b,
        "reactance": rng.choice(REACTANCES),
        "capacity": str(capacity_floor + rng.randint(0, capacity_floor)),
        "switchable": switchable,
    }


def _with_dispatch(rng: random.Random, bus_ids: list[str], n_gen: int) -> tuple[list[dict], int]:
    """Buses with n_gen generators and a demand of 1 at every other bus.

    Returns the bus list and the total demand.  A line capacity of at
    least the total demand keeps the all-lines-on topology feasible,
    because a potential flow never carries more than the total injection.
    Fixing the demand keeps the size of every number, and so the cost of
    exact arithmetic, the same from seed to seed.
    """
    gens = set(rng.sample(range(len(bus_ids)), n_gen))
    total = len(bus_ids) - n_gen
    buses = []
    for k, bus in enumerate(bus_ids):
        if k in gens:
            buses.append({"id": bus, "demand": "0", "gen_max": str(total), "gen_cost": str(rng.randint(1, 20))})
        else:
            buses.append({"id": bus, "demand": "1", "gen_max": "0", "gen_cost": "0"})
    return buses, total


def grid(k: int, seed: int, n_switchable: int | None = None) -> dict:
    """A k-by-k grid: k*k buses, 2k(k-1) lines in row-major order, and
    max(2, k // 4) generator buses.

    Exactly 40% of the lines (rounded) are non-switchable, or, with
    n_switchable given, exactly that many lines are switchable.
    """
    rng = random.Random(f"grid:{k}:{seed}")
    ids = [f"b{r}_{c}" for r in range(k) for c in range(k)]
    buses, total = _with_dispatch(rng, ids, max(2, k // 4))
    ends = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                ends.append((f"b{r}_{c}", f"b{r}_{c + 1}"))
            if r + 1 < k:
                ends.append((f"b{r}_{c}", f"b{r + 1}_{c}"))
    if n_switchable is None:
        fixed = set(rng.sample(range(len(ends)), round(0.4 * len(ends))))
    else:
        switch = set(rng.sample(range(len(ends)), n_switchable))
        fixed = set(range(len(ends))) - switch
    lines = [_line(rng, a, b, total, idx not in fixed) for idx, (a, b) in enumerate(ends)]
    return {"buses": buses, "lines": lines}


# Line weights whose subset sums are all distinct (Conway and Guy's
# sequences).  The exact oracles' cost depends on the combinatorial type
# of an instance, chiefly which arc of each split cycle is lighter, and
# varies several-fold between random instances of one size.  So their
# inputs keep these weights and the seed adds at most 1/10 to each line:
# the perturbations sum to less than 1, every arc comparison comes out the
# same for every seed, and the seed still changes every number.
DISTINCT_SUMS = {4: (3, 5, 6, 7), 5: (6, 9, 11, 12, 13), 7: (20, 31, 37, 40, 42, 43, 44)}


def _typed_line(rng: random.Random, a: str, b: str, weight: int) -> dict:
    reactance = rng.choice(REACTANCES)
    capacity = (weight + Fraction(rng.randint(0, 4), 40)) / Fraction(reactance)
    return {"from": a, "to": b, "reactance": reactance, "capacity": rat(capacity), "switchable": True}


def ring(n: int, seed: int) -> dict:
    """A single cycle of n buses and n switchable lines (n is 4 or 5)."""
    rng = random.Random(f"ring:{n}:{seed}")
    ids = [f"r{i}" for i in range(n)]
    buses, _total = _with_dispatch(rng, ids, 1)
    lines = [_typed_line(rng, ids[i], ids[(i + 1) % n], w) for i, w in enumerate(DISTINCT_SUMS[n])]
    return {"buses": buses, "lines": lines}


def two_cycle_mesh(seed: int) -> dict:
    """Two 4-cycles sharing one line: a 2-by-3 grid, 6 buses and 7 lines."""
    rng = random.Random(f"mesh2:{seed}")
    ids = [f"m{i}" for i in range(6)]
    buses, _total = _with_dispatch(rng, ids, 1)
    ends = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    lines = [_typed_line(rng, ids[a], ids[b], w) for (a, b), w in zip(ends, DISTINCT_SUMS[7])]
    return {"buses": buses, "lines": lines}


def switching_grid(k: int, n_switchable: int, seed: int) -> dict:
    """A k-by-k grid with n_switchable switchable lines, for brute-force
    switching.  Topology, dispatch data and reactances are fixed; the seed
    adds at most 1/10 to each line capacity, which leaves the pattern
    LPs of the same type (see DISTINCT_SUMS)."""
    doc = grid(k, 0, n_switchable=n_switchable)
    rng = random.Random(f"switching:{k}:{n_switchable}:{seed}")
    for line in doc["lines"]:
        line["capacity"] = rat(Fraction(line["capacity"]) + Fraction(rng.randint(0, 4), 40))
    return doc


def point_stream(net_doc: dict, seed: int, count: int, tag: str = "", spread: int = 1) -> list[dict]:
    """count fractional LP points over the network, as a cutting-plane
    loop would send them.

    About 15% of the switchable lines' statuses are fractional and the rest are 1;
    angles spread over about `spread` mean line weights; flows equal the angle
    drop over reactance, as at a DC power-flow point.
    """
    rng = random.Random(f"points:{tag}:{seed}")
    weights = [Fraction(ln["capacity"]) * Fraction(ln["reactance"]) for ln in net_doc["lines"]]
    top = int(spread * sum(weights, Fraction(0)) / len(weights) * POINT_DEN)
    points = []
    for _ in range(count):
        theta = {bus["id"]: Fraction(rng.randint(0, top), POINT_DEN) for bus in net_doc["buses"]}
        y, f = {}, {}
        for idx, ln in enumerate(net_doc["lines"]):
            status = Fraction(1)
            if ln["switchable"] and rng.random() < 0.15:
                status = Fraction(rng.randint(1, POINT_DEN - 1), POINT_DEN)
            y[str(idx)] = rat(status)
            f[str(idx)] = rat((theta[ln["from"]] - theta[ln["to"]]) / Fraction(ln["reactance"]))
        points.append({"theta": {bus: rat(v) for bus, v in theta.items()}, "y": y, "f": f})
    return points
