import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from anglecuts.network import load_network

settings.register_profile(
    "desk",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")

DATA = Path(__file__).parent / "data"

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_acceptance(name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fig1():
    """Unit-weight six-cycle with a generator and a demand attached."""
    return load_network((DATA / "fig1.json").read_bytes())


@pytest.fixture(scope="session")
def fig1_fixed(fig1):
    return fig1.with_all_lines_fixed()


def make_net(buses, lines):
    doc = {
        "buses": [
            {
                "id": b[0],
                "demand": str(b[1]) if len(b) > 1 else "0",
                "gen_max": str(b[2]) if len(b) > 2 else "0",
                "gen_cost": str(b[3]) if len(b) > 3 else "0",
            }
            for b in buses
        ],
        "lines": [
            {
                "from": ln[0],
                "to": ln[1],
                "reactance": _rat(ln[2]),
                "capacity": _rat(ln[3]),
                "switchable": ln[4] if len(ln) > 4 else True,
            }
            for ln in lines
        ],
    }
    return load_network(json.dumps(doc))


def _rat(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def ring_net(weights, switchable=True):
    """Cycle network with reactance 1 and capacity equal to each weight."""
    n = len(weights)
    buses = [(f"r{k}",) for k in range(n)]
    lines = [
        (f"r{k}", f"r{(k + 1) % n}", 1, Fraction(weights[k]), switchable)
        for k in range(n)
    ]
    return make_net(buses, lines)


@pytest.fixture(scope="session")
def triangle():
    """Cheap generation behind a congested direct line; switching helps."""
    return make_net(
        [("a", 0, 10, 1), ("b", 0, 10, 10), ("c", 6)],
        [("a", "b", 1, 10), ("b", "c", 1, 10), ("a", "c", 1, 3)],
    )


def random_net(seed: int, max_buses: int = 7):
    """A seeded connected network with mixed switchable lines.

    A random spanning tree plus a few extra lines, parallel ones
    included; each line is switchable with probability 1/2, so the
    fixed subgraph is often disconnected.  Weights are small rationals.
    """
    rng = random.Random(seed)
    n = rng.randint(3, max_buses)
    ids = [f"v{k}" for k in range(n)]
    ends = [(ids[rng.randrange(k)], ids[k]) for k in range(1, n)]
    ends += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(1, n))]
    lines = [
        (a, b, Fraction(1, rng.randint(1, 4)), rng.randint(1, 6), rng.random() < 0.5)
        for a, b in ends
    ]
    return make_net([(bus,) for bus in ids], lines)
