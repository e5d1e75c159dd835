"""Deterministic work counts on the benchmark's generated grids: the
network reader parses each distinct raw value once per document, and
lp_text formats each distinct value once per call.  Counts do not vary
between machines, so a change that goes back to per-occurrence work
fails here whatever the host's speed.

The grid generator is read from bench/; nothing there is written.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from anglecuts import milp, network
from anglecuts.milp import build_dcots, lp_text
from anglecuts.network import BUS_VALUES, LINE_VALUES, load_network

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402


def counted(monkeypatch, module, name) -> list:
    """Calls of module.name, each recorded by its first argument, while the test runs."""
    calls, function = [], getattr(module, name)

    def record(*args):
        calls.append(args[0])
        return function(*args)

    monkeypatch.setattr(module, name, record)
    return calls


def raw_values(doc: dict) -> set:
    """The document's rational values as load_network reads them, absent bus values as 0, each once by type and value."""
    raws = [obj.get(name, 0) for obj in doc["buses"] for name in BUS_VALUES]
    raws += [obj.get(name) for obj in doc["lines"] for name in LINE_VALUES]
    return {(type(raw), raw) for raw in raws}


def model_values(model) -> set:
    """Every value lp_text writes: objective, row and bound values, each once by value."""
    values = [c for _, c in model.objective if c != 0]
    for con in model.constraints:
        values += [c for _, c in con.coeffs] + [con.rhs]
    values += [bound for var in model.variables for bound in (var.lower, var.upper) if bound is not None]
    return {Fraction(v) for v in values}


# (grid size, seed): distinct raw values of the document, distinct values of the global and the bounds model
PINNED = {(20, 0): (336, 344, 714), (12, 0): (132, 140, 266), (8, 3): (62, 70, 120)}


@pytest.mark.parametrize("size, seed", sorted(PINNED))
def test_each_distinct_value_is_parsed_and_formatted_once(monkeypatch, size, seed):
    doc = gen.grid(size, seed)
    text = json.dumps(doc)
    parsed = counted(monkeypatch, network, "parse_rational")
    net = load_network(text)
    assert len(parsed) == len(raw_values(doc))
    counts = [len(parsed)]
    for bigm in ("global", "bounds"):
        model = build_dcots(net, bigm)
        plain = counted(monkeypatch, milp, "_plain")
        lp_text(model)
        assert len(plain) == len(model_values(model))
        counts.append(len(plain))
    assert tuple(counts) == PINNED[size, seed]
