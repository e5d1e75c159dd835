"""Tests of the benchmark's own code: seeded generators, the
correctness gate and the determinism of the traced run's counts.

Run with ``python -m pytest bench`` from the repository root.  The
traced-run test uses the workloads' own set-up and round code at small
sizes, so it stays fast.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from anglecuts.cli import _load_point  # noqa: E402  the CLI's own point loader
from anglecuts.network import load_network  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 7)


def networks(seed: int) -> dict[str, dict]:
    """Every network the workloads generate, at the benchmark's sizes."""
    return {
        "grid20": gen.grid(workloads.GRID_MODEL["grid"], seed),
        "grid12": gen.grid(workloads.GRID_MODEL["bounds_grid"], seed),
        "grid8": gen.grid(workloads.CUT_LOOP["cpvi_grid"], seed),
        "grid3": gen.grid(workloads.CUT_LOOP["cvi_grid"], seed),
        "dcots3": gen.switching_grid(workloads.EXACT_ORACLES["dcots_grid"],
                                     workloads.EXACT_ORACLES["dcots_switchable"], seed),
        "ring4": gen.ring(4, seed),
        "ring5": gen.ring(5, seed),
        "mesh": gen.two_cycle_mesh(seed),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_identical_bytes(seed):
    first, again, other = networks(seed), networks(seed), networks(seed + 1)
    for name, doc in first.items():
        assert gen.dumps(doc) == gen.dumps(again[name]), name
        assert gen.dumps(doc) != gen.dumps(other[name]), name
        assert gen.dumps(gen.point_stream(doc, seed, 3, name)) == gen.dumps(gen.point_stream(again[name], seed, 3, name))


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_networks_load(seed):
    for name, doc in networks(seed).items():
        net = load_network(gen.dumps(doc))
        assert len(net.lines) == len(doc["lines"]), name
    grid = load_network(gen.dumps(networks(seed)["grid20"]))
    assert (len(grid.buses), len(grid.lines)) == (400, 760)
    assert sum(not line.switchable for line in grid.lines) == 304  # 40% of the lines
    dcots = load_network(gen.dumps(networks(seed)["dcots3"]))
    assert sum(line.switchable for line in dcots.lines) == 5


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_points_load(seed, tmp_path):
    for name, doc in networks(seed).items():
        net = load_network(gen.dumps(doc))
        for k, point in enumerate(gen.point_stream(doc, seed, 5, name)):
            path = tmp_path / f"{name}_{k}.json"
            path.write_text(gen.dumps(point))
            loaded = _load_point(str(path), net)
            assert set(loaded.theta) == {bus.id for bus in net.buses}
            assert set(loaded.y) == set(loaded.f) == set(range(len(net.lines)))
            assert all(loaded.y[i] == 1 for i, line in enumerate(net.lines) if not line.switchable)


SMALL = {
    "grid-model": {"grid": 4, "bounds_grid": 4, "cuts": 2, "validates": 2},
    "cut-loop": {"cpvi_grid": 4, "cvi_grid": 3, "points": 4, "per_round": 2},
    "exact-oracles": {"rings": (4,), "mesh": False, "dcots_grid": 2, "dcots_switchable": 2},
}

# a count each small workload must drive above zero, so the comparison is not vacuous
BUSY = {"grid-model": "bounds.pairs", "cut-loop": "cuts.cpvi_built", "exact-oracles": "simplex.lp_calls"}


def traced_counts(name: str, seed: int, tmp: Path) -> dict:
    tmp.mkdir()
    workload = workloads.SETUPS[name](seed, tmp, SMALL[name])
    runner = run.Runner(workload, workloads.digest)
    metrics = run.measure_traced(runner, 0, tmp / "trace.jsonl")
    assert runner.errors == []
    assert set(metrics) == {metric for metric, _unit in layers.METRICS}
    return {metric: metrics[metric]["value"] for metric in layers.COUNT_METRICS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_for_one_seed(name, tmp_path):
    first = traced_counts(name, 3, tmp_path / "a")
    second = traced_counts(name, 3, tmp_path / "b")
    assert first == second
    assert first[BUSY[name]] > 0


def test_checks_reject_wrong_outputs(tmp_path):
    work = tmp_path / "w"
    work.mkdir()
    doc = gen.grid(3, 0)
    net_path = str(work / "net.json")
    Path(net_path).write_text(gen.dumps(doc))
    point = gen.point_stream(doc, 0, 1)[0]
    point["theta"]["b2_2"] = "50"  # far enough from its neighbours to violate cuts
    point_path = work / "point.json"
    point_path.write_text(gen.dumps(point))

    res = workloads.call_cli(["cuts", net_path, "--point", str(point_path), "--kind", "cpvi"])
    assert res.out and checks.cuts_cpvi(point, res) is None
    cut = json.loads(res.out.splitlines()[0])
    cut["violation"] = gen.rat(Fraction(cut["violation"]) + 1)
    tampered = res._replace(out=json.dumps(cut) + "\n")
    assert "recomputed" in checks.cuts_cpvi(point, tampered)

    res = workloads.call_cli(["emit", net_path])
    assert checks.emit(doc, 0, res) is None
    assert "expected" in checks.emit(doc, 1, res)

    res = workloads.call_cli(["validate", net_path])
    assert checks.validate(doc, res) is None
    assert "exit code" in checks.validate(doc, res._replace(code=1))
