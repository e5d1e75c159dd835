import json
from dataclasses import replace
from fractions import Fraction as F

import pytest

from anglecuts.bounds import BoundSource, PairBound, bound_report, global_big_m, pair_bound, pair_bounds
from anglecuts.errors import UnknownBusError
from anglecuts.milp import build_dcots
from anglecuts.network import Network
from anglecuts.simplex import solve_linear_program

from _brute import brute_shortest_path
from conftest import make_net, random_net


def test_global_big_m_examples(fig1):
    assert global_big_m(fig1) == 6
    assert global_big_m(make_net([("a",), ("b",)], [("a", "b", 1, 2)])) == 2
    thirds = make_net(
        [("a",), ("b",), ("c",), ("d",)],
        [("a", "b", 1, F(1, 2)), ("b", "c", 1, F(1, 3)), ("c", "d", 1, F(1, 6))],
    )
    assert global_big_m(thirds) == 1


def test_pair_bound_adjacent_fixed_line():
    net = make_net([("a",), ("b",)], [("a", "b", 1, 3, False)])
    assert pair_bound(net, "a", "b") == (F(3), BoundSource.SHORTEST_PATH_ACTIVE)


def test_pair_bound_all_switchable_falls_back(fig1):
    bound, source = pair_bound(fig1, "i0", "i4")
    assert bound == 6 and source is BoundSource.TRIVIAL_M


def test_pair_bound_fig1_fixed(fig1_fixed):
    assert pair_bound(fig1_fixed, "i0", "i4") == (F(2), BoundSource.SHORTEST_PATH_ACTIVE)


def test_pair_bound_unknown_bus(fig1):
    with pytest.raises(UnknownBusError):
        pair_bound(fig1, "i0", "zz")
    with pytest.raises(UnknownBusError):
        pair_bound(fig1, "zz", "i0")
    with pytest.raises(ValueError):
        pair_bound(fig1, "i0", "i0")


def reference_report(net):
    """Pair by pair: exhaustive paths over the fixed lines, else the line-weight sum."""
    fixed = [i for i, line in enumerate(net.lines) if not line.switchable]
    total = sum((line.weight for line in net.lines), F(0))
    ids = [bus.id for bus in net.buses]
    pairs = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            sp = brute_shortest_path(net, ids[i], ids[j], fixed)
            if sp is None:
                pairs.append(PairBound(ids[i], ids[j], total, BoundSource.TRIVIAL_M))
            else:
                pairs.append(PairBound(ids[i], ids[j], sp, BoundSource.SHORTEST_PATH_ACTIVE))
    return total, tuple(pairs)


def test_bound_report_matches_pair_by_pair_reference():
    sources = set()
    for seed in range(40):
        net = random_net(seed)
        report = bound_report(net)
        assert (report.global_m, report.pairs) == reference_report(net)
        for pb in report.pairs:
            assert pair_bound(net, pb.m, pb.n) == pair_bound(net, pb.n, pb.m) == (pb.bound, pb.source)
        sources |= {pb.source for pb in report.pairs}
    # the seeds cover fixed subgraphs that leave pairs unreached
    assert sources == set(BoundSource)


def test_pair_bounds_any_order_and_repeats():
    net = random_net(5)
    report = bound_report(net)
    keys = [(pb.n, pb.m) for pb in reversed(report.pairs)] * 2
    expect = [(pb.bound, pb.source) for pb in reversed(report.pairs)] * 2
    assert pair_bounds(net, keys) == expect
    assert pair_bounds(net, []) == []


def test_bound_report_examples():
    two = make_net([("a",), ("b",)], [("a", "b", 1, 3, False)])
    report = bound_report(two)
    assert len(report.pairs) == 1
    assert report.pairs[0].bound == 3

    path3 = make_net([("a",), ("b",), ("c",)], [("a", "b", 1, 1, False), ("b", "c", 1, 1, False)])
    report = bound_report(path3)
    ends = next(p for p in report.pairs if (p.m, p.n) == ("a", "c"))
    assert ends.bound == 2  # telescoped over two unit lines

    single = make_net([("a",)], [])
    assert bound_report(single).pairs == ()


def test_bound_report_json_shape(fig1_fixed):
    obj = bound_report(fig1_fixed).to_json()
    assert obj["global_M"] == "6"
    entry = next(p for p in obj["pairs"] if (p["m"], p["n"]) == ("i0", "i4"))
    assert entry == {"m": "i0", "n": "i4", "bound": "2", "source": "shortest_path_active"}


def test_every_pair_bound_at_most_global(fig1, fig1_fixed, triangle):
    for net in (fig1, fig1_fixed, triangle, triangle.with_all_lines_fixed()):
        big = global_big_m(net)
        for pb in bound_report(net).pairs:
            assert pb.bound <= big


def test_fixing_lines_never_loosens_bounds(fig1):
    net = fig1
    previous = {(p.m, p.n): p.bound for p in bound_report(net).pairs}
    for idx in range(len(net.lines)):
        lines = list(net.lines)
        lines[idx] = replace(lines[idx], switchable=False)
        net = Network(net.buses, tuple(lines))
        current = {(p.m, p.n): p.bound for p in bound_report(net).pairs}
        for key, bound in current.items():
            assert bound <= previous[key]
        previous = current


def milp_as_lp(net, fixed_y_by_name):
    """The switching model's rows with y pinned, ready for the exact LP."""
    model = build_dcots(net, bigm="global")
    names = [v.name for v in model.variables]
    col = {name: k for k, name in enumerate(names)}
    ineqs, eqs = [], []
    for con in model.constraints:
        row = [F(0)] * len(names)
        for var, c in con.coeffs:
            row[col[var]] = c
        if con.sense == "=":
            eqs.append((row, con.rhs))
        elif con.sense == "<=":
            ineqs.append((row, con.rhs))
        else:
            ineqs.append(([-v for v in row], -con.rhs))
    for var in model.variables:
        lo, hi = var.lower, var.upper
        if var.name in fixed_y_by_name:
            lo = hi = F(fixed_y_by_name[var.name])
        row = [F(0)] * len(names)
        row[col[var.name]] = F(1)
        if hi is not None:
            ineqs.append((list(row), hi))
        if lo is not None:
            ineqs.append(([-v for v in row], -lo))
    return names, col, ineqs, eqs


def test_pair_bounds_valid_for_every_pattern():
    import itertools

    net = make_net(
        [("a", 0, 4, 1), ("b", 1), ("c", 1)],
        [("a", "b", 1, 2, False), ("b", "c", 1, 1, True), ("a", "c", F(1, 2), 2, True)],
    )
    report = bound_report(net)
    switchable = [i for i, ln in enumerate(net.lines) if ln.switchable]
    model = build_dcots(net)
    y_names = [v.name for v in model.variables if v.name.startswith("y_")]
    for bits in itertools.product((0, 1), repeat=len(switchable)):
        fixed = {name: 1 for name in y_names}
        for i, b in zip(switchable, bits):
            fixed[y_names[i]] = b
        names, col, ineqs, eqs = milp_as_lp(net, fixed)
        for pb in report.pairs:
            if pb.source is not BoundSource.SHORTEST_PATH_ACTIVE:
                continue
            objective = [F(0)] * len(names)
            objective[col[f"theta_{pb.m}"]] = F(1)
            objective[col[f"theta_{pb.n}"]] = F(-1)
            for sense in (False, True):
                result = solve_linear_program(len(names), ineqs, eqs, objective, minimize=sense)
                if result.status != "optimal":
                    continue  # pattern infeasible
                assert abs(result.value) <= pb.bound
