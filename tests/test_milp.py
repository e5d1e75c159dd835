import io
import itertools
from fractions import Fraction as F

import pytest

from anglecuts.bounds import global_big_m
from anglecuts.cuts import build_cpvi, build_cvi
from anglecuts.extended import build_extended
from anglecuts.graph import fundamental_cycle_basis, split_cycle
from anglecuts.milp import (
    MilpConstraint,
    MilpModel,
    MilpVariable,
    build_dcots,
    extended_model,
    lp_text,
    merge_models,
    write_lp,
)
from anglecuts.oracle import brute_force_dcots
from anglecuts.simplex import solve_linear_program

from conftest import DATA, make_net, random_net
from test_bounds import milp_as_lp, reference_report


def test_two_bus_row_and_variable_counts():
    net = make_net([("a", 0, 4, 5), ("b", 1)], [("a", "b", 1, 2)])
    model = build_dcots(net)
    names = {c.name for c in model.constraints}
    assert {"kcl_a", "kcl_b", "cap_hi_a_b_0", "cap_lo_a_b_0", "ohm_hi_a_b_0", "ohm_lo_a_b_0", "ref_a"} == names
    binaries = [v for v in model.variables if v.kind == "binary"]
    assert len(binaries) == 1 and binaries[0].lower == 0


def test_global_big_m_on_every_ohm_row(fig1):
    model = build_dcots(fig1, bigm="global")
    for con in model.constraints:
        if con.name.startswith("ohm_"):
            assert con.rhs == 6


def test_bounds_strategy_uses_active_paths():
    net = make_net(
        [("a",), ("b",), ("c",)],
        [("a", "b", 1, 1, False), ("b", "c", 1, 1, False), ("a", "c", 1, 5, True)],
    )
    model = build_dcots(net, bigm="bounds")
    row = next(c for c in model.constraints if c.name == "ohm_hi_a_c_0")
    assert row.rhs == 2  # telescoped over the two fixed lines, not the global 7


def test_non_switchable_line_pins_binary():
    net = make_net([("a",), ("b",)], [("a", "b", 1, 2, False)])
    model = build_dcots(net)
    y = next(v for v in model.variables if v.name.startswith("y_"))
    assert y.lower == y.upper == 1


def test_appending_one_cpvi_adds_two_rows(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    cut = build_cpvi(split_cycle(fig1, cycle, "i0", "i4"), F(6))
    base = build_dcots(fig1)
    extended = build_dcots(fig1, cpvis=[cut])
    assert len(extended.constraints) == len(base.constraints) + 2
    added = {c.name for c in extended.constraints} - {c.name for c in base.constraints}
    assert added == {"cpvi_0_i0_i4_hi", "cpvi_0_i0_i4_lo"}


def test_appending_cvi_adds_two_rows(fig1):
    cycle = fundamental_cycle_basis(fig1)[0]
    cut = build_cvi(fig1, cycle, [5, 4, 1, 2])
    model = build_dcots(fig1, cvis=[cut])
    names = [c.name for c in model.constraints if c.name.startswith("cvi_")]
    assert len(names) == 2 and names[0].endswith("_hi") and names[1].endswith("_lo")


def test_golden_file_byte_identical(fig1):
    golden = (DATA / "fig1_global.lp").read_text()
    runs = [lp_text(build_dcots(fig1, bigm="global")) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2] == golden


def test_write_lp_to_stream_and_path(tmp_path, fig1):
    model = build_dcots(fig1)
    buffer = io.StringIO()
    write_lp(model, buffer)
    target = tmp_path / "out.lp"
    write_lp(model, target)
    assert buffer.getvalue() == target.read_text()


def test_nonterminating_coefficient_row_is_scaled():
    net = make_net([("a",), ("b",)], [("a", "b", F(1, 3), 1)])
    text = lp_text(build_dcots(net))
    line = next(ln for ln in text.splitlines() if ln.strip().startswith("ohm_hi"))
    assert "scaled by 3" in line
    assert "0.333" not in line  # exact integers, no rounding


def test_nonterminating_objective_flagged():
    net = make_net([("a", 0, 1, F(1, 3)), ("b", 1)], [("a", "b", 1, 2)])
    text = lp_text(build_dcots(net))
    assert "exact g_a = 1/3" in text


def test_duplicate_names_rejected():
    net = make_net([("a",), ("b",)], [("a", "b", 1, 1)])
    model = build_dcots(net)
    with pytest.raises(ValueError, match="duplicate variable name 'g_a'"):
        model.add_variable("g_a", "continuous", F(0), F(1))
    with pytest.raises(ValueError, match="duplicate constraint name 'kcl_a'"):
        model.add_constraint("kcl_a", [("g_a", F(1))], "=", F(0))
    sizes = (len(model.variables), len(model.constraints))
    # a rejected row registers nothing: its name stays free
    with pytest.raises(ValueError, match="undeclared variable 'nope'"):
        model.add_constraint("fresh", [("nope", F(1))], "<=", F(0))
    model.add_variable("nope", "continuous", None, None)
    model.add_constraint("fresh", [("nope", F(1))], "<=", F(0))
    assert (len(model.variables), len(model.constraints)) == (sizes[0] + 1, sizes[1] + 1)
    with pytest.raises(ValueError, match="duplicate constraint name 'fresh'"):
        model.add_constraint("fresh", [("nope", F(1))], "<=", F(0))


def test_duplicate_names_rejected_on_models_built_from_lists():
    model = MilpModel(
        variables=[MilpVariable("x", "continuous", None, None)],
        constraints=[MilpConstraint("row", (("x", F(1)),), "<=", F(1))],
    )
    with pytest.raises(ValueError, match="duplicate variable name 'x'"):
        model.add_variable("x", "binary", F(0), F(1))
    with pytest.raises(ValueError, match="duplicate constraint name 'row'"):
        model.add_constraint("row", [("x", F(2))], "<=", F(0))
    model.add_constraint("row2", [("x", F(2))], "<=", F(0))


def test_merge_models_rejects_duplicate_names(fig1):
    pair = split_cycle(fig1, fundamental_cycle_basis(fig1)[0], "i0", "i4")
    ext = extended_model(build_extended(pair, F(6)), "ext")
    base = build_dcots(fig1)
    merge_models(base, ext)
    with pytest.raises(ValueError, match="duplicate variable name 'ext_dtheta'"):
        merge_models(base, ext)
    # same variables under a fresh prefix, one constraint name already taken
    clash = MilpModel()
    clash.add_variable("z", "continuous", None, None)
    clash.add_constraint(ext.constraints[0].name, [("z", F(1))], "<=", F(0))
    with pytest.raises(ValueError, match=f"duplicate constraint name '{ext.constraints[0].name}'"):
        merge_models(base, clash)


def test_bounds_strategy_ohm_rows_carry_endpoint_bounds():
    for seed in range(40):
        net = random_net(seed)
        total, pairs = reference_report(net)
        bound = {frozenset((pb.m, pb.n)): pb.bound for pb in pairs}
        for bigm in ("bounds", "global"):
            rows = [c for c in build_dcots(net, bigm=bigm).constraints if c.name.startswith("ohm_")]
            assert len(rows) == 2 * len(net.lines)  # hi then lo, in line order
            for idx, line in enumerate(net.lines):
                expect = bound[line.endpoints()] if bigm == "bounds" else total
                for con, side in zip(rows[2 * idx : 2 * idx + 2], ("hi", "lo")):
                    tag = con.name[len(f"ohm_{side}_") :]
                    assert con.name == f"ohm_{side}_{tag}"
                    assert con.rhs == dict(con.coeffs)[f"y_{tag}"] == expect


def test_undeclared_variable_rejected():
    net = make_net([("a",), ("b",)], [("a", "b", 1, 1)])
    model = build_dcots(net)
    with pytest.raises(ValueError):
        model.add_constraint("bogus", [("nope", F(1))], "<=", F(0))


def test_extended_model_serializes(fig1):
    pair = split_cycle(fig1, fundamental_cycle_basis(fig1)[0], "i0", "i4")
    model = extended_model(build_extended(pair, F(6)), "ext")
    text = lp_text(model)
    assert "ext_angle_hi" in text and "ext_z_long_only" in text
    base = build_dcots(fig1)
    merge_models(base, model)
    assert any(v.name == "ext_dtheta" for v in base.variables)


def test_all_active_model_reduces_to_dispatch_lp(triangle):
    """Pinning every status to one must reproduce the exact dispatch LP."""
    y_names = [v.name for v in build_dcots(triangle).variables if v.name.startswith("y_")]
    names, col, ineqs, eqs = milp_as_lp(triangle, {name: 1 for name in y_names})
    objective = [F(0)] * len(names)
    for bus in triangle.buses:
        if bus.gen_cost:
            objective[col[f"g_{bus.id}"]] = bus.gen_cost
    result = solve_linear_program(len(names), ineqs, eqs, objective)
    fixed = brute_force_dcots(triangle.with_all_lines_fixed())
    assert result.status == "optimal" and result.value == fixed.cost == 33


def test_optimum_preserved_with_cuts_via_milp_route(triangle):
    cycles = fundamental_cycle_basis(triangle)
    big = global_big_m(triangle)
    cpvis = [
        build_cpvi(split_cycle(triangle, cycle, m, n), big)
        for cycle in cycles
        for m, n in itertools.combinations(cycle.buses, 2)
    ]
    plain = brute_force_dcots(triangle)
    cut = brute_force_dcots(triangle, cpvis=cpvis)
    assert plain.cost == cut.cost == 6
