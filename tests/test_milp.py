import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest

from anglecuts.bounds import global_big_m
from anglecuts.cuts import build_cpvi, build_cvi
from anglecuts.errors import ValidationError
from anglecuts.extended import build_extended
from anglecuts.graph import fundamental_cycle_basis, split_cycle
from anglecuts.milp import (
    MilpConstraint,
    MilpModel,
    MilpVariable,
    build_dcots,
    lp_text,
    merge_models,
)
from anglecuts.network import Network, load_network
from anglecuts.oracle import ModelLP, _pattern_optima, brute_force_dcots

from _brute import fixed_binary_lp, read_lp_text, with_all_lines_fixed
from conftest import DATA, basis_cuts, make_net, random_net
from test_bounds import reference_report


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


def test_nonterminating_coefficient_row_is_scaled():
    net = make_net([("a",), ("b",)], [("a", "b", F(1, 3), 1)])
    text = lp_text(build_dcots(net))
    line = next(ln for ln in text.splitlines() if ln.strip().startswith("ohm_hi"))
    assert "scaled by 3" in line
    assert "0.333" not in line  # exact integers, no rounding


def test_nonterminating_objective_is_scaled():
    net = make_net([("a", 0, 1, F(1, 3)), ("b", 1, 1, F(5, 2))], [("a", "b", 1, 2)])
    text = lp_text(build_dcots(net))
    assert "Minimize\n\\ objective scaled by 6\n obj: 2 g_a + 15 g_b\nSubject To\n" in text
    assert "0.333" not in text and "rounded" not in text


def all_cuts(net):
    """A cpvi for every bus pair and a cvi for every nontrivial line
    subset of each fundamental cycle, under the global big-M."""
    big = global_big_m(net)
    cpvis, cvis = [], []
    for cycle in fundamental_cycle_basis(net):
        for m, n in itertools.combinations(cycle.buses, 2):
            cpvis.append(build_cpvi(split_cycle(net, cycle, m, n), big))
        for size in range(1, len(cycle.lines) + 1):
            for subset in itertools.combinations(cycle.lines, size):
                cut = build_cvi(net, cycle, subset)
                if cut is not None:
                    cvis.append(cut)
    return cpvis, cvis


# demand and cost may need scaling; a bound must have an exact decimal
AWKWARD = [F(0), F(1, 3), F(2, 7), F(5, 2), F(10**20 + 1), F(10**19 + 7, 3), F(123456789012345678901, 1000)]
AWKWARD_MAX = [F(0), F(3), F(5, 2), F(10**20 + 1), F(123456789012345678901, 1000)]


def priced_net(seed: int) -> Network:
    """conftest.random_net(seed) with seeded demands, costs and capacities
    drawn from values that need scaling or have more than 18 digits."""
    net = random_net(seed)
    rng = random.Random(seed)
    buses = tuple(
        replace(bus, demand=rng.choice(AWKWARD), gen_max=rng.choice(AWKWARD_MAX), gen_cost=rng.choice(AWKWARD))
        for bus in net.buses
    )
    return Network(buses, net.lines)


def lifted_model(pair, big_m) -> MilpModel:
    """The pair's lifted system merged into an empty model under prefix 'ext'."""
    model = MilpModel()
    merge_models(model, build_extended(pair, big_m), "ext")
    return model


def assert_reads_back(model: MilpModel) -> None:
    lp = read_lp_text(lp_text(model))
    scale = lp["objective_scale"]
    objective = [(var, c) for var, c in model.objective if c != 0]
    assert [(var, c / (scale or 1)) for var, c in lp["objective"]] == objective
    if scale is not None:
        assert scale > 0 and all(c.denominator == 1 for _, c in lp["objective"])
    assert len(lp["rows"]) == len(model.constraints)
    for (name, coeffs, sense, rhs, scale), con in zip(lp["rows"], model.constraints):
        assert (name, sense) == (con.name, con.sense)
        assert [(var, c / (scale or 1)) for var, c in coeffs] == list(con.coeffs)
        assert rhs / (scale or 1) == con.rhs
        if scale is not None:
            assert scale > 0 and all(c.denominator == 1 for _, c in coeffs) and rhs.denominator == 1
    assert lp["bounds"] == {var.name: (var.lower, var.upper) for var in model.variables}
    assert lp["binaries"] == [var.name for var in model.variables if var.kind == "binary"]


def test_lp_text_reads_back_exactly(fig1, triangle):
    mixed6 = load_network((DATA / "mixed6.json").read_bytes())
    for net in (fig1, triangle, mixed6):
        cpvis, cvis = all_cuts(net)
        assert cpvis and cvis
        for bigm in ("global", "bounds"):
            assert_reads_back(build_dcots(net, bigm=bigm))
            assert_reads_back(build_dcots(net, bigm=bigm, cpvis=cpvis, cvis=cvis))
        big = global_big_m(net)
        for cycle in fundamental_cycle_basis(net):
            for m, n in itertools.combinations(cycle.buses, 2):
                assert_reads_back(lifted_model(split_cycle(net, cycle, m, n), big))
    scaled = 0
    for seed in range(40):
        net = priced_net(seed)
        for bigm in ("global", "bounds"):
            model = build_dcots(net, bigm=bigm)
            assert_reads_back(model)
            scaled += "scaled by" in lp_text(model)
        gen_max = F(7, 3) if seed % 2 else F(1, 3)
        awkward = Network((replace(net.buses[0], gen_max=gen_max),) + net.buses[1:], net.lines)
        name = f"g_{net.buses[0].id}"
        with pytest.raises(ValueError, match=f"variable '{name}' bound {gen_max} has no exact decimal form"):
            lp_text(build_dcots(awkward))
    assert scaled == 80  # every seed needs a scaled row or objective


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


# networks that validate but give two elements one LP name: bus ids
# hold '_', and each character outside [A-Za-z0-9_] becomes '_'
NAME_CLASHES = {
    "line-tag": (["a", "b_c", "a_b", "c"], [("a", "b_c"), ("a_b", "c"), ("a", "a_b"), ("b_c", "c")],
                 "lines 0 ('a'-'b_c') and 1 ('a_b'-'c') share the LP name 'f_a_b_c_0'"),
    "bus-stem": (["a-b", "a_b", "c"], [("a-b", "a_b"), ("a_b", "c"), ("a-b", "c")],
                 "buses 'a-b' and 'a_b' share the LP name 'g_a_b'"),
}


def clash_net(name):
    buses, ends, message = NAME_CLASHES[name]
    return make_net([(bus,) for bus in buses], [(a, b, 1, 1) for a, b in ends]), message


@pytest.mark.parametrize("name", NAME_CLASHES)
def test_elements_sharing_an_lp_name_are_refused(name):
    net, message = clash_net(name)
    for build in (build_dcots, brute_force_dcots):
        with pytest.raises(ValidationError, match=re.escape(message)):
            build(net)


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
    ext = build_extended(pair, F(6))
    base = build_dcots(fig1)
    merge_models(base, ext, "ext")
    with pytest.raises(ValueError, match="duplicate variable name 'ext_dtheta'"):
        merge_models(base, ext, "ext")
    # a fresh variable under the same prefix, one constraint name already taken
    clash = MilpModel()
    clash.add_variable("z", "continuous", None, None)
    clash.add_constraint(ext.constraints[0].name, [("z", F(1))], "<=", F(0))
    with pytest.raises(ValueError, match=f"duplicate constraint name 'ext_{ext.constraints[0].name}'"):
        merge_models(base, clash, "ext")


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
    model = lifted_model(pair, F(6))
    text = lp_text(model)
    assert "ext_angle_hi" in text and "ext_z_long_only" in text
    base = build_dcots(fig1)
    merge_models(base, build_extended(pair, F(6)), "ext")
    assert any(v.name == "ext_dtheta" for v in base.variables)


def test_all_active_model_reduces_to_dispatch_lp(triangle):
    """Pinning every status to one must reproduce the exact dispatch LP."""
    model = build_dcots(triangle)
    result = fixed_binary_lp(model, {v.name: 1 for v in model.variables if v.name.startswith("y_")})
    fixed = brute_force_dcots(with_all_lines_fixed(triangle))
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


def congested_net(seed):
    """4-6 buses and at most 7 lines of capacity 1-4, mostly switchable;
    a cheap and a dear generator, demand at every other bus."""
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    ids = [f"v{k}" for k in range(n)]
    ends = [(ids[rng.randrange(k)], ids[k]) for k in range(1, n)]
    ends += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(1, 8 - n))]
    cheap, dear = rng.sample(ids, 2)
    buses = [(b, 0, 6, 1) if b == cheap else (b, 0, 6, 4) if b == dear else (b, rng.randint(1, 2)) for b in ids]
    lines = [(a, b, F(1, rng.randint(1, 3)), rng.randint(1, 4), rng.random() < 0.8) for a, b in ends]
    return make_net(buses, lines)


def model_optimum(model):
    """Least fixed-binary LP value over every binary pattern within the
    bounds, or None when no pattern is feasible."""
    binaries = [var for var in model.variables if var.kind == "binary"]
    values = [range(int(var.lower), int(var.upper) + 1) for var in binaries]
    best = None
    for bits in itertools.product(*values):
        result = fixed_binary_lp(model, {var.name: bit for var, bit in zip(binaries, bits)})
        if result.status == "optimal" and (best is None or result.value < best):
            best = result.value
    return best


@pytest.mark.parametrize("name", ["fig1", "mixed6", "congested1", "congested2", "congested3"])
def test_emitted_model_solves_to_the_brute_force_optimum(fig1, name):
    """The MILP under either big-M, solved exactly pattern by pattern, has
    the optimum that brute-force switching finds in angle space.  On
    congested1 switching lowers the cost; congested3 is infeasible with
    every line in service."""
    if name.startswith("congested"):
        net = congested_net(int(name[-1]))
    else:
        net = fig1 if name == "fig1" else load_network((DATA / "mixed6.json").read_bytes())
    expected = brute_force_dcots(net).cost
    for bigm in ("global", "bounds"):
        assert model_optimum(build_dcots(net, bigm=bigm)) == expected, bigm


@pytest.mark.parametrize("name", ["fig1", "triangle", "congested1", "congested2", "congested3"])
def test_pattern_lp_matches_the_fixed_binary_lp(request, name):
    """Brute force's LP of each topology, with the flows, the statuses and
    the reference angle substituted, has the value of the emitted model's
    LP with only y fixed and every flow a column, plain and with every
    basis cut."""
    net = congested_net(int(name[-1])) if name.startswith("congested") else request.getfixturevalue(name)
    switchable = [idx for idx, line in enumerate(net.lines) if line.switchable]
    for cpvis, cvis in (((), ()), basis_cuts(net)):
        model = build_dcots(net, "global", cpvis, cvis)
        y_names = [var.name for var in model.variables if var.kind == "binary"]  # in line order
        optima = {tuple(active.values()): cost for cost, active, _ in _pattern_optima(net, cpvis, cvis)}
        for bits in itertools.product((1, 0), repeat=len(switchable)):
            active = dict.fromkeys(range(len(net.lines)), 1)
            active.update(zip(switchable, bits))
            expected = fixed_binary_lp(model, dict(zip(y_names, active.values())))
            assert optima.get(tuple(active.values())) == (expected.value if expected.status == "optimal" else None)


# each value or sense the model refuses; unchecked, a float coefficient or
# right-hand side would become its binary fraction (0.1 as 3602879701896397/36028797018963968),
# a bool would become 1, a float bound would end lp_text in an AttributeError,
# and a '>=' or '<' row would be written to the LP text
REFUSED = [
    ("coeff", 0.1, "row 'r': expected an int or Fraction, got float"),
    ("coeff", True, "row 'r': expected an int or Fraction, got bool"),
    ("coeff", False, "row 'r': expected an int or Fraction, got bool"),  # refused before zeros are dropped
    ("coeff", "1", "row 'r': expected an int or Fraction, got str"),
    ("rhs", 0.1, "row 'r': expected an int or Fraction, got float"),
    ("rhs", True, "row 'r': expected an int or Fraction, got bool"),
    ("upper", 0.5, "variable 'x' bound: expected an int or Fraction, got float"),
    ("upper", True, "variable 'x' bound: expected an int or Fraction, got bool"),
    ("lower", "0", "variable 'x' bound: expected an int or Fraction, got str"),
    ("sense", ">=", "row 'r' has sense '>='; only '<=' and '=' rows are allowed"),
    ("sense", "<", "row 'r' has sense '<'; only '<=' and '=' rows are allowed"),
    # unchecked, a misspelt kind is written as a continuous 0-1 variable with no Binary section
    ("kind", "binray", "variable 'x' has kind 'binray'; only 'continuous' and 'binary' are allowed"),
]


@pytest.mark.parametrize("part, value, message", REFUSED, ids=[f"{p}-{v!r}" for p, v, _ in REFUSED])
def test_model_refuses_inexact_values_and_other_senses(part, value, message):
    parts = {"kind": "continuous", "lower": F(0), "upper": F(1), "coeff": F(1), "sense": "<=", "rhs": F(0), part: value}

    def by_methods():
        model = MilpModel()
        model.add_variable("x", parts["kind"], parts["lower"], parts["upper"])
        model.add_constraint("r", [("x", parts["coeff"])], parts["sense"], parts["rhs"])

    def from_lists():
        MilpModel([MilpVariable("x", parts["kind"], parts["lower"], parts["upper"])],
                  [MilpConstraint("r", (("x", parts["coeff"]),), parts["sense"], parts["rhs"])])

    for build in (by_methods, from_lists):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_model_keeps_values_as_given():
    model = MilpModel()
    model.add_variable("x", "continuous", 0, F(5, 2))
    model.add_constraint("r", [("x", 2)], "=", F(1, 3))
    assert model.variables[0].lower == 0 and type(model.variables[0].lower) is int
    assert model.constraints[0].coeffs == (("x", 2),) and type(model.constraints[0].coeffs[0][1]) is int
    assert type(model.constraints[0].rhs) is F
    # a list-built model reads its rows through add_constraint, which drops zero coefficients
    rebuilt = MilpModel(model.variables, [MilpConstraint("r", (("x", 2), ("x", 0)), "=", F(1, 3))])
    assert rebuilt == model


@pytest.mark.parametrize("value, kind", [(0.5, "float"), (True, "bool"), ("1", "str")])
def test_lp_text_refuses_an_inexact_objective(value, kind):
    # unchecked, a float objective would end in an AttributeError and a bool be written as 1;
    # the model refuses it where it takes the objective, so lp_text never meets one
    model = MilpModel()
    model.add_variable("x", "continuous", 0, 1)
    with pytest.raises(ValueError, match=f"objective term 'x': expected an int or Fraction, got {kind}"):
        model.objective = [("x", value)]
    with pytest.raises(ValueError, match=f"objective term 'x': expected an int or Fraction, got {kind}"):
        MilpModel(model.variables, [], [("x", value)])


@pytest.mark.parametrize("objective, message", [
    ([("x", 1), ("x", 2)], "objective term 'x' repeats a variable"),  # lp_text would write 1 x + 2 x, ModelLP keep 2 x
    ([("x", 1), ("x", 0)], "objective term 'x' repeats a variable"),
    ([("nope", 1)], "objective term 'nope' names an undeclared variable"),  # written as LP text, dropped by ModelLP
])
def test_model_refuses_an_objective_lp_text_and_model_lp_read_apart(objective, message):
    model = MilpModel()
    model.add_variable("x", "continuous", 1, 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        model.objective = objective
    assert model.objective == []
    with pytest.raises(ValueError, match=re.escape(message)):
        MilpModel(model.variables, [], objective)
    model.objective = [("x", 2)]
    assert model == MilpModel(model.variables, [], [("x", 2)])
    assert ModelLP(model).objective == [2]


def mixed_value_model() -> MilpModel:
    """Rows whose values fall on both sides of MAX_PLAIN_DIGITS, with 1/3 and
    2 in scaled and plain rows, 2 both as an int and as a Fraction, and a
    bound past the row digit limit, which a bound writes plainly."""
    model = MilpModel()
    model.add_variable("x", "continuous", None, 1234567890123456789)
    model.add_variable("y", "continuous", F(-1, 4), F(1, 2))
    model.add_variable("z", "binary", 0, 1)
    model.objective = [("x", F(1, 3)), ("y", 2)]
    model.add_constraint("third", [("x", F(1, 3)), ("y", 2)], "<=", F(1, 2))
    model.add_constraint("halves", [("x", 2), ("y", F(1, 2))], "<=", 1)
    model.add_constraint("equal", [("x", F(2)), ("y", -1), ("z", F(-5, 4))], "=", F(1, 2))
    model.add_constraint("digits18", [("x", 123456789012345678), ("y", F(-1, 8))], "<=", F(3, 8))
    model.add_constraint("digits19", [("x", 1234567890123456789), ("y", F(-1, 8))], "<=", F(3, 8))
    model.add_constraint("long_decimal", [("x", F(1234567890123456789, 10**19)), ("z", F(1, 2))], "<=", 2)
    model.add_constraint("again", [("x", F(1, 3)), ("z", 2)], "<=", F(1, 3))
    return model


# the text each value's per-occurrence rendering wrote; lp_text now makes each distinct value's text once per call
MIXED_VALUE_LP = r"""Minimize
\ objective scaled by 3
 obj: 1 x + 6 y
Subject To
 third: 2 x + 12 y <= 3  \ scaled by 6
 halves: 2 x + 0.5 y <= 1
 equal: 2 x - 1 y - 1.25 z = 0.5
 digits18: 123456789012345678 x - 0.125 y <= 0.375
 digits19: 9876543120987654312 x - 1 y <= 3  \ scaled by 8
 long_decimal: 1234567890123456789 x + 5000000000000000000 z <= 20000000000000000000  \ scaled by 10000000000000000000
 again: 1 x + 6 z <= 1  \ scaled by 3
Bounds
 -inf <= x <= 1234567890123456789
 -0.25 <= y <= 0.5
 0 <= z <= 1
Binary
 z
End
"""


def test_lp_text_renders_each_distinct_value_as_before():
    model = mixed_value_model()
    assert lp_text(model) == MIXED_VALUE_LP
    # the same values in another first-seen order give the same rows
    model.constraints.reverse()
    assert lp_text(model).splitlines()[4:11] == MIXED_VALUE_LP.splitlines()[4:11][::-1]
