import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import anglecuts
from anglecuts import cli, oracle
from anglecuts.bounds import BoundReport, BoundSource, PairBound, bound_report, global_big_m
from anglecuts.cli import main
from anglecuts.cuts import build_cpvi, build_cvi, cpvi_to_json, cvi_to_json
from anglecuts.graph import Cycle, fundamental_cycle_basis, split_cycle
from anglecuts.network import load_network, serialize_network

from conftest import DATA, make_net, ring_net
from test_milp import NAME_CLASHES, clash_net

FIG1 = str(DATA / "fig1.json")
MIXED6 = str(DATA / "mixed6.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_net(tmp_path, net, name="net.json"):
    path = tmp_path / name
    path.write_text(serialize_network(net))
    return str(path)


def write_point(tmp_path, theta, y, flows=None, name="point.json"):
    doc = {"theta": theta, "y": y}
    if flows is not None:
        doc["f"] = flows
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- validate ----------------------------------------------------------------


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", FIG1)
    assert code == 0
    assert json.loads(out) == {"buses": 6, "lines": 6, "switchable": 6, "connected": True}
    assert "6 buses, 6 lines, connected" in err


def test_validate_disconnected_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "buses": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "lines": [{"from": "a", "to": "b", "reactance": "1", "capacity": "1"}],
    }))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "'c'" in json.loads(out)["message"]


def test_validate_malformed_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2


def test_validate_integer_literal_too_long_exit_2(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"buses": [{"id": "a", "gen_cost": ' + "9" * 5000 + "}]}")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "parse"


def test_validate_not_utf8_exit_2(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "parse"


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "validate", "/nonexistent/net.json")
    assert code == 2


# -- bounds -------------------------------------------------------------------


def test_bounds_fig1_fixed(capsys, tmp_path, fig1_fixed):
    path = write_net(tmp_path, fig1_fixed)
    code, out, _ = run(capsys, "bounds", path)
    assert code == 0
    report = json.loads(out)
    assert report["global_M"] == "6"
    entry = next(p for p in report["pairs"] if (p["m"], p["n"]) == ("i0", "i4"))
    assert entry["bound"] == "2" and entry["source"] == "shortest_path_active"


def test_bounds_all_switchable_trivial(capsys):
    code, out, _ = run(capsys, "bounds", FIG1)
    report = json.loads(out)
    assert all(p["bound"] == "6" and p["source"] == "trivial_m" for p in report["pairs"])


def test_bounds_out_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run(capsys, "bounds", FIG1, "--out", str(tmp_path / "b.json"))
    assert code == 0 and out == ""
    code2, out2, _ = run(capsys, "bounds", FIG1, "--out", "-")
    assert json.loads(out2)["global_M"] == "6"
    assert (tmp_path / "b.json").read_text().strip() == out2.strip()


# bus ids the JSON encoder must escape: quotes, backslashes, control
# characters, and text outside ASCII, in and past the basic plane
ODD_IDS = ['q"uote', "back\\slash", "tab\tnl\n", "\x00\x1f\x7f", "é", "電", "\U0001f600", " "]


def test_bounds_writes_the_bytes_of_json_dumps(capsys, tmp_path):
    net = make_net([(bus,) for bus in ODD_IDS],
                   [(a, b, 1, k + 1, k % 2 == 0) for k, (a, b) in enumerate(zip(ODD_IDS, ODD_IDS[1:]))])
    one_bus = load_network('{"buses": [{"id": "on\\"ly"}]}')
    for net in (net, one_bus):
        path = write_net(tmp_path, net)
        code, out, _ = run(capsys, "bounds", path)
        assert code == 0 and out == json.dumps(bound_report(net).to_json(), indent=2) + "\n"
    assert out.endswith('"pairs": []\n}\n')


@given(st.fractions(), st.lists(st.tuples(st.text(), st.text(), st.fractions(), st.sampled_from(BoundSource)), max_size=6))
@example(F(10), [])
@example(F(-7, 3), [(ODD_IDS[k], ODD_IDS[k + 1], F(k % 3, 2), source)
                    for k, source in zip(range(6), itertools.cycle(BoundSource))])
@example(F(0), [("", "", F(1), BoundSource.TRIVIAL_M), ("", 'q"', F(2, 2), BoundSource.SHORTEST_PATH_ACTIVE)])
def test_bounds_text_is_json_dumps_with_indent(global_m, rows):
    # free-text bus ids, repeated and distinct bounds, both sources
    report = BoundReport(global_m, tuple(PairBound(*row) for row in rows))
    assert cli._bounds_text(report) == json.dumps(report.to_json(), indent=2)


# -- cuts ---------------------------------------------------------------------


def interior_point(tmp_path):
    theta = {f"i{k}": "0" for k in range(6)}
    y = {str(k): "1/2" for k in range(6)}
    return write_point(tmp_path, theta, y)


def test_cuts_interior_point_empty(capsys, tmp_path):
    code, out, err = run(capsys, "cuts", FIG1, "--point", interior_point(tmp_path))
    assert code == 0 and out == ""
    assert "0 violated" in err


def test_cuts_single_violation(capsys, tmp_path):
    theta = {f"i{k}": "0" for k in range(6)}
    theta["i4"] = "2"
    theta["i5"] = "1"
    point = write_point(tmp_path, theta, {str(k): "1" for k in range(6)})
    code, out, _ = run(capsys, "cuts", FIG1, "--point", point)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    cut = json.loads(lines[0])
    assert cut["kind"] == "cpvi" and cut["violation"] == "1"
    assert set(cut["pair"]) == {"i3", "i4"}


def test_cuts_cvi_kind(capsys, tmp_path):
    theta = {f"i{k}": "0" for k in range(6)}
    y = {str(k): "1" for k in range(6)}
    flows = {"0": "0", "1": "1", "2": "1", "3": "0", "4": "1", "5": "-1"}
    point = write_point(tmp_path, theta, y, flows)
    code, out, _ = run(capsys, "cuts", FIG1, "--point", point, "--kind", "cvi")
    assert code == 0
    cuts = [json.loads(line) for line in out.strip().splitlines()]
    assert cuts
    # the two-arc partition subset from the worked example is among them
    assert any(c["subset"] == [1, 2, 4, 5] for c in cuts)


def test_cuts_both_kinds_and_tolerance(capsys, tmp_path):
    theta = {f"i{k}": "0" for k in range(6)}
    theta["i4"] = "3"
    y = {str(k): "1" for k in range(6)}
    flows = {str(k): "0" for k in range(6)}
    point = write_point(tmp_path, theta, y, flows)
    code, out, _ = run(capsys, "cuts", FIG1, "--point", point, "--kind", "both")
    kinds = {json.loads(line)["kind"] for line in out.strip().splitlines()}
    assert kinds == {"cpvi"}  # zero flows violate no flow cut
    code, out, _ = run(capsys, "cuts", FIG1, "--point", point, "--tolerance", "3/2")
    from fractions import Fraction

    violations = [json.loads(line)["violation"] for line in out.strip().splitlines()]
    assert violations and all(Fraction(v) > Fraction(3, 2) for v in violations)


def test_cuts_all_cycles_flag(capsys, tmp_path, triangle):
    # the mesh has non-basis cycles; --all-cycles may only add results
    net = make_net(
        [("a",), ("b",), ("c",), ("d",)],
        [("a", "b", 1, 1), ("b", "c", 1, 1), ("a", "c", 1, 1), ("c", "d", 1, 1), ("b", "d", 1, 1)],
    )
    path = write_net(tmp_path, net)
    theta = {"a": "0", "b": "5/2", "c": "0", "d": "0"}
    y = {str(k): "1" for k in range(5)}
    point = write_point(tmp_path, theta, y)
    _, out_basis, _ = run(capsys, "cuts", path, "--point", point)
    _, out_all, _ = run(capsys, "cuts", path, "--point", point, "--all-cycles")
    assert len(out_all.strip().splitlines()) >= len(out_basis.strip().splitlines())


def test_cuts_bad_point_exit_2(capsys, tmp_path):
    path = tmp_path / "pt.json"
    path.write_text(json.dumps({"theta": {"zz": "0"}, "y": {}}))
    code, _, err = run(capsys, "cuts", FIG1, "--point", str(path))
    assert code == 2 and "unknown bus" in err


def test_cuts_negative_tolerance_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "cuts", FIG1, "--point", interior_point(tmp_path), "--tolerance", "-1")
    assert code == 2 and out == ""
    assert err == "input error: tolerance -1 is not an exact rational of at least 0\n"


# a point over mixed6 with every entry, and the errors that points omitting
# some entries give, as recorded before separation was pruned
MIXED6_POINT = {
    "theta": {"a": "0", "b": "1/2", "c": "-3", "d": "2", "e": "7/3", "f": "-1"},
    "y": {str(k): v for k, v in enumerate(["1", "1/2", "1", "1/3", "1", "0", "1", "2/3"])},
    "f": {str(k): v for k, v in enumerate(["1", "-2", "3/2", "1/4", "5", "-1", "2", "1/3"])},
}
MISSING_ENTRIES = [
    ("cpvi", [], {"theta": ["d"]}, "point has no angle for bus 'd'"),
    ("cpvi", [], {"theta": ["e", "c"]}, "point has no angle for bus 'c'"),
    ("cpvi", ["--all-cycles"], {"theta": ["f"]}, "point has no angle for bus 'f'"),
    ("cpvi", [], {"y": ["2", "6"]}, "point has no y value for line 2"),
    ("cvi", ["--all-cycles"], {"f": ["4"]}, "point has no flow for line 4"),
    ("cvi", ["--all-cycles"], {"f": ["6", "4"]}, "point has no flow for line 4"),
    ("cvi", ["--all-cycles"], {"f": ["7", "5"]}, "point has no flow for line 5"),
    ("cvi", [], {"f": ["0", "2"]}, "point has no flow for line 2"),
    ("cvi", ["--all-cycles"], {"y": ["5"]}, "point has no y value for line 5"),
    ("cvi", ["--all-cycles"], {"y": ["6", "3"]}, "point has no y value for line 3"),
    ("cvi", ["--all-cycles"], {"y": ["7"]}, "point has no y value for line 7"),
    ("cvi", ["--all-cycles"], {"y": ["6"], "f": ["3"]}, "point has no flow for line 3"),
    ("cvi", [], {"y": ["0"], "f": ["2"]}, "point has no flow for line 2"),
    ("cvi", [], {"y": ["0"], "f": ["0"]}, "point has no y value for line 0"),
    ("cvi", [], {"f": None}, "point carries no flows; the flow-space cut needs f values"),
    ("both", [], {"f": None}, "point carries no flows; the flow-space cut needs f values"),
]


@pytest.mark.parametrize("kind, extra, omit, message", MISSING_ENTRIES)
def test_cuts_point_missing_entries(capsys, tmp_path, kind, extra, omit, message):
    doc = json.loads(json.dumps(MIXED6_POINT))
    for name, keys in omit.items():
        if keys is None:
            del doc[name]
        for key in keys or ():
            del doc[name][key]
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cuts", MIXED6, "--point", str(path), "--kind", kind, *extra)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def fig1_cut(kind, big_m=None, ends=("i0", "i3"), **fields):
    """A cut line on fig1's six-cycle with some fields replaced; a cpvi
    for (i0, i3) unless other ends are given, built with global M unless
    big_m is given."""
    net = load_network((DATA / "fig1.json").read_bytes())
    cycle = fundamental_cycle_basis(net)[0]
    if kind == "cpvi":
        obj = cpvi_to_json(build_cpvi(split_cycle(net, cycle, *ends), big_m or global_big_m(net)))
    else:
        obj = cvi_to_json(build_cvi(net, cycle, [1, 2, 4, 5]))
    obj.update(fields)
    return json.dumps(obj) + "\n"


def fake_reordered_cut():
    """fig1's cycle lines with the buses reordered i0,i3,i1,i4,i2,i5: the
    claimed shorter arc from i0 to i3 is line 0 alone, which cuts off the
    plain optimum (|theta_i3 - theta_i0| = 3/2 against a right-hand side of 1)."""
    net = load_network((DATA / "fig1.json").read_bytes())
    fake = Cycle(tuple(range(6)), ("i0", "i3", "i1", "i4", "i2", "i5"), 6)
    return json.dumps(cpvi_to_json(build_cpvi(split_cycle(net, fake, "i0", "i3"), global_big_m(net)))) + "\n"


NEST_DEPTH = 1000
NESTED = "[" * NEST_DEPTH + "]" * NEST_DEPTH
MALFORMED_CASES = [
    ("emit", "cuts.jsonl", "[1, 2]\n", "not a JSON object"),
    ("emit", "cuts.jsonl", '{"kind": "cpvi"}\n', "cycle_lines"),
    ("cuts", "pt.json", '{"theta": ["0"], "y": {}}', "'theta'"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", y_coeffs=[]), "'y_coeffs'"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", y_coeffs={"x": "1"}), "'y_coeffs'"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", cycle_lines=[99, 1, 2, 3, 4, 5]), "'cycle_lines'"),
    ("emit", "cuts.jsonl", fig1_cut("cvi", cycle_lines=[0, 1, 2, 3, 4, -1]), "'cycle_lines'"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", cycle_lines=[0, 0, 2, 3, 4, 5]), "'cycle_lines'"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", cycle_lines=["0", 1, 2, 3, 4, 5]), "'cycle_lines'"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", cycle_buses=["i0", "i1"]), "'cycle_buses'"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", cycle_lines=[0, 1, 2, 3, 4],
                                    cycle_buses=["i0", "i1", "i2", "i3", "i4"]), "'cycle_lines'"),
    ("emit", "cuts.jsonl", fake_reordered_cut(), "'cycle_lines'"),
    ("emit", "cuts.jsonl", fig1_cut("cvi", subset=3), "'subset'"),
    ("emit", "cuts.jsonl", fig1_cut("cvi", subset=[1, 2, 4, 99]), "'subset'"),
    ("emit", "cuts.jsonl", fig1_cut("cvi", y_coeffs={str(k): "999" for k in range(6)}),
     "cvi cut: 'y_coeffs' does not match the cut rebuilt from its provenance"),
    # JSON true equals 1 in Python, so a bool sign must be refused by type
    ("emit", "cuts.jsonl", fig1_cut("cvi", flow_signs={"1": True, "2": 1, "4": 1, "5": -1}),
     "cvi cut: 'flow_signs' does not match the cut rebuilt from its provenance"),
    # derived fields emit does not use are still checked when present
    ("emit", "cuts.jsonl", fig1_cut("cpvi", delta_rho="12345"),
     "cpvi cut: 'delta_rho' does not match the cut rebuilt from its provenance"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", delta_m="12345"),
     "cpvi cut: 'delta_m' does not match the cut rebuilt from its provenance"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", shorter_lines=[5], longer_lines=[0]),
     "cpvi cut: 'shorter_lines' does not match the cut rebuilt from its provenance"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", shorter_lines=[0, True, 2]), "'shorter_lines' entry True is not a line index"),
    ("emit", "cuts.jsonl", fig1_cut("cvi", delta_s="12345"),
     "cvi cut: 'delta_s' does not match the cut rebuilt from its provenance"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", pair="ab"), "'pair'"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", pair=["i0", "zz"]), "'pair'"),
    # the longer arc's weight, below global M and the pair bound (both 6)
    ("emit", "cuts.jsonl", fig1_cut("cpvi", big_m=3), "'big_m' 3 is below the bound 6 on pair i0-i3"),
    # below the longer arc's weight 4, which build_cpvi refuses for library callers
    ("emit", "cuts.jsonl", json.dumps({**json.loads(fig1_cut("cpvi", ends=("i0", "i2"))), "big_m": "3"}) + "\n",
     "cpvi cut: 'big_m': big-M 3 is below the longer-path weight 4 for pair i0-i2"),
    ("cuts", "pt.json", '{"theta": {}, "y": {"x": "1"}}', "'y' key 'x'"),
    ("cuts", "pt.json", '{"theta": {}, "y": {"-1": "1"}}', "'y' key '-1'"),
    ("cuts", "pt.json", '{"theta": {}, "y": {"6": "1"}}', "'y' line index 6 out of range"),
    ("cuts", "pt.json", '{"theta": {}, "y": {}, "f": {"x": "1"}}', "'f' key 'x'"),
    # a line index spelled two ways: the later spelling must not silently win
    ("cuts", "pt.json", '{"theta": {}, "y": {"5": "1", "05": "1/2"}}',
     "point file: 'y' key '05' is not a line index"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", y_coeffs={**json.loads(fig1_cut("cpvi"))["y_coeffs"], "3": "-99", "03": "-4"}),
     "cpvi cut: 'y_coeffs' key '03' is not a line index"),
    ("emit", "cuts.jsonl", fig1_cut("cvi", flow_signs={"1": 1, "2": 1, "4": 1, "05": -1}),
     "cvi cut: 'flow_signs' key '05' is not a line index"),
    ("cuts", "pt.json", '{"theta": {}, "y": {"3": "3/2"}}', "y[3] = 3/2 is outside [0, 1]"),
    # a canonical key past Python's 4300-digit limit on int(), refused before int() reads it
    ("cuts", "pt.json", '{"theta": {}, "y": {"%s": "1"}}' % ("1" * 5000),
     "point file: 'y' key '11111111111111111111'... (5000 characters) is not a line index"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi", y_coeffs={**json.loads(fig1_cut("cpvi"))["y_coeffs"], "2" * 5000: "-4"}),
     "cpvi cut: 'y_coeffs' key '22222222222222222222'... (5000 characters) is not a line index"),
    ("emit", "cuts.jsonl", fig1_cut("cvi", flow_signs={"1": 1, "2": 1, "4": 1, "5" * 5000: -1}),
     "cvi cut: 'flow_signs' key '55555555555555555555'... (5000 characters) is not a line index"),
    ("emit", "net.json", '{"buses": []}', "'buses' must be a nonempty list"),
    ("certify", "net.json", '{"buses": []}', "'buses' must be a nonempty list"),
    # a JSON integer literal past Python's 4300-digit limit on reading integers
    ("cuts", "pt.json", '{"theta": {"i0": %s}, "y": {}}' % ("1" * 5001), "point file: malformed JSON"),
    ("emit", "cuts.jsonl", fig1_cut("cpvi").replace('"big_m": "6"', '"big_m": ' + "1" * 5001),
     "cuts file: line 1: malformed JSON"),
    # nesting too deep for the JSON decoder's recursion
    ("emit", "net.json", NESTED, "input error: malformed JSON"),
    ("cuts", "pt.json", NESTED, "point file: malformed JSON"),
    ("emit", "cuts.jsonl", NESTED + "\n", "cuts file: line 1: malformed JSON"),
    # one line of fig1's six-cycle weighs at most half of it
    ("emit", "cuts.jsonl", fig1_cut("cvi", subset=[1]), "cvi cut: 'subset' weighs at most half the cycle"),
    ("emit", "cuts.jsonl", '{"kind": "cpvj"}\n', "cuts file: line 1: unknown cut kind 'cpvj'"),
    ("emit", "cuts.jsonl", json.dumps({**json.loads(fig1_cut("cpvi")), "big_m": "x"}) + "\n",
     "cuts file: line 1: big_m: not a rational string: 'x'"),
]
MALFORMED_IDS = [
    "cut-line-array",
    "cut-missing-field",
    "point-theta-list",
    "cut-y-coeffs-list",
    "cut-y-coeffs-key",
    "cut-line-out-of-range",
    "cut-line-negative",
    "cut-line-repeated",
    "cut-line-string",
    "cut-buses-short",
    "cut-cycle-open",
    "cut-buses-reordered",
    "cut-subset-int",
    "cut-subset-out-of-range",
    "cut-cvi-y-coeffs-tampered",
    "cut-cvi-flow-signs-tampered",
    "cut-cpvi-delta-rho-tampered",
    "cut-cpvi-delta-m-tampered",
    "cut-cpvi-arcs-tampered",
    "cut-cpvi-arc-bool-entry",
    "cut-cvi-delta-s-tampered",
    "cut-pair-string",
    "cut-pair-off-cycle",
    "cut-big-m-below-pair-bound",
    "cut-big-m-below-longer-arc",
    "point-y-key-name",
    "point-y-key-negative",
    "point-y-key-out-of-range",
    "point-f-key-name",
    "point-y-key-two-spellings",
    "cut-cpvi-y-coeffs-key-two-spellings",
    "cut-cvi-flow-signs-key-leading-zero",
    "point-y-outside-unit-interval",
    "point-y-key-past-digit-limit",
    "cut-cpvi-y-coeffs-key-past-digit-limit",
    "cut-cvi-flow-signs-key-past-digit-limit",
    "network-no-buses-emit",
    "network-no-buses-certify",
    "point-theta-long-integer",
    "cut-big-m-long-integer",
    "network-nested-lists",
    "point-nested-lists",
    "cut-nested-lists",
    "cut-subset-trivial",
    "cut-kind-unknown",
    "cut-big-m-not-rational",
]


@pytest.mark.parametrize("command, name, text, message", MALFORMED_CASES, ids=MALFORMED_IDS)
def test_malformed_input_exit_2(capsys, tmp_path, command, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    if name == "net.json":
        code, _, err = run(capsys, command, str(path))
        prefix = ""
    else:
        # a point-file or cuts-file fault names its file first, and its line: each cut here is on line 1
        flag, prefix = ("--cuts", "cuts file: line 1: ") if command == "emit" else ("--point", "point file: ")
        code, _, err = run(capsys, command, FIG1, flag, str(path))
    assert code == 2
    assert err.startswith(f"input error: {prefix}") and message in err


@pytest.mark.parametrize("flag, content, message", [
    ("--cuts", (fig1_cut("cpvi") + fig1_cut("cvi", delta_s="12345")).encode(),
     "cuts file: line 2: cvi cut: 'delta_s' does not match the cut rebuilt from its provenance"),
    ("--cuts", fig1_cut("cpvi").encode() + b"\n" + fig1_cut("cpvi", pair=["i0", "zz"]).encode(),
     "cuts file: line 3: cpvi cut: 'pair' must list two distinct buses of 'cycle_buses'"),
    ("--cuts", fig1_cut("cvi").encode() + b'{"kind": "cpvi", "pair": "\xe9"}\n',
     "cuts file: line 2: cut document is not UTF-8: 'utf-8' codec can't decode byte 0xe9"),
    ("--point", b'{"theta": {"\xff": "0"}, "y": {}}', "point file: point document is not UTF-8: "),
], ids=["provenance-line-2", "after-a-blank-line", "cuts-not-utf8-line-2", "point-not-utf8"])
def test_a_fault_names_its_file_and_line(capsys, tmp_path, flag, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    code, out, err = run(capsys, "emit" if flag == "--cuts" else "cuts", FIG1, flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {message}")


@pytest.mark.parametrize("argv", [
    ["validate", None],
    ["cuts", FIG1, "--point", None],
    ["emit", FIG1, "--cuts", None],
    ["bounds", FIG1, "--out", None],
    ["certify", FIG1, "--report", None],
], ids=["network", "point", "cuts", "out", "report"])
def test_directory_path_exit_2(capsys, tmp_path, argv):
    code, _, err = run(capsys, *(str(tmp_path) if arg is None else arg for arg in argv))
    assert code == 2
    assert err.startswith("input error: ") and str(tmp_path) in err


def test_emit_accepts_big_m_at_the_pair_bound(capsys, tmp_path, fig1_fixed):
    # with every line fixed, the pair bound of (i0, i3) is the path weight 3
    cut = fig1_cut("cpvi", big_m=3)
    (tmp_path / "cuts.jsonl").write_text(cut)
    code, out, _ = run(capsys, "emit", write_net(tmp_path, fig1_fixed), "--cuts", str(tmp_path / "cuts.jsonl"))
    assert code == 0 and "cpvi_0_i0_i3_hi" in out


# -- emit ---------------------------------------------------------------------


def test_emit_matches_golden(capsys, tmp_path):
    out_path = tmp_path / "fig1.lp"
    code, _, _ = run(capsys, "emit", FIG1, "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (DATA / "fig1_global.lp").read_bytes()


def test_emit_with_cuts_roundtrip(capsys, tmp_path):
    theta = {f"i{k}": "0" for k in range(6)}
    theta["i4"] = "2"
    theta["i5"] = "1"
    point = write_point(tmp_path, theta, {str(k): "1" for k in range(6)})
    cuts_path = tmp_path / "cuts.jsonl"
    code, out, _ = run(capsys, "cuts", FIG1, "--point", point, "--out", str(cuts_path))
    assert code == 0
    code, out, _ = run(capsys, "emit", FIG1, "--cuts", str(cuts_path))
    assert code == 0
    assert "cpvi_0_i3_i4_hi" in out and "cpvi_0_i3_i4_lo" in out


def test_emit_embed_extended(capsys):
    code, out, _ = run(capsys, "emit", FIG1, "--embed-extended")
    assert code == 0 and "ext_0_0_1_z_long_only" in out


def test_emit_embed_extended_matches_golden(capsys, small_ring, tmp_path):
    out_path = tmp_path / "ring3.lp"
    code, _, _ = run(capsys, "emit", small_ring, "--embed-extended", "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (DATA / "ring3_embed_extended.lp").read_bytes()


def test_mixed6_golden_reports_both_sources():
    sources = {p["source"] for p in json.loads((DATA / "mixed6_bounds.json").read_text())["pairs"]}
    assert sources == {"shortest_path_active", "trivial_m"}


@pytest.mark.parametrize(
    "argv, golden",
    [(("bounds",), "mixed6_bounds.json"), (("emit", "--bigm", "bounds"), "mixed6_bounds.lp")],
    ids=["bounds", "emit-bigm-bounds"],
)
def test_mixed6_matches_golden(capsys, tmp_path, argv, golden):
    out_path = tmp_path / golden
    code, _, _ = run(capsys, argv[0], MIXED6, *argv[1:], "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (DATA / golden).read_bytes()


def test_emit_bounds_strategy(capsys, tmp_path, fig1_fixed):
    path = write_net(tmp_path, fig1_fixed)
    code, out, _ = run(capsys, "emit", path, "--bigm", "bounds")
    assert code == 0
    row = next(ln for ln in out.splitlines() if ln.strip().startswith("ohm_hi_i0_i1_0"))
    assert row.strip().endswith("<= 1")  # adjacent fixed line weight, not 6


def fig1_bus(bus, **fields):
    """fig1's network text with some fields of one bus replaced."""
    doc = json.loads((DATA / "fig1.json").read_text())
    next(b for b in doc["buses"] if b["id"] == bus).update(fields)
    return json.dumps(doc)


def test_emit_objective_is_exact(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(fig1_bus("i4", gen_cost="1/3"))
    code, out, _ = run(capsys, "emit", str(path))
    assert code == 0
    assert "Minimize\n\\ objective scaled by 3\n obj: 15 g_i0 + 1 g_i4\nSubject To\n" in out
    path.write_text(fig1_bus("i4", gen_cost=str(10**400)))
    code, out, _ = run(capsys, "emit", str(path))
    assert code == 0
    assert f"Minimize\n\\ objective scaled by 1\n obj: 5 g_i0 + {10**400} g_i4\nSubject To\n" in out


@pytest.mark.parametrize("gen_max", ["7/3", "1/3"])
def test_emit_refuses_a_bound_with_no_exact_decimal(capsys, tmp_path, gen_max):
    path = tmp_path / "net.json"
    path.write_text(fig1_bus("i0", gen_max=gen_max))
    code, out, err = run(capsys, "emit", str(path))
    assert code == 2 and out == ""
    assert f"input error: variable 'g_i0' bound {gen_max} has no exact decimal form" in err


@pytest.mark.parametrize("name", NAME_CLASHES)
def test_emit_refuses_elements_sharing_an_lp_name(capsys, tmp_path, name):
    net, message = clash_net(name)
    path = write_net(tmp_path, net)
    assert run(capsys, "validate", path)[0] == 0
    code, out, err = run(capsys, "emit", path)
    assert code == 1 and out == ""
    assert f"error: {message}" in err


def fig1_line(k, **fields):
    """fig1's network text with some fields of line k replaced."""
    doc = json.loads((DATA / "fig1.json").read_text())
    doc["lines"][k].update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize("command, text, message", [
    ("validate", fig1_bus("i4", gen_cost="1e5000"), "parse error: bus 'i4' gen_cost: decimal exponent in '1e5000'"),
    ("emit", fig1_bus("i0", demand="1e5000"), "input error: bus 'i0' demand: decimal exponent in '1e5000'"),
    ("bounds", fig1_line(0, reactance="1e5000"), "input error: line #0 reactance: decimal exponent in '1e5000'"),
], ids=["validate", "emit", "bounds"])
def test_number_too_long_to_print_exit_2(capsys, tmp_path, command, text, message):
    path = tmp_path / "net.json"
    path.write_text(text)
    code, _, err = run(capsys, command, str(path))
    assert code == 2 and message in err


# -- certify ------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_ring(tmp_path_factory):
    net = ring_net([1, 2, 3])
    path = tmp_path_factory.mktemp("nets") / "ring3.json"
    path.write_text(serialize_network(net))
    return str(path)


def test_certify_reports_all_claims(capsys, small_ring, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, err = run(capsys, "certify", small_ring, "--report", str(report_path))
    report = json.loads(report_path.read_text())
    claims = {entry["claim"] for entry in report}
    assert claims == {"validity", "facet_rank", "local_ideal", "full_dimension", "hull_equality"}
    core = [e for e in report if e["claim"] != "hull_equality"]
    assert all(e["passed"] for e in core)
    # the stated hull description leaks; the completed projection closes it
    with_fallback = [e for e in report if e.get("candidate") == "cpvi_with_fallback"]
    completed = [e for e in report if e.get("candidate") == "completed_projection"]
    assert with_fallback and completed
    assert all(not e["passed"] for e in with_fallback)
    assert all(e["passed"] for e in completed)
    assert code == 1  # honest: one reported claim fails


@pytest.mark.parametrize(
    "network, flags, golden, vertex_work",
    [
        (None, (), "ring3_certify.json", None),
        (None, ("--strict-theorem2",), "ring3_certify_strict.json", None),
        # (enumerate_vertices calls, vertices they return): a change to the
        # vertex kernel or to what certify hands it moves these
        (MIXED6, (), "mixed6_certify.json", (69, 4504)),
    ],
    ids=["default", "strict", "mixed6"],
)
def test_certify_matches_golden(capsys, request, tmp_path, monkeypatch, network, flags, golden, vertex_work):
    network = network or request.getfixturevalue("small_ring")
    work = [0, 0]
    kernel = oracle.enumerate_vertices

    def count(polytope):
        vertices = kernel(polytope)
        work[0] += 1
        work[1] += len(vertices)
        return vertices

    monkeypatch.setattr(oracle, "enumerate_vertices", count)
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "certify", network, *flags, "--report", str(report_path))
    assert code == 1
    assert report_path.read_bytes() == (DATA / golden).read_bytes()
    if vertex_work is not None:
        assert tuple(work) == vertex_work


def test_certify_strict_theorem2(capsys, small_ring):
    code, out, _ = run(capsys, "certify", small_ring, "--strict-theorem2")
    assert code == 1
    report = json.loads(out)
    strict = [e for e in report if e.get("candidate") == "cpvi_only"]
    assert strict and all(not e["passed"] for e in strict)
    assert all(e["witness"] for e in strict)


def test_certify_cap_exceeded_exit_3(capsys, tmp_path):
    net = ring_net([1] * 7)
    path = write_net(tmp_path, net)
    code, _, err = run(capsys, "certify", path, "--max-cycle", "7")
    assert code == 3 and "cap exceeded" in err


def test_certify_refuses_an_over_cap_cycle_before_enumerating(capsys, tmp_path, monkeypatch):
    """Every run adjudicates hull equality, so a 16-line cycle is refused
    before any of its 2^16 activity patterns is enumerated."""
    def refuse(*args):
        raise AssertionError("integer_points was called")

    for module in (cli, oracle):  # the caller's binding and the home module's
        monkeypatch.setattr(module, "integer_points", refuse, raising=False)
    path = write_net(tmp_path, ring_net([1] * 16))
    code, out, err = run(capsys, "certify", path, "--max-cycle", "16")
    assert code == 3 and out == ""
    assert "cap exceeded: cycle size 16 exceeds the hull-equality cap 6" in err


def test_certify_builds_each_pair_relaxation_once(capsys, small_ring, monkeypatch):
    """ring3 has 3 bus pairs: one relaxation and one integer-point enumeration each."""
    calls = {"pair_relaxation": 0, "integer_points": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(oracle, name)):
            calls[_name] += 1
            return _original(*args)

        for module in (cli, oracle):  # the caller's binding and the home module's
            monkeypatch.setattr(module, name, counted, raising=False)
    code, _, _ = run(capsys, "certify", small_ring)
    assert code == 1 and calls == {"pair_relaxation": 3, "integer_points": 3}


def test_certify_skips_oversized_cycles(capsys, tmp_path):
    net = ring_net([1] * 7)
    path = write_net(tmp_path, net)
    code, out, err = run(capsys, "certify", path, "--max-cycle", "5")
    assert code == 0 and json.loads(out) == []
    assert "nothing certified" in err


# -- fuzz -----------------------------------------------------------------------

FUZZ_POINT = {
    "theta": {"i0": "0", "i1": "1/2", "i3": "2", "i4": "2", "i5": "1"},
    "y": {str(k): "1/2" for k in range(6)},
    "f": {str(k): "1/3" for k in range(6)},
}
FUZZ_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**30),
    st.floats(),
    st.sampled_from(["", "0", "1/3", "7/3", "-1", "1/0", "0.5", "1e400", str(10**400), "i0", "i5", "zz"]),
    st.text(max_size=4),
)
FUZZ_KEYS = st.sampled_from(["id", "from", "to", "kind", "pair", "subset", "cycle_lines", "y", "0", "7"]) | st.text(max_size=3)
FUZZ_VALUES = st.recursive(
    FUZZ_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(FUZZ_KEYS, inner, max_size=3),
    max_leaves=6,
)
# walk a path (each step taken modulo the node's children), then set, delete or nest there
FUZZ_EDITS = st.lists(
    st.tuples(st.lists(st.integers(0, 12), max_size=4), st.sampled_from(["set", "delete", "nest"]), FUZZ_VALUES),
    max_size=3,
)
# a nest edit wraps the node in NEST_DEPTH lists; json.dumps cannot recurse
# that deep, so the node is bracketed by markers that _dumps expands
NEST_OPEN, NEST_CLOSE = "\0open", "\0close"


def _edited(doc, edits):
    doc = json.loads(json.dumps(doc))
    for steps, action, value in edits:
        parent, key, node = None, None, doc
        for step in steps:
            if isinstance(node, list):
                keys = list(range(len(node)))
            else:
                keys = list(node) if isinstance(node, dict) else []
            if not keys:
                break
            parent, key = node, keys[step % len(keys)]
            node = node[key]
        if action == "nest":
            value = [NEST_OPEN, node, NEST_CLOSE]
        if parent is None:
            doc = doc if action == "delete" else value
        elif action == "delete":
            del parent[key]
        else:
            parent[key] = value
    return doc


def _dumps(value):
    text = json.dumps(value)
    text = text.replace(f"[{json.dumps(NEST_OPEN)}, ", "[" * NEST_DEPTH)
    return text.replace(f", {json.dumps(NEST_CLOSE)}]", "]" * NEST_DEPTH)


def fuzz_file(doc, lines=False):
    """Texts of `doc` with a few edits, sometimes cut short."""

    def text(edits, cut):
        edited = _edited(doc, edits)
        if lines and isinstance(edited, list):
            body = "".join(_dumps(item) + "\n" for item in edited)
        else:
            body = _dumps(edited)
        return body if cut is None else body[:cut]

    return st.builds(text, FUZZ_EDITS, st.none() | st.integers(0, 300))


FUZZ_NETWORK = (DATA / "fig1.json").read_text()
FUZZ_CUTS = fig1_cut("cpvi") + fig1_cut("cvi")
FUZZ_CORPUS = [
    {"network": FUZZ_NETWORK, "point": json.dumps(FUZZ_POINT), "cuts": FUZZ_CUTS},
    {"network": fig1_bus("i4", gen_cost=str(10**400)), "point": json.dumps(FUZZ_POINT), "cuts": FUZZ_CUTS},
    {"network": fig1_bus("i0", gen_max="7/3"), "point": json.dumps(FUZZ_POINT), "cuts": FUZZ_CUTS},
    {"network": fig1_bus("i0", gen_max="1/3"), "point": json.dumps(FUZZ_POINT), "cuts": FUZZ_CUTS},
    {"network": fig1_line(0, reactance="1e5000"), "point": json.dumps(FUZZ_POINT), "cuts": FUZZ_CUTS},
] + [
    {
        "network": text if name == "net.json" else FUZZ_NETWORK,
        "point": text if name == "pt.json" else json.dumps(FUZZ_POINT),
        "cuts": text if name == "cuts.jsonl" else FUZZ_CUTS,
    }
    for _command, name, text, _message in MALFORMED_CASES
]


def _seed_corpus(test):
    for case in FUZZ_CORPUS:
        test = example(**case)(test)
    return test


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    network=fuzz_file(json.loads(FUZZ_NETWORK)),
    point=fuzz_file(FUZZ_POINT),
    cuts=fuzz_file([json.loads(line) for line in FUZZ_CUTS.splitlines()], lines=True),
)
@_seed_corpus
def test_cli_exit_codes_on_mutated_inputs(network, point, cuts):
    """Whatever the files hold, every subcommand returns 0, 1, 2 or 3."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("net.json", network), ("pt.json", point), ("cuts.jsonl", cuts)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(text)
        net, pt, cut_file = paths["net.json"], paths["pt.json"], paths["cuts.jsonl"]
        for argv in (
            ["validate", net],
            ["bounds", net],
            ["cuts", net, "--point", pt, "--kind", "both", "--all-cycles"],
            ["emit", net, "--bigm", "global", "--cuts", cut_file],
            ["emit", net, "--bigm", "bounds", "--cuts", cut_file],
            ["certify", net, "--max-cycle", "3"],
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv


# -- determinism and process entry -------------------------------------------


def test_outputs_byte_identical_across_runs(capsys, tmp_path):
    theta = {f"i{k}": "0" for k in range(6)}
    theta["i4"] = "3"
    point = write_point(tmp_path, theta, {str(k): "1" for k in range(6)})
    snapshots = []
    for _ in range(3):
        _, bounds_out, _ = run(capsys, "bounds", FIG1)
        _, cuts_out, _ = run(capsys, "cuts", FIG1, "--point", point)
        _, emit_out, _ = run(capsys, "emit", FIG1)
        snapshots.append((bounds_out, cuts_out, emit_out))
    assert snapshots[0] == snapshots[1] == snapshots[2]


def test_one_parser_serves_interleaved_calls(capsys, tmp_path, small_ring):
    # main builds its parser once per process; each call in a mixed sequence
    # must print what it prints when run alone with a parser of its own
    theta = {f"i{k}": "0" for k in range(6)}
    theta["i4"] = "3"
    point = write_point(tmp_path, theta, {str(k): "1" for k in range(6)})
    calls = [
        ("cuts", FIG1, "--point", point),
        ("cuts", FIG1, "--point", point, "--all-cycles", "--tolerance", "1/2"),
        ("validate", FIG1),
        ("cuts", FIG1, "--kind", "cpvi"),  # usage error: no --point
        ("cuts", FIG1, "--point", point, "--tolerance", "3/2"),
        ("--help",),
        ("certify", small_ring, "--strict-theorem2"),
        ("cuts", FIG1, "--point", point, "--all-cycles"),
    ]
    alone = {}
    for argv in calls:
        cli.build_parser.cache_clear()
        alone[argv] = run(capsys, *argv)
    assert {code for code, _, _ in alone.values()} == {0, 1, 2}  # certify --strict-theorem2 refutes a claim
    cli.build_parser.cache_clear()
    for argv in calls + calls[::-1] + calls[::2]:
        assert run(capsys, *argv) == alone[argv], argv
    assert cli.build_parser.cache_info().misses == 1


def test_module_entry_point():
    # the child process imports the package from where this one found it,
    # installed or not
    src = str(Path(anglecuts.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "anglecuts", "validate", FIG1],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["buses"] == 6
