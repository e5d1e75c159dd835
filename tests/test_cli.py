import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anglecuts
from anglecuts.bounds import global_big_m
from anglecuts.cli import main
from anglecuts.cuts import build_cpvi, build_cvi, cpvi_to_json, cvi_to_json
from anglecuts.graph import Cycle, fundamental_cycle_basis, split_cycle
from anglecuts.network import load_network, serialize_network

from conftest import DATA, make_net, ring_net

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


def fig1_cut(kind, **fields):
    """A cut line on fig1's six-cycle with some fields replaced."""
    net = load_network((DATA / "fig1.json").read_bytes())
    cycle = fundamental_cycle_basis(net)[0]
    if kind == "cpvi":
        obj = cpvi_to_json(net, build_cpvi(split_cycle(net, cycle, "i0", "i3"), global_big_m(net)))
    else:
        obj = cvi_to_json(net, build_cvi(net, cycle, [1, 2, 4, 5]))
    obj.update(fields)
    return json.dumps(obj) + "\n"


def fake_reordered_cut():
    """fig1's cycle lines with the buses reordered i0,i3,i1,i4,i2,i5: the
    claimed shorter arc from i0 to i3 is line 0 alone, which cuts off the
    plain optimum (|theta_i3 - theta_i0| = 3/2 against a right-hand side of 1)."""
    net = load_network((DATA / "fig1.json").read_bytes())
    fake = Cycle(tuple(range(6)), ("i0", "i3", "i1", "i4", "i2", "i5"), 6)
    return json.dumps(cpvi_to_json(net, build_cpvi(split_cycle(net, fake, "i0", "i3"), global_big_m(net)))) + "\n"


@pytest.mark.parametrize(
    "command, name, text, message",
    [
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
        ("emit", "cuts.jsonl", fig1_cut("cpvi", pair="ab"), "'pair'"),
        ("emit", "cuts.jsonl", fig1_cut("cpvi", pair=["i0", "zz"]), "'pair'"),
    ],
    ids=[
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
        "cut-pair-string",
        "cut-pair-off-cycle",
    ],
)
def test_malformed_input_exit_2(capsys, tmp_path, command, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    flag = "--cuts" if command == "emit" else "--point"
    code, _, err = run(capsys, command, FIG1, flag, str(path))
    assert code == 2
    assert "input error" in err and message in err


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
    "flags, golden",
    [((), "ring3_certify.json"), (("--strict-theorem2",), "ring3_certify_strict.json")],
    ids=["default", "strict"],
)
def test_certify_matches_golden(capsys, small_ring, tmp_path, flags, golden):
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "certify", small_ring, *flags, "--report", str(report_path))
    assert code == 1
    assert report_path.read_bytes() == (DATA / golden).read_bytes()


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


def test_certify_skips_oversized_cycles(capsys, tmp_path):
    net = ring_net([1] * 7)
    path = write_net(tmp_path, net)
    code, out, err = run(capsys, "certify", path, "--max-cycle", "5")
    assert code == 0 and json.loads(out) == []
    assert "nothing certified" in err


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
