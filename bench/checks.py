"""Correctness checks on each benchmark operation's output.

Each check recomputes something the program reports from the generated
input alone, with code independent of the program: pair bounds by its
own shortest-path search, LP row and variable counts by formula, each
cut's violation from its own JSON coefficients, and a switching
optimum's feasibility and cost.  A check returns None on success and a
message naming the fault otherwise.
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction

TOLERANCE = Fraction(1, 1000000)  # the CLI's default --tolerance


def _weights(doc: dict) -> list[Fraction]:
    return [Fraction(ln["capacity"]) * Fraction(ln["reactance"]) for ln in doc["lines"]]


def _exit(res, expected: int) -> str | None:
    if res.code != expected:
        return f"exit code {res.code}, expected {expected}: {res.err.strip()[-200:]}"
    return None


def validate(doc: dict, res) -> str | None:
    expect = {
        "buses": len(doc["buses"]),
        "lines": len(doc["lines"]),
        "switchable": sum(1 for ln in doc["lines"] if ln["switchable"]),
        "connected": True,
    }
    if (err := _exit(res, 0)) is not None:
        return err
    got = json.loads(res.out)
    return None if got == expect else f"validate reported {got}, expected {expect}"


def _fixed_distances(doc: dict, source: str, weights: list[Fraction]) -> dict[str, Fraction]:
    adj: dict[str, list[tuple[str, Fraction]]] = {}
    for ln, w in zip(doc["lines"], weights):
        if not ln["switchable"]:
            adj.setdefault(ln["from"], []).append((ln["to"], w))
            adj.setdefault(ln["to"], []).append((ln["from"], w))
    dist = {source: Fraction(0)}
    heap = [(Fraction(0), source)]
    while heap:
        d, bus = heapq.heappop(heap)
        if d > dist[bus]:
            continue
        for other, w in adj.get(bus, ()):
            if other not in dist or d + w < dist[other]:
                dist[other] = d + w
                heapq.heappush(heap, (d + w, other))
    return dist


def bounds(doc: dict, res) -> str | None:
    """Every pair's bound is the shortest path over non-switchable lines,
    else the sum of all line weights."""
    if (err := _exit(res, 0)) is not None:
        return err
    report = json.loads(res.out)
    weights = _weights(doc)
    big_m = sum(weights, Fraction(0))
    if Fraction(report["global_M"]) != big_m:
        return f"global_M {report['global_M']}, expected {big_m}"
    ids = [bus["id"] for bus in doc["buses"]]
    expect = []
    for i, m in enumerate(ids):
        dist = _fixed_distances(doc, m, weights)
        for n in ids[i + 1:]:
            if n in dist:
                expect.append((m, n, dist[n], "shortest_path_active"))
            else:
                expect.append((m, n, big_m, "trivial_m"))
    got = [(p["m"], p["n"], Fraction(p["bound"]), p["source"]) for p in report["pairs"]]
    if len(got) != len(expect):
        return f"{len(got)} pair bounds, expected {len(expect)}"
    for g, e in zip(got, expect):
        if g != e:
            return f"pair bound {g}, expected {e}"
    return None


def emit(doc: dict, n_cuts: int, res) -> str | None:
    """Rows: a balance row per bus, four rows per line, the reference
    row and two rows per cut.  Variables: generation and angle per bus,
    flow and status per line."""
    if (err := _exit(res, 0)) is not None:
        return err
    lines = res.out.split("\n")
    try:
        rows = lines.index("Bounds") - lines.index("Subject To") - 1
        n_vars = (lines.index("Binary") if "Binary" in lines else lines.index("End")) - lines.index("Bounds") - 1
    except ValueError:
        return "LP text lacks a Subject To, Bounds or End section"
    n_bus, n_line = len(doc["buses"]), len(doc["lines"])
    expect_rows = n_bus + 4 * n_line + 1 + 2 * n_cuts
    expect_vars = 2 * n_bus + 2 * n_line
    if (rows, n_vars) != (expect_rows, expect_vars):
        return f"LP has {rows} rows and {n_vars} variables, expected {expect_rows} and {expect_vars}"
    return None


def _cut_lines(res) -> list[dict]:
    return [json.loads(line) for line in res.out.splitlines() if line.strip()]


def _check_violations(found: list[tuple[Fraction, Fraction]]) -> str | None:
    """found holds (reported, recomputed) violations in output order."""
    for k, (reported, recomputed) in enumerate(found):
        if reported != recomputed:
            return f"cut {k}: reported violation {reported}, recomputed {recomputed}"
        if recomputed <= TOLERANCE:
            return f"cut {k}: violation {recomputed} does not exceed the tolerance"
    reported = [r for r, _ in found]
    if reported != sorted(reported, reverse=True):
        return "cuts are not ordered most violated first"
    return None


def _rhs(cut: dict, y: dict) -> Fraction:
    return Fraction(cut["constant"]) + sum(
        (Fraction(c) * Fraction(y[line]) for line, c in cut["y_coeffs"].items()), Fraction(0)
    )


def cuts_cpvi(point: dict, res) -> str | None:
    if (err := _exit(res, 0)) is not None:
        return err
    found = []
    for cut in _cut_lines(res):
        m, n = cut["pair"]
        lhs = abs(Fraction(point["theta"][n]) - Fraction(point["theta"][m]))
        found.append((Fraction(cut["violation"]), lhs - _rhs(cut, point["y"])))
    return _check_violations(found)


def cuts_cvi(doc: dict, point: dict, res) -> str | None:
    if (err := _exit(res, 0)) is not None:
        return err
    found = []
    for cut in _cut_lines(res):
        lhs = abs(sum(
            (sign * Fraction(point["f"][line]) * Fraction(doc["lines"][int(line)]["reactance"])
             for line, sign in cut["flow_signs"].items()),
            Fraction(0),
        ))
        found.append((Fraction(cut["violation"]), lhs - _rhs(cut, point["y"])))
    return _check_violations(found)


def certify(results) -> str | None:
    """The suite fails by design: every cpvi_with_fallback adjudication
    is refuted and every other claim passes, so the exit code is 1."""
    for res in results:
        if (err := _exit(res, 1)) is not None:
            return err
        report = json.loads(res.out)
        if not report:
            return "certify reported nothing"
        for entry in report:
            expected = entry.get("candidate") != "cpvi_with_fallback"
            if entry["passed"] != expected:
                return (f"claim {entry['claim']} [{entry.get('candidate')}] on cycle {entry['cycle']} "
                        f"pair {entry['pair']}: passed={entry['passed']}, expected {expected}")
    return None


def dcots(doc: dict, result) -> str | None:
    """The reported optimum is a feasible dispatch with the reported cost."""
    buses = {bus["id"]: bus for bus in doc["buses"]}
    cost = sum((Fraction(buses[b]["gen_cost"]) * g for b, g in result.generation.items()), Fraction(0))
    if cost != result.cost:
        return f"cost {result.cost} does not match the dispatch ({cost})"
    balance = {b: g - Fraction(buses[b]["demand"]) for b, g in result.generation.items()}
    for idx, ln in enumerate(doc["lines"]):
        flow = result.flows[idx]
        on = result.y[idx]
        if not ln["switchable"] and on != 1:
            return f"non-switchable line {idx} is off"
        if abs(flow) > Fraction(ln["capacity"]) * on:
            return f"line {idx} carries {flow} beyond its capacity"
        if on and flow * Fraction(ln["reactance"]) != result.angles[ln["from"]] - result.angles[ln["to"]]:
            return f"line {idx}: flow does not follow the angle difference"
        balance[ln["from"]] -= flow
        balance[ln["to"]] += flow
    for bus, g in result.generation.items():
        if not 0 <= g <= Fraction(buses[bus]["gen_max"]):
            return f"bus {bus}: generation {g} outside its range"
    if any(balance.values()):
        return f"power balance fails at {[b for b, v in balance.items() if v]}"
    return None
