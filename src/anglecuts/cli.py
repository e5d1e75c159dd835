"""Command-line front door.

Subcommands: validate, bounds, cuts, emit, certify.  Machine-readable
JSON goes to stdout (or --out), a one-line human summary to stderr.
Exit codes: 0 success or all certificates pass, 1 domain failure,
2 input error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .bounds import bound_report, global_big_m, pair_bound
from .cuts import (
    FractionalPoint,
    SeparationConfig,
    cpvi_from_json,
    cpvi_to_json,
    cvi_from_json,
    cvi_to_json,
    separate_cpvi,
    separate_cvi,
)
from .errors import AngleCutsError, CapExceededError, ParseError, ValidationError
from .extended import build_extended, project_to_cpvi
from .graph import all_simple_cycles, fundamental_cycle_basis, split_cycle
from .milp import build_dcots, lp_text, merge_models
from .network import line_index, load_network
from .oracle import (
    HULL_CANDIDATES,
    candidate_hull,
    check_hull_cap,
    cpvi_validity_certificate,
    facet_certificate,
    full_dimension_certificate,
    hull_equality,
    integer_points,
    local_idealness_certificate,
    pair_relaxation,
)
from .rational import format_rational, parse_rational

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _emit(payload: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(payload)
        if payload and not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _load_net(path: str):
    with open(path, "rb") as handle:
        return load_network(handle)


def _line_values(doc: dict, name: str, net) -> dict[int, Fraction]:
    """A point-file object keyed by line index, such as 'y' or 'f'."""
    values, where = {}, f"point file: {name!r}"
    for key, value in doc[name].items():
        if (line := line_index(key, where)) >= len(net.lines):
            raise ParseError(f"{where} line index {key} out of range")
        values[line] = parse_rational(value, f"{name}[{key}]")
    return values


def _load_point(path: str, net) -> FractionalPoint:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as exc:  # see network.load_network
            raise ParseError(f"point file: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or "theta" not in doc or "y" not in doc:
        raise ParseError("point file must be an object with 'theta' and 'y'")
    for name in ("theta", "y", "f"):
        value = doc.get(name)
        if not isinstance(value, dict) and not (name == "f" and value is None):
            raise ParseError(f"point file: {name!r} must be an object")
    theta = {}
    for bus, value in doc["theta"].items():
        if bus not in net.bus_index:
            raise ParseError(f"point file: unknown bus {bus!r}")
        theta[bus] = parse_rational(value, f"theta[{bus}]")
    y = _line_values(doc, "y", net)
    flows = None if doc.get("f") is None else _line_values(doc, "f", net)
    return FractionalPoint(theta=theta, y=y, f=flows)


def cmd_validate(args) -> int:
    try:
        net = _load_net(args.network)
    except ParseError as exc:
        _emit(json.dumps({"error": "parse", "message": str(exc)}), None)
        _say(f"parse error: {exc}")
        return EXIT_INPUT
    except ValidationError as exc:
        _emit(json.dumps({"error": "validation", "message": str(exc)}), None)
        _say(f"invalid network: {exc}")
        return EXIT_DOMAIN
    switchable = sum(1 for line in net.lines if line.switchable)
    summary = {
        "buses": len(net.buses),
        "lines": len(net.lines),
        "switchable": switchable,
        "connected": True,
    }
    _emit(json.dumps(summary), None)
    _say(f"{len(net.buses)} buses, {len(net.lines)} lines, connected")
    return EXIT_OK


def _bounds_text(doc: dict) -> str:
    """The bytes of json.dumps(doc, indent=2) for a bound report, with each
    string through the C encoder instead of the pure-Python indenting one."""
    s = functools.cache(json.dumps)  # bus ids, bounds and sources repeat from pair to pair
    pairs = ",\n".join(
        f'    {{\n      "m": {s(p["m"])},\n      "n": {s(p["n"])},\n      "bound": {s(p["bound"])},\n'
        f'      "source": {s(p["source"])}\n    }}' for p in doc["pairs"])
    pairs = f"[\n{pairs}\n  ]" if pairs else "[]"
    return f'{{\n  "global_M": {s(doc["global_M"])},\n  "pairs": {pairs}\n}}'


def cmd_bounds(args) -> int:
    net = _load_net(args.network)
    doc = bound_report(net).to_json()
    _emit(_bounds_text(doc), args.out)
    _say(f"global M = {doc['global_M']}; {len(doc['pairs'])} pair bounds")
    return EXIT_OK


def cmd_cuts(args) -> int:
    net = _load_net(args.network)
    point = _load_point(args.point, net)
    config = SeparationConfig(
        tolerance=parse_rational(args.tolerance, "tolerance"),
        fractional_cycles_only=args.fractional_only,
    )
    cycles = all_simple_cycles(net) if args.all_cycles else fundamental_cycle_basis(net)
    lines = []
    if args.kind in ("cpvi", "both"):
        for cut, violation in separate_cpvi(net, cycles, point, config):
            lines.append(json.dumps(cpvi_to_json(cut, violation)))
    if args.kind in ("cvi", "both"):
        for cut, violation in separate_cvi(net, cycles, point, config):
            lines.append(json.dumps(cvi_to_json(cut, violation)))
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    _say(f"{len(lines)} violated cut(s)")
    return EXIT_OK


def cmd_emit(args) -> int:
    net = _load_net(args.network)
    cpvis, cvis = [], []
    if args.cuts:
        global_m = global_big_m(net)
        with open(args.cuts, "r", encoding="utf-8") as handle:
            for number, raw in enumerate(handle, 1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    obj = json.loads(raw)
                except (ValueError, RecursionError) as exc:  # see network.load_network
                    raise ParseError(f"cuts file: line {number}: malformed JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise ParseError(f"cuts file: line {number} is not a JSON object")
                if obj.get("kind") == "cpvi":
                    cut = cpvi_from_json(net, obj)
                    # below the global M, the stored big_m must still bound
                    # the pair's angle difference under every topology
                    if cut.big_m < global_m:
                        floor = pair_bound(net, *cut.pair.pair)[0]
                        if cut.big_m < floor:
                            raise ParseError(
                                f"cuts file: line {number}: 'big_m' {format_rational(cut.big_m)} is below "
                                f"the bound {format_rational(floor)} on pair {'-'.join(cut.pair.pair)}"
                            )
                    cpvis.append(cut)
                elif obj.get("kind") == "cvi":
                    cvis.append(cvi_from_json(net, obj))
                else:
                    raise ParseError(f"cuts file: unknown cut kind {obj.get('kind')!r}")
    model = build_dcots(net, bigm=args.bigm, cpvis=cpvis, cvis=cvis)
    if args.embed_extended:
        big_m = global_big_m(net)
        for c_idx, cycle in enumerate(fundamental_cycle_basis(net)):
            buses = list(cycle.buses)
            for i in range(len(buses)):
                for j in range(i + 1, len(buses)):
                    pair = split_cycle(net, cycle, buses[i], buses[j])
                    merge_models(model, build_extended(pair, big_m), f"ext_{c_idx}_{i}_{j}")
    _emit(lp_text(model), args.out)
    _say(f"{len(model.variables)} variables, {len(model.constraints)} rows")
    return EXIT_OK


def cmd_certify(args) -> int:
    net = _load_net(args.network)
    big_m = global_big_m(net)
    names = list(HULL_CANDIDATES)
    reports = []
    all_pass = True
    cycles = [(c_idx, cycle) for c_idx, cycle in enumerate(fundamental_cycle_basis(net)) if len(cycle.lines) <= args.max_cycle]
    for _, cycle in cycles:  # every run adjudicates hull equality: refuse an over-cap cycle before enumerating
        check_hull_cap(len(cycle.lines))
    for c_idx, cycle in cycles:
        buses = list(cycle.buses)
        for i in range(len(buses)):
            for j in range(i + 1, len(buses)):
                pair = split_cycle(net, cycle, buses[i], buses[j])
                model = build_extended(pair, big_m)
                cut = project_to_cpvi(pair, model)
                relax = pair_relaxation(net, pair, big_m)
                points = integer_points(relax)
                checks = [
                    (None, cpvi_validity_certificate(cut, points)),
                    (None, facet_certificate(cut, points, relax)),
                    (None, full_dimension_certificate(relax)),
                    (None, local_idealness_certificate(model)),
                ]
                for name in names[:1] if args.strict_theorem2 else names[1:]:
                    checks.append((name, hull_equality(points, relax, candidate_hull(pair, model, name))))
                for variant, report in checks:
                    entry = report.to_json()
                    entry["cycle"] = c_idx
                    entry["pair"] = list(pair.pair)
                    if variant:
                        entry["candidate"] = variant
                    reports.append(entry)
                    all_pass = all_pass and report.passed
    payload = json.dumps(reports, indent=2)
    _emit(payload, args.report)
    for entry in reports:
        tag = f" [{entry['candidate']}]" if "candidate" in entry else ""
        _say(
            f"{entry['claim']}{tag} cycle {entry['cycle']} pair {entry['pair'][0]}-{entry['pair'][1]}: "
            + ("PASS" if entry["passed"] else "FAIL")
        )
    if not reports:
        _say("no cycles within --max-cycle; nothing certified")
    return EXIT_OK if all_pass else EXIT_DOMAIN


@functools.cache  # one per process: in-process callers run main many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anglecuts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a network file")
    p.add_argument("network")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bounds", help="angle-difference bound report for all bus pairs")
    p.add_argument("network")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cuts", help="separate violated cuts at a fractional point")
    p.add_argument("network")
    p.add_argument("--point", required=True, help="fractional point JSON file")
    p.add_argument("--kind", choices=("cpvi", "cvi", "both"), default="cpvi")
    p.add_argument("--tolerance", default="1/1000000", help="violation threshold (rational)")
    p.add_argument("--all-cycles", action="store_true", help="every simple cycle, not just the fundamental basis")
    p.add_argument("--fractional-only", action="store_true", help="only cycles with a fractional line status")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_cuts)

    p = sub.add_parser("emit", help="write the switching MILP in LP format")
    p.add_argument("network")
    p.add_argument("--bigm", choices=("global", "bounds"), default="global")
    p.add_argument("--cuts", help="cut JSON-lines file to append")
    p.add_argument("--embed-extended", action="store_true", help="embed the lifted per-pair systems (experimental)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("certify", help="run the polyhedral certificate suite")
    p.add_argument("network")
    p.add_argument("--max-cycle", type=int, default=5)
    p.add_argument("--report", default="-")
    p.add_argument("--strict-theorem2", action="store_true", help="adjudicate the cut without the fallback bound")
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        _say(f"input error: {exc}")
        return EXIT_INPUT
    except CapExceededError as exc:
        _say(f"cap exceeded: {exc}")
        return EXIT_CAP
    except (OSError, ValueError) as exc:  # an unreadable or unwritable path, or a bad value
        _say(f"input error: {exc}")
        return EXIT_INPUT
    except AngleCutsError as exc:
        _say(f"error: {exc}")
        return EXIT_DOMAIN


def entry() -> None:
    raise SystemExit(main())
