"""The benchmark's workloads: seeded inputs, the operations of one
round, and the check on each operation's output.

Every workload is driven by one caller in a closed loop, in one process
and thread: an operation starts when the previous one has returned.
The five CLI commands run in-process through ``anglecuts.cli.main`` with
stdout and stderr captured; ``brute_force_dcots``, the exact solve no
command exposes, is called directly.  The program sees only the files
(and, for that solve, the network) generated here.  Why each workload
was chosen is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import anglecuts.cli
import anglecuts.oracle
from anglecuts.bounds import global_big_m
from anglecuts.cuts import build_cpvi
from anglecuts.graph import fundamental_cycle_basis, split_cycle
from anglecuts.network import load_network

import checks
import gen


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def call_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # looked up at call time, so the traced run's wrapper applies
        code = anglecuts.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def digest(result) -> str:
    """Digest of what an operation returned: exit code and stdout of
    each CLI call, or the exact optimum of a switching solve."""
    h = hashlib.sha256()
    for part in result if isinstance(result, list) else [result]:
        if isinstance(part, CliResult):
            h.update(f"{part.code}\n".encode() + part.out.encode())
        else:
            h.update(repr((part.cost, sorted(part.generation.items()), sorted(part.flows.items()),
                           sorted(part.angles.items()), sorted(part.y.items()))).encode())
    return h.hexdigest()


@dataclass
class Op:
    kind: str  # the latency sample goes to this operation kind
    key: str  # identity of the input; equal keys must give equal outputs
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    kinds: tuple[str, ...]
    round_ops: Callable[[int], list[Op]]  # the operations of round r


def _write(path: Path, doc: dict) -> str:
    path.write_text(gen.dumps(doc), encoding="utf-8")
    return str(path)


# Sizes the benchmark runs at; the tests run the same code on small ones.
GRID_MODEL = {"grid": 20, "bounds_grid": 12, "cuts": 48, "validates": 5}
CUT_LOOP = {"cpvi_grid": 8, "cvi_grid": 3, "points": 200, "per_round": 25}
EXACT_ORACLES = {"rings": (4, 5), "mesh": True, "dcots_grid": 3, "dcots_switchable": 5}


def grid_model(seed: int, work: Path, sizes: dict = GRID_MODEL) -> Workload:
    """validate and emit on a large grid, bounds on the 144-bus size."""
    net = gen.grid(sizes["grid"], seed)
    small = gen.grid(sizes["bounds_grid"], seed)
    net_path = _write(work / "grid.json", net)
    small_path = _write(work / "bounds_grid.json", small)
    cuts_path = work / "grid_cuts.jsonl"
    # a steep point violates many cuts; steeper ones for the rare seed whose
    # point violates too few
    for spread in (2, 4, 8):
        point = gen.point_stream(net, seed, 1, "setup", spread)[0]
        res = call_cli(["cuts", net_path, "--point", _write(work / "grid_point.json", point), "--kind", "cpvi"])
        found = res.out.splitlines()
        if res.code != 0 or len(found) >= sizes["cuts"]:
            break
    if res.code != 0 or len(found) < sizes["cuts"]:
        raise RuntimeError(f"set-up separation gave exit {res.code} and {len(found)} cuts, "
                           f"{sizes['cuts']} needed")
    # the most violated cuts, a fixed number so the model size is seed-independent
    cuts_path.write_text("\n".join(found[: sizes["cuts"]]) + "\n", encoding="utf-8")
    n_cuts = sizes["cuts"]
    # validate is short, so a round runs it several times for a steadier median
    ops = [Op("validate", "validate", lambda: call_cli(["validate", net_path]),
              lambda r: checks.validate(net, r))] * sizes["validates"]
    ops += [
        Op("bounds", "bounds", lambda: call_cli(["bounds", small_path]),
           lambda r: checks.bounds(small, r)),
        Op("emit_global", "emit_global", lambda: call_cli(["emit", net_path, "--bigm", "global"]),
           lambda r: checks.emit(net, 0, r)),
        Op("emit_bounds", "emit_bounds",
           lambda: call_cli(["emit", net_path, "--bigm", "bounds", "--cuts", str(cuts_path)]),
           lambda r: checks.emit(net, n_cuts, r)),
    ]
    return Workload(("validate", "bounds", "emit_global", "emit_bounds"), lambda r: ops)


def cut_loop(seed: int, work: Path, sizes: dict = CUT_LOOP) -> Workload:
    """A stream of fractional points, each separated with cpvi over the
    fundamental basis of one grid and cvi over every cycle of another."""
    cpvi_net = gen.grid(sizes["cpvi_grid"], seed)
    cvi_net = gen.grid(sizes["cvi_grid"], seed)
    cpvi_path = _write(work / "cpvi_grid.json", cpvi_net)
    cvi_path = _write(work / "cvi_grid.json", cvi_net)
    count = sizes["points"]
    cpvi_points = gen.point_stream(cpvi_net, seed, count, "cpvi")
    cvi_points = gen.point_stream(cvi_net, seed, count, "cvi")
    ops = []
    for k in range(count):
        cpvi_point = _write(work / f"cpvi_point_{k}.json", cpvi_points[k])
        cvi_point = _write(work / f"cvi_point_{k}.json", cvi_points[k])
        ops.append(Op("cuts_cpvi", f"cpvi:{k}",
                      lambda p=cpvi_point: call_cli(["cuts", cpvi_path, "--point", p, "--kind", "cpvi"]),
                      lambda r, pt=cpvi_points[k]: checks.cuts_cpvi(pt, r)))
        ops.append(Op("cuts_cvi", f"cvi:{k}",
                      lambda p=cvi_point: call_cli(["cuts", cvi_path, "--point", p, "--kind", "cvi",
                                                    "--all-cycles"]),
                      lambda r, pt=cvi_points[k]: checks.cuts_cvi(cvi_net, pt, r)))
    per_round = 2 * sizes["per_round"]

    def round_ops(r: int) -> list[Op]:
        # consecutive slices of the stream, wrapping round when it runs out
        start = (r * per_round) % len(ops)
        return (ops + ops)[start:start + per_round]

    return Workload(("cuts_cpvi", "cuts_cvi"), round_ops)


def exact_oracles(seed: int, work: Path, sizes: dict = EXACT_ORACLES) -> Workload:
    """certify on small rings and a two-cycle mesh; brute-force switching
    on a small grid, plain and with every basis cpvi appended."""
    certify_paths = [_write(work / f"ring{n}.json", gen.ring(n, seed)) for n in sizes["rings"]]
    if sizes["mesh"]:
        certify_paths.append(_write(work / "mesh.json", gen.two_cycle_mesh(seed)))
    doc = gen.switching_grid(sizes["dcots_grid"], sizes["dcots_switchable"], seed)
    net = load_network(gen.dumps(doc))
    big_m = global_big_m(net)
    cpvis = [
        build_cpvi(split_cycle(net, cycle, cycle.buses[i], cycle.buses[j]), big_m)
        for cycle in fundamental_cycle_basis(net)
        for i in range(len(cycle.buses))
        for j in range(i + 1, len(cycle.buses))
    ]
    plain: dict[str, object] = {}

    def check_plain(result) -> str | None:
        plain["cost"] = result.cost
        return checks.dcots(doc, result)

    def check_cuts(result) -> str | None:
        if result.cost != plain.get("cost"):
            return f"cost with cuts {result.cost} differs from the plain optimum {plain.get('cost')}"
        return checks.dcots(doc, result)

    ops = [
        Op("certify", "certify",
           lambda: [call_cli(["certify", path, "--max-cycle", "5"]) for path in certify_paths],
           checks.certify),
        Op("dcots", "dcots", lambda: anglecuts.oracle.brute_force_dcots(net), check_plain),
        Op("dcots_cuts", "dcots_cuts", lambda: anglecuts.oracle.brute_force_dcots(net, cpvis=cpvis),
           check_cuts),
    ]
    return Workload(("certify", "dcots", "dcots_cuts"), lambda r: ops)


SETUPS: dict[str, Callable[..., Workload]] = {
    "grid-model": grid_model,
    "cut-loop": cut_loop,
    "exact-oracles": exact_oracles,
}
