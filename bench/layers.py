"""Which program functions the traced run wraps, and the per-layer
metrics it derives from their spans.

A layer is a module of the ``anglecuts`` package.  Each wrapper is bound
in the namespace the caller looks the function up in: ``cli`` imports
most layer entry points by name at load time, while ``cuts`` and
``oracle`` import ``global_big_m`` and ``build_cpvi`` from their home
modules at call time, which the home-module wrapper covers.
"""

from __future__ import annotations

import anglecuts.bounds
import anglecuts.cli
import anglecuts.cuts
import anglecuts.milp
import anglecuts.oracle
from anglecuts.bounds import BoundSource

LAYERS = ("cli", "network", "graph", "bounds", "cuts", "milp", "extended", "oracle", "simplex", "rational")


def _count_pair_bound(tracer, args, result) -> None:
    if result[1] is BoundSource.SHORTEST_PATH_ACTIVE:
        tracer.counts["bounds.sp_hits"] += 1


def _count_bound_report(tracer, args, result) -> None:
    tracer.counts["bounds.pairs"] += len(result.pairs)


def _count_separated(kind: str):
    def count(tracer, args, result) -> None:
        tracer.counts[f"cuts.{kind}_violated"] += len(result)
    return count


def _count_built(kind: str):
    def count(tracer, args, result) -> None:
        # built during separation only; emit and certify rebuild cuts too
        if result is not None and tracer.current() == f"cuts.separate_{kind}":
            tracer.counts[f"cuts.{kind}_built"] += 1
    return count


def _count_model(tracer, args, result) -> None:
    tracer.counts["milp.rows"] += len(result.constraints)
    tracer.counts["milp.vars"] += len(result.variables)


def _count_lp_text(tracer, args, result) -> None:
    tracer.counts["milp.lp_bytes"] += len(result.encode("utf-8"))
    tracer.counts["milp.scaled_rows"] += result.count("\\ scaled by ")


def _count_vertices(tracer, args, result) -> None:
    tracer.counts["oracle.vertices"] += len(result)


def _count_patterns(tracer, args, result) -> None:
    net = args[0]
    tracer.counts["oracle.patterns"] += 2 ** sum(1 for line in net.lines if line.switchable)


def _count_lp(tracer, args, result) -> None:
    tracer.counts[f"simplex.lp_{result.status}"] += 1
    if tracer.current() == "oracle.brute_force":
        tracer.counts["oracle.pattern_lps"] += 1


def install(tracer) -> None:
    cli, bounds, cuts, milp, oracle = (anglecuts.cli, anglecuts.bounds, anglecuts.cuts,
                                       anglecuts.milp, anglecuts.oracle)
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_network", "network.load")
    tracer.wrap(cli, "fundamental_cycle_basis", "graph.cycle_basis")
    tracer.wrap(cli, "all_simple_cycles", "graph.all_cycles")
    tracer.wrap(bounds, "shortest_path_bound", "graph.shortest_path")
    for module in (cli, cuts):
        tracer.wrap(module, "split_cycle", "graph.split_cycle")
    tracer.wrap(cli, "bound_report", "bounds.bound_report", _count_bound_report)
    for module in (bounds, milp):
        tracer.wrap(module, "pair_bound", "bounds.pair_bound", _count_pair_bound)
    for module in (bounds, cli, milp):
        tracer.wrap(module, "global_big_m", "bounds.global_big_m")
    tracer.wrap(cli, "separate_cpvi", "cuts.separate_cpvi", _count_separated("cpvi"))
    tracer.wrap(cli, "separate_cvi", "cuts.separate_cvi", _count_separated("cvi"))
    tracer.wrap(cuts, "build_cpvi", "cuts.build_cpvi", _count_built("cpvi"))
    tracer.wrap(cuts, "build_cvi", "cuts.build_cvi", _count_built("cvi"))
    tracer.wrap(cli, "cpvi_from_json", "cuts.from_json")
    tracer.wrap(cli, "cvi_from_json", "cuts.from_json")
    tracer.wrap(cli, "build_dcots", "milp.build_dcots", _count_model)
    tracer.wrap(cli, "lp_text", "milp.lp_text", _count_lp_text)
    tracer.wrap(cli, "build_extended", "extended.build_extended")
    tracer.wrap(oracle, "enumerate_vertices", "oracle.enumerate_vertices", _count_vertices)
    tracer.wrap(cli, "hull_equality", "oracle.hull_equality")
    tracer.wrap(cli, "local_idealness_certificate", "oracle.local_ideal")
    tracer.wrap(cli, "facet_certificate", "oracle.facet")
    tracer.wrap(oracle, "integer_points", "oracle.integer_points")
    tracer.wrap(oracle, "brute_force_dcots", "oracle.brute_force", _count_patterns)
    tracer.wrap(oracle, "solve_linear_program", "simplex.lp", _count_lp)
    tracer.wrap(oracle, "matrix_rank", "rational.matrix_rank")


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when the layer did no such work (den == 0)."""
    return num / den if den else 0.0


# (metric, unit) in report order; every traced run reports all of them,
# with 0 for a layer the workload leaves idle
METRICS = (
    ("network.load_s", "s"),
    ("graph.shortest_path_calls", "count"),
    ("graph.shortest_path_s", "s"),
    ("graph.cycle_basis_s", "s"),
    ("graph.all_cycles_s", "s"),
    ("graph.split_cycle_calls", "count"),
    ("graph.split_cycle_s", "s"),
    ("bounds.bound_report_s", "s"),
    ("bounds.pairs", "count"),
    ("bounds.pair_bound_calls", "count"),
    ("bounds.pair_bound_s", "s"),
    ("bounds.global_big_m_calls", "count"),
    ("bounds.sp_hit_ratio", "ratio"),
    ("cuts.separate_cpvi_s", "s"),
    ("cuts.cpvi_built", "count"),
    ("cuts.cpvi_violated", "count"),
    ("cuts.cpvi_yield", "ratio"),
    ("cuts.separate_cvi_s", "s"),
    ("cuts.cvi_built", "count"),
    ("cuts.cvi_violated", "count"),
    ("cuts.cvi_yield", "ratio"),
    ("cuts.from_json_s", "s"),
    ("milp.build_dcots_s", "s"),
    ("milp.rows", "count"),
    ("milp.vars", "count"),
    ("milp.lp_text_s", "s"),
    ("milp.lp_bytes", "bytes"),
    ("milp.scaled_rows", "count"),
    ("extended.build_extended_s", "s"),
    ("oracle.enumerate_vertices_calls", "count"),
    ("oracle.enumerate_vertices_s", "s"),
    ("oracle.vertices", "count"),
    ("oracle.hull_equality_s", "s"),
    ("oracle.local_ideal_s", "s"),
    ("oracle.facet_s", "s"),
    ("oracle.integer_points_s", "s"),
    ("oracle.patterns", "count"),
    ("oracle.cut_resolves", "count"),
    ("oracle.brute_force_s", "s"),
    ("simplex.lp_calls", "count"),
    ("simplex.lp_s", "s"),
    ("simplex.lp_infeasible", "count"),
    ("simplex.lp_optimal_ratio", "ratio"),
    ("rational.matrix_rank_calls", "count"),
    ("rational.matrix_rank_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# metrics that must repeat exactly between traced runs of one seed
COUNT_METRICS = tuple(name for name, unit in METRICS if unit in ("count", "bytes"))


def derive(inclusive, self_time, calls, counts) -> dict[str, float]:
    """Per-layer metrics of one traced round, except trace.overhead_s."""
    out: dict[str, float] = {}
    for name, unit in METRICS:
        if name.endswith(".self_s"):
            out[name] = self_time[name[: -len(".self_s")]]
        elif name.endswith("_s") and unit == "s":
            out[name] = inclusive[name[: -len("_s")]]
        elif name.endswith("_calls"):
            out[name] = calls[name[: -len("_calls")]]
    lp_calls = calls["simplex.lp"]
    out.update({
        "bounds.sp_hit_ratio": _ratio(counts["bounds.sp_hits"], calls["bounds.pair_bound"]),
        "cuts.cpvi_built": counts["cuts.cpvi_built"],
        "cuts.cpvi_violated": counts["cuts.cpvi_violated"],
        "cuts.cpvi_yield": _ratio(counts["cuts.cpvi_violated"], counts["cuts.cpvi_built"]),
        "cuts.cvi_built": counts["cuts.cvi_built"],
        "cuts.cvi_violated": counts["cuts.cvi_violated"],
        "cuts.cvi_yield": _ratio(counts["cuts.cvi_violated"], counts["cuts.cvi_built"]),
        "bounds.pairs": counts["bounds.pairs"],
        "milp.rows": counts["milp.rows"],
        "milp.vars": counts["milp.vars"],
        "milp.lp_bytes": counts["milp.lp_bytes"],
        "milp.scaled_rows": counts["milp.scaled_rows"],
        "oracle.vertices": counts["oracle.vertices"],
        "oracle.patterns": counts["oracle.patterns"],
        "oracle.cut_resolves": counts["oracle.pattern_lps"] - counts["oracle.patterns"],
        "simplex.lp_infeasible": counts["simplex.lp_infeasible"],
        "simplex.lp_optimal_ratio": _ratio(counts["simplex.lp_optimal"], lp_calls),
        "trace.spans": sum(calls.values()),
    })
    return out
