"""Angle-difference bound tightening and cycle cut generation for
DC optimal transmission switching MILPs."""

from .bounds import BoundReport, BoundSource, bound_report, global_big_m, pair_bound, pair_bounds
from .cuts import (
    CutCPVI,
    CutCVI,
    FractionalPoint,
    SeparationConfig,
    build_cpvi,
    build_cvi,
    cpvi_violation,
    cvi_violation,
    separate_cpvi,
    separate_cvi,
)
from .extended import build_extended, project_to_cpvi
from .graph import (
    Cycle,
    CyclePathPair,
    Path,
    all_simple_cycles,
    fundamental_cycle_basis,
    shortest_path_bound,
    shortest_path_lengths,
    split_cycle,
)
from .milp import MilpModel, build_dcots, lp_text
from .network import Bus, Line, Network, load_network, serialize_network
from .oracle import (
    CertificateReport,
    Claim,
    DcotsResult,
    HPolytope,
    affine_rank,
    brute_force_dcots,
    candidate_hull,
    cpvi_validity_certificate,
    enumerate_vertices,
    facet_certificate,
    full_dimension_certificate,
    hull_equality,
    integer_points,
    local_idealness_certificate,
    pair_relaxation,
)

__version__ = "0.1.0"
