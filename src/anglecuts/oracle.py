"""Exact brute-force machinery certifying the polyhedral claims at desk scale.

Integer-point enumeration for a split cycle, exact vertex enumeration by
the double description method started from the whole space, affine-rank
certificates, hull-equality checks, and an exhaustive switching
enumeration that solves one exact LP per topology, its pinned variables made
constants (``solve_linear_program`` solves its balance rows out).
Hard caps raise CapExceededError rather than degrade.

The per-pair relaxation and every hull candidate are written as integer rows over
(angle difference, y), the lifted model's columns; a candidate's rows are elimination
branches of the lifted model, which ``model_polytope`` reads.
The certificates take the relaxation and its integer points, built once per pair.
Every row, from ``ModelLP`` to ``HPolytope`` and the simplex, is a primitive
integer row (``rational.integer_row``), read once per line state; vertices are
integers (x, w), tested like the integer points in integers: Fractions only in witnesses.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .cuts import CutCPVI, CutCVI
from .errors import AllPatternsInfeasibleError, CapExceededError, UnboundedError
from .extended import eliminate
from .graph import CyclePathPair
from .milp import MilpModel, build_dcots, dcots_names, fixed_topology
from .network import Network
from .rational import _combination, format_rational, integer_row, matrix_rank
from .simplex import Row, solve_linear_program

__all__ = [
    "HPolytope",
    "Claim",
    "CertificateReport",
    "integer_points",
    "enumerate_vertices",
    "affine_rank",
    "facet_certificate",
    "full_dimension_certificate",
    "hull_equality",
    "check_hull_cap",
    "local_idealness_certificate",
    "cpvi_validity_certificate",
    "pair_relaxation",
    "HULL_CANDIDATES",
    "candidate_hull",
    "ModelLP",
    "model_polytope",
    "brute_force_dcots",
    "DcotsResult",
]

VERTEX_DIM_CAP = 12
VERTEX_ROW_CAP = 40
INTEGER_POINT_CAP = 20
HULL_CYCLE_CAP = 6
BRUTE_FORCE_CAP = 12

# the hull candidates by the names certify prints, each with the variables linked in each of
# its elimination branches: --strict-theorem2 runs the first, a default run the rest
_CUT = ("z_long_only", "z_short", "z_long")
HULL_CANDIDATES = {
    "cpvi_only": (_CUT,),
    "cpvi_with_fallback": (_CUT, ()),
    "completed_projection": (_CUT, ("z_short",), ("z_long_only", "z_long"), ()),
}


@dataclass(frozen=True)
class HPolytope:
    """Rows a.x <= b over a fixed dimension, each kept as its primitive
    integer row, which the membership tests and vertex enumeration read.

    The constructor takes exact rationals: a float or bool entry raises
    ValueError naming its row and column, and a row not ``dim`` wide one
    naming the row."""

    rows: tuple[tuple[tuple[int, ...], int], ...]
    dim: int

    def __post_init__(self):
        rows = []
        for k, (coeffs, b) in enumerate(self.rows):
            if len(coeffs) != self.dim:
                raise ValueError(f"row {k}: width {len(coeffs)}, expected {self.dim}")
            nums, rhs = integer_row(coeffs, b, f"row {k}")
            rows.append((tuple(nums), rhs))
        object.__setattr__(self, "rows", tuple(rows))

    def contains(self, x: Sequence[int | Fraction], w: int = 1) -> bool:
        return self.first_violated(x, w) is None

    def first_violated(self, x: Sequence[int | Fraction], w: int = 1) -> int | None:
        """The first row the point x / w (w > 0) violates, or None; an x not all
        ints is put over its common denominator first, which refuses a float."""
        if any(type(v) is not int for v in x):
            x, w = integer_row(x, w, "point")
        return next((k for k, (coeffs, b) in enumerate(self.rows) if sum(map(mul, coeffs, x)) > b * w), None)


class Claim(enum.Enum):
    VALIDITY = "validity"
    FACET_RANK = "facet_rank"
    LOCAL_IDEAL = "local_ideal"
    HULL_EQUALITY = "hull_equality"
    FULL_DIMENSION = "full_dimension"


@dataclass(frozen=True)
class CertificateReport:
    claim: Claim
    passed: bool
    witness: dict | None = None

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError("a failed certificate must carry a witness")

    def to_json(self) -> dict:
        return {"claim": self.claim.value, "passed": self.passed, "witness": self.witness}


def _point_json(x: Iterable[int], w: int) -> list[str]:
    return [format_rational(Fraction(v, w)) for v in x]


def _first_violation(rows: Sequence[tuple[Sequence[int], int]], points: Iterable[tuple[Fraction, tuple[int, ...]]]):
    """The first point (angle difference, bits) to violate an integer row, with that row's index, or None;
    each row's y-part is taken once per run of points with the same bits, as integer_points gives them."""
    for bits, group in itertools.groupby(points, key=lambda point: point[1]):
        slacks = [(coeffs[0], b - sum(map(mul, coeffs[1:], bits))) for coeffs, b in rows]
        for point in group:
            num, den = point[0].numerator, point[0].denominator
            if (k := next((k for k, (a, s) in enumerate(slacks) if a * num > s * den), None)) is not None:
                return point, k


# ---------------------------------------------------------------------------
# integer points of the per-pair relaxation


def integer_points(relax: HPolytope) -> list[tuple[Fraction, tuple[int, ...]]]:
    """All integer-feasible extremes of a pair relaxation: per activity
    pattern, the exact implied bound at both signs plus an interior point at zero.

    The bound is the least right-hand side of the relaxation's upper
    angle rows, those with a positive angle coefficient, with y fixed
    to the pattern and the row divided by that coefficient.  Points are
    (angle difference, activity bits in cycle-line order).
    """
    size = relax.dim - 1
    if size > INTEGER_POINT_CAP:
        raise CapExceededError(f"cycle size {size} exceeds the integer enumeration cap {INTEGER_POINT_CAP}")
    scale = lcm(*(coeffs[0] for coeffs, _ in relax.rows if coeffs[0] > 0))  # the bounds' common denominator
    upper = [(scale // coeffs[0], coeffs[1:], b) for coeffs, b in relax.rows if coeffs[0] > 0]
    points = []
    for bits in itertools.product((0, 1), repeat=size):
        bound = Fraction(min(unit * (b - sum(map(mul, slopes, bits))) for unit, slopes, b in upper), scale)
        points += [(bound, bits), (-bound, bits), (Fraction(0), bits)]
    return points


# ---------------------------------------------------------------------------
# exact vertex enumeration by the double description method


def enumerate_vertices(p: HPolytope) -> list[tuple[tuple[int, ...], int]]:
    """All vertices of a bounded polytope as gcd-reduced integers (x, w), w > 0,
    the points x / w, in those points' sorted order; [] when it is empty.

    The double description method on the cone {(x, w) : a.x <= b*w, w >= 0},
    read from the polytope's integer rows, whose rays with w > 0 are the
    vertices x/w.  It starts from the whole space, a lineality basis of unit
    vectors and no rays, and inserts w >= 0 and then the rows in the
    lexicographic order of their primitive integer rows (a, b), which on
    the lifted models cuts far fewer intermediate rays than the model's
    own order; the order shapes only the intermediate cones.  A
    row that some lineality vector does not annihilate is a Gaussian step:
    the first such vector becomes a ray with positive slack, tight on every
    earlier row, and every other ray and lineality vector moves along it
    onto the row's hyperplane.  Any other row keeps the rays with
    nonnegative slack and cuts a new ray from each adjacent pair across the
    hyperplane; a pair is adjacent when no third ray's tight set contains
    their common one.  Every ray is a gcd-reduced integer vector and every
    slack an integer product, and no Fraction is made.

    No ray with w > 0 means the polytope is empty.  Otherwise a lineality
    vector or a ray with w = 0 is a direction in which it is unbounded, and
    UnboundedError names the first coordinate in which one is nonzero.
    """
    if p.dim > VERTEX_DIM_CAP:
        raise CapExceededError(f"dimension {p.dim} exceeds the vertex enumeration cap {VERTEX_DIM_CAP}")
    if len(p.rows) > VERTEX_ROW_CAP:
        raise CapExceededError(f"{len(p.rows)} rows exceed the vertex enumeration cap {VERTEX_ROW_CAP}")

    size = p.dim + 1
    lineality = [tuple(int(i == j) for i in range(size)) for j in range(size)]
    # keyed by tight mask, bit k for the k-th row inserted: distinct rays of
    # a cone pointed modulo its lineality have distinct tight sets
    rays: dict[int, tuple[int, ...]] = {}
    # each row as (-a, b), so a slack b*w - a.x is one product with (x, w)
    rows = [(0,) * p.dim + (1,), *((*(-c for c in coeffs), b) for coeffs, b in sorted(p.rows))]
    for k, row in enumerate(rows):
        bit = 1 << k
        slacks = [sum(map(mul, row, l)) for l in lineality]
        if any(slacks):
            i = next(i for i, s in enumerate(slacks) if s)
            pivot, s = lineality.pop(i), slacks.pop(i)
            if s < 0:
                pivot, s = tuple(-x for x in pivot), -s
            lineality = [_combination(s, l, t, pivot) if t else l for l, t in zip(lineality, slacks)]
            rays = {mask | bit: _combination(s, u, t, pivot) if (t := sum(map(mul, row, u))) else u
                    for mask, u in rays.items()}
            # lineality is tight on every row inserted so far
            rays[bit - 1] = pivot
            continue
        plus: list[tuple[tuple[int, ...], int, int]] = []
        minus: list[tuple[tuple[int, ...], int, int]] = []
        kept: dict[int, tuple[int, ...]] = {}
        for mask, u in rays.items():
            slack = sum(map(mul, row, u))
            if slack > 0:
                plus.append((u, mask, slack))
                kept[mask] = u
            elif slack == 0:
                kept[mask | bit] = u
            else:
                minus.append((u, mask, slack))
        if minus:
            masks = list(rays)
            need = p.dim - 1 - len(lineality)
            for u, mu, su in plus:
                for v, mv, sv in minus:
                    common = mu & mv
                    if common.bit_count() < need:
                        continue
                    if any(m & common == common and m != mu and m != mv for m in masks):
                        continue
                    # a row feasible at both ends and tight inside the
                    # segment is tight along all of it, so su*v - sv*u,
                    # whose slack on the new row is zero, is tight exactly
                    # on common and the new row
                    kept[common | bit] = _combination(su, v, sv, u)
        rays = kept
        if not rays:
            return []

    vertices = [u for u in rays.values() if u[-1]]
    if not vertices:
        return []
    recession = lineality + [u for u in rays.values() if not u[-1]]
    if recession:
        j = next(j for j in range(p.dim) if any(u[j] for u in recession))
        raise UnboundedError(f"polytope is unbounded in coordinate {j}")
    scale = lcm(*(u[-1] for u in vertices))  # the points' order is that of each x over the lcm of every w
    return sorted(((u[:-1], u[-1]) for u in vertices), key=lambda v: [x * (scale // v[1]) for x in v[0]])


def affine_rank(points: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of the differences to the first point, over the rationals."""
    if not points:
        raise ValueError("affine_rank needs at least one point")
    base = points[0]
    diffs = [[x - b for x, b in zip(point, base)] for point in points[1:]]
    return matrix_rank(diffs)


# ---------------------------------------------------------------------------
# certificates


def _pair_polytope(pair: CyclePathPair, angle_rows: Iterable[tuple[Mapping[int, Fraction], Fraction]]) -> HPolytope:
    """The polytope over the angle difference (free), then y in cycle-line
    order, the lifted model's column order: for each (slopes, rhs) the rows
    dtheta + slopes . y <= rhs and -dtheta + slopes . y <= rhs, then the y
    box, y <= 1 and -y <= 0 for each line."""
    lines = pair.cycle.lines
    rows = [((sign, *(slopes.get(line, 0) for line in lines)), rhs) for slopes, rhs in angle_rows for sign in (1, -1)]
    for k in range(1, len(lines) + 1):
        unit = [0] * (len(lines) + 1)
        unit[k] = 1
        rows += [(unit, 1), ([-v for v in unit], 0)]
    return HPolytope(tuple(rows), len(lines) + 1)


def pair_relaxation(net: Network, pair: CyclePathPair, big_m: Fraction) -> HPolytope:
    """The per-pair relaxation over (angle difference, y): both path rows
    and the fallback big-M row, absolute values expanded, then the y box."""
    rows = []
    for path in (pair.shorter, pair.longer):
        slopes = {line: big_m - net.lines[line].weight for line in path.lines}
        rows.append((slopes, path.total_weight + sum(slopes.values(), Fraction(0))))
    return _pair_polytope(pair, [*rows, ({}, big_m)])


def candidate_hull(pair: CyclePathPair, model: MilpModel, name: str) -> HPolytope:
    """The named hull description to adjudicate over (angle difference, y):
    both signs of each of its elimination branches of the lifted model,
    then the y box.

    Linking every lifted variable gives the path-based cut, linking none
    the |angle| <= M rows, and the zero branches that keep the shorter
    arc alone, then the longer arc alone, the aggregated single-arc rows
    that complete it.  The oracle certifies that only the completed one
    closes the hull.
    """
    if name not in HULL_CANDIDATES:
        raise ValueError(f"unknown hull candidate {name!r}; expected one of {', '.join(HULL_CANDIDATES)}")
    return _pair_polytope(pair, [eliminate(pair, model, linked) for linked in HULL_CANDIDATES[name]])


class ModelLP:
    """The exact LP of a MilpModel over the variables its substitutions leave,
    in model order.  A substitution maps variables to (terms, constant) over
    the columns, keeping their bounds and out of the objective: ``fixed``
    holds in every read, and each switch has one per state (a line open and
    closed, a y at 0 and 1), which overrides ``fixed``.  The columns, bound
    rows (q x <= p for a bound p/q, upper then lower), objective and each row
    are read once, a row as an integer vector plus a sparse one per state of
    each switch it touches, over one denominator: all primitive integer rows."""

    def __init__(self, model: MilpModel, fixed: Mapping | None = None, switches: Sequence[Sequence[Mapping]] = ()):
        switches = {None: (fixed or {},), **dict(enumerate(switches))}  # fixed: the one state of every read
        owner = {var: k for k, states in switches.items() for var in states[0]}
        kept = [var for var in model.variables if var.name not in owner]
        self.columns = {var.name: j for j, var in enumerate(kept)}  # name -> index, in model order
        n = len(kept)  # the right-hand side's index in a row vector
        self.bounds = [([sign * bound.denominator if k == j else 0 for k in range(n)], sign * bound.numerator)
                       for j, var in enumerate(kept) for sign, bound in ((1, var.upper), (-1, var.lower))
                       if bound is not None]
        objective = dict(model.objective)
        self.objective = [objective.get(var.name, 0) for var in kept]
        self._rows = []
        for con in model.constraints:
            parts = {None: [[(n, con.rhs)]]}  # per switch, per state, (index, rational) terms
            for var, c in con.coeffs:
                if var not in owner:
                    parts[None][0].append((self.columns[var], c))
                    continue
                states = switches[owner[var]]
                for part, (terms, value) in zip(parts.setdefault(owner[var], [[] for _ in states]), (s[var] for s in states)):
                    part += [(n, -c * value)] if value else []
                    part += [(self.columns[name], c * d) for name, d in terms.items()]
            den = lcm(*(v.denominator for states in parts.values() for part in states for _, v in part))
            parts = {k: [[(j, v.numerator * (den // v.denominator)) for j, v in part] for part in states]
                     for k, states in parts.items()}
            row = [0] * (n + 1)
            for j, v in parts.pop(None)[0]:
                row[j] += v
            self._rows.append((con.sense, row, list(parts.items())))

    def rows(self, states: Sequence[int] = (), constraints: slice = slice(None)) -> tuple[list[Row], list[Row]]:
        """The '<=' and '=' rows among the model's rows at the given positions, switch k
        in state states[k], each its vectors' sum over their gcd.  A row left with no
        term is dropped when it holds; one that fails stays, so the LP is infeasible."""
        ineqs, eqs = [], []
        for sense, row, touched in self._rows[constraints]:
            row = list(row)
            for k, parts in touched:
                for j, v in parts[states[k]]:
                    row[j] += v
            if any(row[:-1]) or row[-1] < 0 or (row[-1] and sense == "="):
                if (g := gcd(*row)) > 1:
                    row = [v // g for v in row]
                (eqs if sense == "=" else ineqs).append((row[:-1], row[-1]))
        return ineqs, eqs


def model_polytope(model: MilpModel) -> HPolytope:
    """The LP relaxation of a model of ``<=`` rows: its rows in model order,
    then its bounds."""
    if wrong := next((con for con in model.constraints if con.sense != "<="), None):
        raise ValueError(f"row {wrong.name!r} has sense {wrong.sense!r}; only '<=' rows are read")
    lp = ModelLP(model)
    ineqs, _ = lp.rows()
    return HPolytope(tuple(ineqs + lp.bounds), len(lp.columns))


def cpvi_validity_certificate(cut: CutCPVI, points: Iterable[tuple[Fraction, tuple[int, ...]]]) -> CertificateReport:
    """Every integer-feasible extreme of the cut's pair relaxation (its ``integer_points``) satisfies the cut."""
    y = [-dict(cut.y_coeffs).get(line, 0) for line in cut.pair.cycle.lines]  # rows +-dtheta - slopes . y <= constant
    rows = HPolytope((((1, *y), cut.constant), ((-1, *y), cut.constant)), 1 + len(y))
    if violation := _first_violation(rows.rows, points):
        (dtheta, bits), _ = violation
        return CertificateReport(Claim.VALIDITY, False, {"integer_point": {"dtheta": format_rational(dtheta), "y": list(bits)}})
    return CertificateReport(Claim.VALIDITY, True)


def full_dimension_certificate(relax: HPolytope) -> CertificateReport:
    """The point (0, 1/2, ..., 1/2) strictly inside every row of the pair
    relaxation: a ball around it lies in the relaxation, so the relaxation
    is full-dimensional.  A row the point does not satisfy strictly is the
    witness of failure."""
    # each row's slack at the point, twice over, so in integers
    k = next((k for k, (coeffs, b) in enumerate(relax.rows) if 2 * b - sum(coeffs[1:]) <= 0), None)
    if k is None:
        return CertificateReport(Claim.FULL_DIMENSION, True)
    center = _point_json([0] + [1] * (relax.dim - 1), 2)
    return CertificateReport(Claim.FULL_DIMENSION, False, {"non_interior_row": k, "point": center})


def facet_certificate(cut: CutCPVI, points: Iterable[tuple[Fraction, tuple[int, ...]]], relax: HPolytope) -> CertificateReport:
    """The explicit tight-point family: all among the integer points of the cut's
    pair relaxation, all tight, affinely independent, over a full-dimensional relaxation."""
    pair = cut.pair

    def make_point(dtheta: Fraction, off: Sequence[int]) -> tuple[Fraction, tuple[int, ...]]:
        return (dtheta, tuple(0 if line in off else 1 for line in pair.cycle.lines))

    tight = [make_point(pair.shorter.total_weight, [])]
    for line in pair.shorter.lines:
        tight.append(make_point(pair.longer.total_weight, [line]))
    first_short = pair.shorter.lines[0]
    for line in pair.longer.lines:
        tight.append(make_point(cut.big_m, [first_short, line]))

    member = set(points)
    for dtheta, bits in tight:
        if (dtheta, bits) not in member:
            return CertificateReport(
                Claim.FACET_RANK,
                False,
                {"not_integer_feasible": {"dtheta": format_rational(dtheta), "y": list(bits)}},
            )
        rhs = cut.rhs_at(dict(zip(pair.cycle.lines, bits)))
        if abs(dtheta) != rhs:
            return CertificateReport(
                Claim.FACET_RANK,
                False,
                {"not_tight": {"dtheta": format_rational(dtheta), "y": list(bits), "rhs": format_rational(rhs)}},
            )
    scale = lcm(*(dtheta.denominator for dtheta, _ in tight))  # the tight points over one denominator, in integers
    rank = affine_rank([(dtheta.numerator * scale // dtheta.denominator, *(b * scale for b in bits)) for dtheta, bits in tight])
    if rank != len(pair.cycle.lines):
        return CertificateReport(Claim.FACET_RANK, False, {"rank": rank, "expected": len(pair.cycle.lines)})
    full = full_dimension_certificate(relax)
    if not full.passed:
        return CertificateReport(Claim.FACET_RANK, False, {"full_dimension": full.witness})
    return CertificateReport(Claim.FACET_RANK, True)


def local_idealness_certificate(model: MilpModel) -> CertificateReport:
    """Every vertex of the lifted system is binary in all 0/1 variables."""
    names = [var.name for var in model.variables]
    for x, w in enumerate_vertices(model_polytope(model)):
        for j in range(1, len(names)):  # everything but the angle difference
            if x[j] != 0 and x[j] != w:
                return CertificateReport(Claim.LOCAL_IDEAL, False, {"vertex": _point_json(x, w), "fractional_var": names[j]})
    return CertificateReport(Claim.LOCAL_IDEAL, True)


def check_hull_cap(size: int) -> None:
    """Refuse a cycle of more lines than hull equality adjudicates."""
    if size > HULL_CYCLE_CAP:
        raise CapExceededError(f"cycle size {size} exceeds the hull-equality cap {HULL_CYCLE_CAP}")


def hull_equality(points: Iterable[tuple[Fraction, tuple[int, ...]]], relax: HPolytope, candidate: HPolytope) -> CertificateReport:
    """PASS iff the candidate contains every integer extreme (the pair relaxation's
    ``integer_points``) and every candidate vertex is an integer-feasible point of it."""
    check_hull_cap(relax.dim - 1)
    if candidate.dim != relax.dim:
        raise ValueError("candidate must live in (angle difference, y) space of the pair")
    if violation := _first_violation(candidate.rows, points):
        (dtheta, bits), row = violation
        return CertificateReport(
            Claim.HULL_EQUALITY,
            False,
            {"violated_integer_point": {"dtheta": format_rational(dtheta), "y": list(bits)}, "row": row},
        )
    for x, w in enumerate_vertices(candidate):
        if any(v != 0 and v != w for v in x[1:]):
            return CertificateReport(Claim.HULL_EQUALITY, False, {"fractional_vertex": _point_json(x, w)})
        if not relax.contains(x, w):
            return CertificateReport(Claim.HULL_EQUALITY, False, {"infeasible_vertex": _point_json(x, w)})
    return CertificateReport(Claim.HULL_EQUALITY, True)


# ---------------------------------------------------------------------------
# brute-force switching enumeration


@dataclass(frozen=True)
class DcotsResult:
    cost: Fraction
    generation: dict[str, Fraction]
    flows: dict[int, Fraction]
    angles: dict[str, Fraction]
    y: dict[int, int]


def _pattern_optima(net: Network, cpvis: Sequence[CutCPVI], cvis: Sequence[CutCVI]) -> Iterator[tuple[Fraction, dict, dict]]:
    """Each switching pattern's optimum, if it has one, as (value, line statuses, column and pinned values).

    A pattern's LP is the bound rows, then the rows of the model that emit
    writes, build_dcots(net, "global", cpvis, cvis), with what the pattern forces
    substituted, each variable its bounds pin included (no column, no bound rows);
    the cut rows are appended only when they bind.  solve_linear_program solves
    the balance rows out, so its tableau holds inequalities only, cut rows or not."""
    switchable = [i for i, line in enumerate(net.lines) if line.switchable]
    if len(switchable) > BRUTE_FORCE_CAP:
        raise CapExceededError(f"{len(switchable)} switchable lines exceed the enumeration cap {BRUTE_FORCE_CAP}")
    model = build_dcots(net, "global", cpvis, cvis)
    names = dcots_names(net)
    # the g of a bus with gen_max 0 and a fixed line's y; ModelLP drops a substituted
    # variable's objective term, which is 0 for such a g and absent for y
    pinned = {var.name: Fraction(var.lower) for var in model.variables if var.lower == var.upper is not None}
    # build_dcots writes the two rows of each cut last
    split = len(model.constraints) - 2 * (len(cpvis) + len(cvis))
    closed = fixed_topology(net, dict.fromkeys(range(len(net.lines)), 1))  # each switch's states override it
    opened = fixed_topology(net, dict.fromkeys(range(len(net.lines)), 0))
    switches = [tuple({var: subst[var] for var in (names.f[i], names.y[i])} for subst in (opened, closed)) for i in switchable]
    lp = ModelLP(model, {**{var: ({}, value) for var, value in pinned.items()}, **closed}, switches)
    for bits in itertools.product((1, 0), repeat=len(switchable)):
        ineqs, eqs = lp.rows(bits, slice(split))
        result = solve_linear_program(len(lp.columns), lp.bounds + ineqs, eqs, lp.objective)
        if result.status == "optimal":
            cuts, _ = lp.rows(bits, slice(split, None))
            x, w = integer_row(result.point, 1, "point")
            if any(sum(map(mul, coeffs, x)) > b * w for coeffs, b in cuts):
                # the base optimizer violates an appended row, so the rows do
                # bind for this pattern; re-solve with them in place
                result = solve_linear_program(len(lp.columns), lp.bounds + ineqs + cuts, eqs, lp.objective)
        if result.status == "optimal":
            active = {**dict.fromkeys(range(len(net.lines)), 1), **dict(zip(switchable, bits))}
            yield result.value, active, {**pinned, **dict(zip(lp.columns, result.point))}


def brute_force_dcots(net: Network, cpvis: Sequence[CutCPVI] = (), cvis: Sequence[CutCVI] = ()) -> DcotsResult:
    """Exact optimum over every switching pattern of the model that emit
    writes, one LP per topology; the first pattern to reach it wins.
    Appended cut rows never change the reported optimum when the cuts are
    valid; the invariant tests rely on exactly that."""
    optima = list(_pattern_optima(net, cpvis, cvis))
    if not optima:
        raise AllPatternsInfeasibleError("no switching pattern admits a feasible dispatch")
    cost, active, values = min(optima, key=lambda optimum: optimum[0])
    for var, (terms, value) in fixed_topology(net, active).items():
        values[var] = value + sum((d * values[name] for name, d in terms.items()), Fraction(0))
    names = dcots_names(net)
    return DcotsResult(cost, {bus: values[name] for bus, name in names.g.items()},
                       {idx: values[name] for idx, name in enumerate(names.f)},
                       {bus: values[name] for bus, name in names.theta.items()}, active)
