"""Assemble the switching MILP and serialize models to LP text format.

One balance row per bus, two capacity and two disjunctive angle rows per
line, a binary status variable per switchable line, a reference bus
pinned to zero, and optional generated cut rows.  Serialization is
byte-deterministic; coefficients whose decimal expansion does not
terminate are handled by exact integer row scaling so the written file
never cuts off a feasible point of the exact model.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

# pair_bound is unused here but stays a module attribute: bench/layers.py wraps it by this name
from .bounds import global_big_m, pair_bound, pair_bounds  # noqa: F401
from .cuts import CutCPVI, CutCVI
from .extended import ExtendedSystem
from .network import Network, parallel_ordinals
from .rational import format_rational

__all__ = [
    "MilpVariable",
    "MilpConstraint",
    "MilpModel",
    "build_dcots",
    "write_lp",
    "lp_text",
    "extended_model",
]

MAX_PLAIN_DIGITS = 18


@dataclass(frozen=True)
class MilpVariable:
    name: str
    kind: str  # "continuous" or "binary"
    lower: Fraction | None
    upper: Fraction | None


@dataclass(frozen=True)
class MilpConstraint:
    name: str
    coeffs: tuple[tuple[str, Fraction], ...]
    sense: str  # "<=", ">=", "="
    rhs: Fraction


@dataclass
class MilpModel:
    variables: list[MilpVariable] = field(default_factory=list)
    constraints: list[MilpConstraint] = field(default_factory=list)
    objective: list[tuple[str, Fraction]] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)
    # name indices, kept in step with the two lists by the add_* methods
    _var_names: set[str] = field(default_factory=set, init=False, repr=False, compare=False)
    _con_names: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._var_names.update(v.name for v in self.variables)
        self._con_names.update(c.name for c in self.constraints)

    def add_variable(self, name: str, kind: str, lower, upper) -> None:
        if name in self._var_names:
            raise ValueError(f"duplicate variable name {name!r}")
        self._var_names.add(name)
        self.variables.append(MilpVariable(name, kind, lower, upper))

    def add_constraint(self, name: str, coeffs: Iterable[tuple[str, Fraction]], sense: str, rhs: Fraction) -> None:
        pairs = tuple((var, Fraction(c)) for var, c in coeffs if c != 0)
        for var, _ in pairs:
            if var not in self._var_names:
                raise ValueError(f"constraint {name!r} references undeclared variable {var!r}")
        if name in self._con_names:
            raise ValueError(f"duplicate constraint name {name!r}")
        self._con_names.add(name)
        self.constraints.append(MilpConstraint(name, pairs, sense, Fraction(rhs)))


_SAFE = re.compile(r"[^A-Za-z0-9_]")


def _safe(name: str) -> str:
    return _SAFE.sub("_", name)


def build_dcots(
    net: Network,
    bigm: str = "global",
    cpvis: Sequence[CutCPVI] = (),
    cvis: Sequence[CutCVI] = (),
) -> MilpModel:
    """The full switching MILP under the chosen big-M strategy.

    bigm "global" uses the network-wide bound on every line; "bounds"
    uses the pair bound of the line's endpoints when an always-active
    path backs it, falling back to the global value otherwise.
    """
    if bigm not in ("global", "bounds"):
        raise ValueError("bigm must be 'global' or 'bounds'")
    model = MilpModel()
    ordinals = parallel_ordinals(net)
    if bigm == "bounds":
        m_lines = [bound for bound, _source in pair_bounds(net, [(ln.from_bus, ln.to_bus) for ln in net.lines])]
    else:
        m_lines = [global_big_m(net)] * len(net.lines)

    g_name = {bus.id: f"g_{_safe(bus.id)}" for bus in net.buses}
    t_name = {bus.id: f"theta_{_safe(bus.id)}" for bus in net.buses}
    f_name = {}
    y_name = {}
    for idx, line in enumerate(net.lines):
        tag = f"{_safe(line.from_bus)}_{_safe(line.to_bus)}_{ordinals[idx]}"
        f_name[idx] = f"f_{tag}"
        y_name[idx] = f"y_{tag}"

    for bus in net.buses:
        model.add_variable(g_name[bus.id], "continuous", Fraction(0), bus.gen_max)
    for bus in net.buses:
        model.add_variable(t_name[bus.id], "continuous", None, None)
    for idx in range(len(net.lines)):
        model.add_variable(f_name[idx], "continuous", None, None)
    for idx, line in enumerate(net.lines):
        if line.switchable:
            model.add_variable(y_name[idx], "binary", Fraction(0), Fraction(1))
        else:
            model.add_variable(y_name[idx], "binary", Fraction(1), Fraction(1))

    model.objective = [(g_name[bus.id], bus.gen_cost) for bus in net.buses if bus.gen_cost != 0]

    for bus in net.buses:
        coeffs: dict[str, Fraction] = {g_name[bus.id]: Fraction(1)}
        for idx in net.adjacency[bus.id]:
            line = net.lines[idx]
            sign = Fraction(1) if line.to_bus == bus.id else Fraction(-1)
            coeffs[f_name[idx]] = coeffs.get(f_name[idx], Fraction(0)) + sign
        model.add_constraint(f"kcl_{_safe(bus.id)}", coeffs.items(), "=", bus.demand)

    for idx, line in enumerate(net.lines):
        tag = f"{_safe(line.from_bus)}_{_safe(line.to_bus)}_{ordinals[idx]}"
        model.add_constraint(
            f"cap_hi_{tag}",
            [(f_name[idx], Fraction(1)), (y_name[idx], -line.capacity)],
            "<=",
            Fraction(0),
        )
        model.add_constraint(
            f"cap_lo_{tag}",
            [(f_name[idx], Fraction(-1)), (y_name[idx], -line.capacity)],
            "<=",
            Fraction(0),
        )
        m_line = m_lines[idx]
        model.add_constraint(
            f"ohm_hi_{tag}",
            [
                (f_name[idx], line.reactance),
                (t_name[line.from_bus], Fraction(-1)),
                (t_name[line.to_bus], Fraction(1)),
                (y_name[idx], m_line),
            ],
            "<=",
            m_line,
        )
        model.add_constraint(
            f"ohm_lo_{tag}",
            [
                (f_name[idx], -line.reactance),
                (t_name[line.from_bus], Fraction(1)),
                (t_name[line.to_bus], Fraction(-1)),
                (y_name[idx], m_line),
            ],
            "<=",
            m_line,
        )

    # reference angle: only relative angles matter, pin the first bus
    model.add_constraint(f"ref_{_safe(net.buses[0].id)}", [(t_name[net.buses[0].id], Fraction(1))], "=", Fraction(0))

    cycle_no: dict[tuple, int] = {}

    def cycle_tag(lines: tuple) -> int:
        if lines not in cycle_no:
            cycle_no[lines] = len(cycle_no)
        return cycle_no[lines]

    for cut in cpvis:
        c = cycle_tag(cut.pair.cycle.lines)
        m, n = cut.pair.pair
        base = {t_name[n]: Fraction(1), t_name[m]: Fraction(-1)}
        for line, coeff in cut.y_coeffs:
            base[y_name[line]] = -coeff
        model.add_constraint(f"cpvi_{c}_{_safe(m)}_{_safe(n)}_hi", base.items(), "<=", cut.constant)
        flipped = dict(base)
        flipped[t_name[n]] = Fraction(-1)
        flipped[t_name[m]] = Fraction(1)
        model.add_constraint(f"cpvi_{c}_{_safe(m)}_{_safe(n)}_lo", flipped.items(), "<=", cut.constant)

    for cut in cvis:
        c = cycle_tag(cut.cycle.lines)
        digest = hashlib.sha256(",".join(map(str, cut.subset)).encode()).hexdigest()[:8]
        base = {}
        for line, sign in cut.flow_signs:
            base[f_name[line]] = sign * net.lines[line].reactance
        for line, coeff in cut.y_coeffs:
            base[y_name[line]] = base.get(y_name[line], Fraction(0)) - coeff
        model.add_constraint(f"cvi_{c}_{digest}_hi", base.items(), "<=", cut.constant)
        flipped = dict(base)
        for line, sign in cut.flow_signs:
            flipped[f_name[line]] = -sign * net.lines[line].reactance
        model.add_constraint(f"cvi_{c}_{digest}_lo", flipped.items(), "<=", cut.constant)

    return model


def extended_model(sys: ExtendedSystem, prefix: str) -> MilpModel:
    """The lifted per-pair system as a standalone model, for inspection."""
    model = MilpModel()
    names = [f"{prefix}_{name}" for name in sys.var_names]
    for name, (lo, hi) in zip(names, sys.boxes):
        model.add_variable(name, "continuous", lo, hi)
    for row in sys.rows:
        coeffs = [(names[j], c) for j, c in enumerate(row.coeffs) if c != 0]
        model.add_constraint(f"{prefix}_{row.name}", coeffs, "<=", row.rhs)
    return model


def merge_models(target: MilpModel, other: MilpModel) -> None:
    for var in other.variables:
        target.add_variable(var.name, var.kind, var.lower, var.upper)
    for con in other.constraints:
        target.add_constraint(con.name, con.coeffs, con.sense, con.rhs)


def _terminating(value: Fraction) -> bool:
    den = value.denominator
    for p in (2, 5):
        while den % p == 0:
            den //= p
    return den == 1


def _plain(value: Fraction) -> str:
    """Shortest exact decimal for a terminating rational."""
    if value.denominator == 1:
        return str(value.numerator)
    num, den = value.numerator, value.denominator
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    shift = max(twos, fives)
    scaled = num * 10**shift // den
    text = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if scaled < 0 else ""
    out = f"{sign}{text[:-shift]}.{text[-shift:]}".rstrip("0")
    return out[:-1] if out.endswith(".") else out


def _digits(value: Fraction) -> int:
    return len(_plain(value).lstrip("-").replace(".", "").lstrip("0") or "0")


def _row_renderable(con: MilpConstraint) -> bool:
    values = [c for _, c in con.coeffs] + [con.rhs]
    return all(_terminating(v) and _digits(v) <= MAX_PLAIN_DIGITS for v in values)


def _scaled_row(con: MilpConstraint) -> tuple[MilpConstraint, int]:
    """Clear denominators exactly; scaling by a positive integer keeps
    the row's feasible set unchanged."""
    from math import lcm

    scale = 1
    for _, c in con.coeffs:
        scale = lcm(scale, c.denominator)
    scale = lcm(scale, con.rhs.denominator)
    coeffs = tuple((var, c * scale) for var, c in con.coeffs)
    return MilpConstraint(con.name, coeffs, con.sense, con.rhs * scale), scale


def _expr(coeffs: Sequence[tuple[str, Fraction]]) -> str:
    parts = []
    for var, c in coeffs:
        if c < 0:
            parts.append(f"- {_plain(-c)} {var}")
        elif parts:
            parts.append(f"+ {_plain(c)} {var}")
        else:
            parts.append(f"{_plain(c)} {var}")
    return " ".join(parts) if parts else "0 " + "x"


def lp_text(model: MilpModel) -> str:
    out = io.StringIO()
    for comment in model.comments:
        out.write(f"\\ {comment}\n")
    out.write("Minimize\n")
    obj_terms = [(var, c) for var, c in model.objective if c != 0]
    flagged = [(var, c) for var, c in obj_terms if not (_terminating(c) and _digits(c) <= MAX_PLAIN_DIGITS)]
    if flagged:
        for var, c in flagged:
            out.write(f"\\ objective coefficient rounded; exact {var} = {format_rational(c)}\n")
    if obj_terms:
        rendered = []
        for var, c in obj_terms:
            if (var, c) in flagged:
                approx = Fraction(f"{float(c):.17g}")
                rendered.append((var, approx))
            else:
                rendered.append((var, c))
        out.write(f" obj: {_expr(rendered)}\n")
    else:
        first = model.variables[0].name if model.variables else "x"
        out.write(f" obj: 0 {first}\n")
    out.write("Subject To\n")
    for con in model.constraints:
        row = con
        note = ""
        if not _row_renderable(con):
            row, scale = _scaled_row(con)
            note = f"  \\ scaled by {scale}"
        sense = {"<=": "<=", ">=": ">=", "=": "="}[row.sense]
        out.write(f" {row.name}: {_expr(row.coeffs)} {sense} {_plain(row.rhs)}{note}\n")
    out.write("Bounds\n")
    for var in model.variables:
        if var.lower is None and var.upper is None:
            out.write(f" {var.name} free\n")
        elif var.lower is not None and var.upper is not None and var.lower == var.upper:
            out.write(f" {var.name} = {_plain(var.lower)}\n")
        else:
            lo = "-inf" if var.lower is None else _plain(var.lower)
            hi = "+inf" if var.upper is None else _plain(var.upper)
            out.write(f" {lo} <= {var.name} <= {hi}\n")
    binaries = [var.name for var in model.variables if var.kind == "binary"]
    if binaries:
        out.write("Binary\n")
        for name in binaries:
            out.write(f" {name}\n")
    out.write("End\n")
    return out.getvalue()


def write_lp(model: MilpModel, sink) -> None:
    """Serialize to the LP text format; byte-identical for identical models."""
    text = lp_text(model)
    if hasattr(sink, "write"):
        data = text
        try:
            sink.write(data)
        except TypeError:
            sink.write(data.encode("utf-8"))
    else:
        with open(sink, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
