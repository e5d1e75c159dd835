"""Assemble the switching MILP and serialize models to LP text format.

One balance row per bus, two capacity and two disjunctive angle rows per
line, a binary status variable per switchable line, a reference bus
pinned to zero, and optional generated cut rows.  Serialization is
byte-deterministic and exact: a row or the objective is written in plain
decimals or, when one of its values has no short exact decimal, scaled
to integers by the lcm of its denominators with the scale noted; a
variable bound with no exact decimal is refused.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

# pair_bound is unused here but stays a module attribute: bench/layers.py wraps it by this name
from .bounds import global_big_m, pair_bound, pair_bounds  # noqa: F401
from .cuts import CutCPVI, CutCVI
from .errors import ValidationError
from .network import Network, parallel_ordinals
from .rational import format_rational, integer_row, is_exact

__all__ = [
    "MilpVariable",
    "MilpConstraint",
    "MilpModel",
    "DcotsNames",
    "build_dcots",
    "dcots_names",
    "fixed_topology",
    "lp_text",
    "merge_models",
]

MAX_PLAIN_DIGITS = 18


class MilpVariable(NamedTuple):
    name: str
    kind: str  # "continuous" or "binary"
    lower: int | Fraction | None
    upper: int | Fraction | None


class MilpConstraint(NamedTuple):
    name: str
    coeffs: tuple[tuple[str, int | Fraction], ...]
    sense: str  # "<=" or "="
    rhs: int | Fraction


# the value types taken by type alone; a subclass (or a bool) is looked at one by one
_EXACT_TYPES = {int, Fraction}
_BOUND_TYPES = {int, Fraction, type(None)}


def _exact(values: Sequence, where: str, name: str) -> None:
    """Refuse a value that is not an int or Fraction, the message naming where.format(name)."""
    if not set(map(type, values)) <= _EXACT_TYPES:
        for value in values:
            if not is_exact(value):
                raise ValueError(f"{where.format(name)}: expected an int or Fraction, got {type(value).__name__}")


@dataclass
class MilpModel:
    """Every value an int or Fraction, kept as given, every sense '<=' or '=', each objective variable declared
    and named once: add_*, the objective assignment and a list-built model refuse the rest.  A row is checked
    by the sets of its value types and variable names, and walked term by term only to name a fault."""

    variables: list[MilpVariable] = field(default_factory=list)
    constraints: list[MilpConstraint] = field(default_factory=list)
    objective: list[tuple[str, int | Fraction]] = field(default_factory=list)
    # name indices, kept in step with the two lists by the add_* methods
    _var_names: set[str] = field(default_factory=set, init=False, repr=False, compare=False)
    _con_names: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        variables, constraints, self.variables, self.constraints = self.variables, self.constraints, [], []
        for var in variables:
            self.add_variable(var.name, var.kind, var.lower, var.upper)
        for con in constraints:
            self.add_constraint(con.name, con.coeffs, con.sense, con.rhs)
        self.objective = self.objective  # checked now that the variables are declared

    def __setattr__(self, name: str, value) -> None:
        if name == "objective" and hasattr(self, "_var_names"):  # the generated __init__ sets it before the names
            value = list(value)
            names = [var for var, _ in value]
            if not (set(map(type, [c for _, c in value])) <= _EXACT_TYPES and self._var_names.issuperset(names)
                    and len(set(names)) == len(names)):
                seen = set()
                for var, c in value:
                    _exact([c], "objective term {!r}", var)
                    if var not in self._var_names or var in seen:
                        raise ValueError(f"objective term {var!r} "
                                         f"{'repeats a' if var in seen else 'names an undeclared'} variable")
                    seen.add(var)
        super().__setattr__(name, value)

    def add_variable(self, name: str, kind: str, lower, upper) -> None:
        if kind not in ("continuous", "binary"):
            raise ValueError(f"variable {name!r} has kind {kind!r}; only 'continuous' and 'binary' are allowed")
        if not {type(lower), type(upper)} <= _BOUND_TYPES:
            _exact([bound for bound in (lower, upper) if bound is not None], "variable {!r} bound", name)
        if name in self._var_names:
            raise ValueError(f"duplicate variable name {name!r}")
        self._var_names.add(name)
        self.variables.append(MilpVariable(name, kind, lower, upper))

    def add_constraint(self, name: str, coeffs: Iterable[tuple[str, int | Fraction]], sense: str, rhs) -> None:
        if sense not in ("<=", "="):
            raise ValueError(f"row {name!r} has sense {sense!r}; only '<=' and '=' rows are allowed")
        pairs = tuple(coeffs)
        names, values = zip(*pairs) if pairs else ((), ())
        _exact((rhs, *values), "row {!r}", name)
        if not all(values):
            pairs = tuple((var, c) for var, c in pairs if c != 0)
            names = [var for var, _ in pairs]
        if not self._var_names.issuperset(names):
            var = next(var for var in names if var not in self._var_names)
            raise ValueError(f"constraint {name!r} references undeclared variable {var!r}")
        if name in self._con_names:
            raise ValueError(f"duplicate constraint name {name!r}")
        self._con_names.add(name)
        self.constraints.append(MilpConstraint(name, pairs, sense, rhs))


_SAFE = re.compile(r"[^A-Za-z0-9_]")


def _safe(name: str) -> str:
    return _SAFE.sub("_", name)


class DcotsNames(NamedTuple):
    """build_dcots's variable names by bus id (g, theta) and line index (f, y, row-name tag)."""

    g: dict[str, str]
    theta: dict[str, str]
    f: list[str]
    y: list[str]
    tags: list[str]


def dcots_names(net: Network) -> DcotsNames:
    tags = [f"{_safe(line.from_bus)}_{_safe(line.to_bus)}_{k}" for line, k in zip(net.lines, parallel_ordinals(net))]
    return DcotsNames({bus.id: f"g_{_safe(bus.id)}" for bus in net.buses},
                      {bus.id: f"theta_{_safe(bus.id)}" for bus in net.buses},
                      [f"f_{tag}" for tag in tags], [f"y_{tag}" for tag in tags], tags)


def fixed_topology(net: Network, active: Mapping[int, int]) -> dict[str, tuple[dict[str, Fraction], Fraction]]:
    """What the rows of build_dcots force once active fixes each y, opening
    only switchable lines, as (terms, constant) over the free variables: a
    flow is (theta_from - theta_to) / x on a closed line, by the ohm rows,
    and 0 on an open one, by the cap rows; the reference angle is 0."""
    names = dcots_names(net)
    ref = net.buses[0].id
    fixed = {names.theta[ref]: ({}, Fraction(0))}
    for idx, line in enumerate(net.lines):
        ends = ((line.from_bus, 1), (line.to_bus, -1)) if active[idx] else ()
        drop = {names.theta[bus]: sign / line.reactance for bus, sign in ends if bus != ref}
        fixed[names.f[idx]] = (drop, Fraction(0))
        fixed[names.y[idx]] = ({}, Fraction(active[idx]))
    return fixed


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
    if bigm == "bounds":
        m_lines = [bound for bound, _source in pair_bounds(net, [(ln.from_bus, ln.to_bus) for ln in net.lines])]
    else:
        m_lines = [global_big_m(net)] * len(net.lines)

    g_name, t_name, f_name, y_name, tags = dcots_names(net)
    # names map other characters to '_' and join line ends with it, so two elements may get one name
    for kind, names, label in (("buses", list(g_name.values()), lambda i: repr(net.buses[i].id)),
                               ("lines", f_name, lambda k: f"{k} ({net.lines[k].from_bus!r}-{net.lines[k].to_bus!r})")):
        first: dict[str, int] = {}
        for i, name in enumerate(names):
            if (j := first.setdefault(name, i)) != i:
                raise ValidationError(f"{kind} {label(j)} and {label(i)} share the LP name {name!r}")

    for bus in net.buses:
        model.add_variable(g_name[bus.id], "continuous", 0, bus.gen_max)
    for bus in net.buses:
        model.add_variable(t_name[bus.id], "continuous", None, None)
    for idx in range(len(net.lines)):
        model.add_variable(f_name[idx], "continuous", None, None)
    for idx, line in enumerate(net.lines):
        model.add_variable(y_name[idx], "binary", 0 if line.switchable else 1, 1)

    model.objective = [(g_name[bus.id], bus.gen_cost) for bus in net.buses if bus.gen_cost != 0]

    for bus in net.buses:
        coeffs = {g_name[bus.id]: 1}
        for idx in net.adjacency[bus.id]:
            coeffs[f_name[idx]] = coeffs.get(f_name[idx], 0) + (1 if net.lines[idx].to_bus == bus.id else -1)
        model.add_constraint(f"kcl_{_safe(bus.id)}", coeffs.items(), "=", bus.demand)

    negations: dict[tuple[int, int], Fraction] = {}  # per distinct Fraction, by numerator and denominator

    def neg(c: int | Fraction) -> int | Fraction:
        """-c, a Fraction's negation made once per distinct value."""
        if type(c) is int:
            return -c
        key = (c.numerator, c.denominator)
        if (out := negations.get(key)) is None:
            out = negations[key] = -c
        return out

    def add_two_sided(hi: str, lo: str, lhs: list[tuple[str, Fraction]],
                      rest: list[tuple[str, Fraction]], rhs: Fraction) -> None:
        """lhs + rest <= rhs as row hi, and -lhs + rest <= rhs as row lo."""
        model.add_constraint(hi, [*lhs, *rest], "<=", rhs)
        model.add_constraint(lo, [*[(var, neg(c)) for var, c in lhs], *rest], "<=", rhs)

    for idx, (line, tag) in enumerate(zip(net.lines, tags)):
        add_two_sided(f"cap_hi_{tag}", f"cap_lo_{tag}", [(f_name[idx], 1)], [(y_name[idx], neg(line.capacity))], 0)
        ohm = [(f_name[idx], line.reactance), (t_name[line.from_bus], -1), (t_name[line.to_bus], 1)]
        add_two_sided(f"ohm_hi_{tag}", f"ohm_lo_{tag}", ohm, [(y_name[idx], m_lines[idx])], m_lines[idx])

    # reference angle: only relative angles matter, pin the first bus
    model.add_constraint(f"ref_{_safe(net.buses[0].id)}", [(t_name[net.buses[0].id], 1)], "=", 0)

    cycle_no: dict[tuple, int] = {}  # each cycle's number, in order of first use
    for cut in cpvis:
        c = cycle_no.setdefault(cut.pair.cycle.lines, len(cycle_no))
        m, n = cut.pair.pair
        name = f"cpvi_{c}_{_safe(m)}_{_safe(n)}"
        angle = [(t_name[n], 1), (t_name[m], -1)]
        y_terms = [(y_name[line], neg(coeff)) for line, coeff in cut.y_coeffs]
        add_two_sided(f"{name}_hi", f"{name}_lo", angle, y_terms, cut.constant)

    for cut in cvis:
        c = cycle_no.setdefault(cut.cycle.lines, len(cycle_no))
        digest = hashlib.sha256(",".join(map(str, cut.subset)).encode()).hexdigest()[:8]
        flows = [(f_name[line], net.lines[line].reactance if sign > 0 else neg(net.lines[line].reactance))
                 for line, sign in cut.flow_signs]
        y_terms = [(y_name[line], neg(coeff)) for line, coeff in cut.y_coeffs]
        add_two_sided(f"cvi_{c}_{digest}_hi", f"cvi_{c}_{digest}_lo", flows, y_terms, cut.constant)

    return model


def merge_models(target: MilpModel, other: MilpModel, prefix: str) -> None:
    """Add other's variables and rows to target, every name as prefix_name."""
    for var in other.variables:
        target.add_variable(f"{prefix}_{var.name}", var.kind, var.lower, var.upper)
    for con in other.constraints:
        coeffs = [(f"{prefix}_{var}", c) for var, c in con.coeffs]
        target.add_constraint(f"{prefix}_{con.name}", coeffs, con.sense, con.rhs)


def _plain(num: int, den: int) -> str | None:
    """The exact decimal of num / den in lowest terms, or None when it does not terminate."""
    if den == 1:
        return str(num)
    rest, twos, fives = den, 0, 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return None
    # a reduced fraction over 2^twos 5^fives has exactly shift decimals
    shift = max(twos, fives)
    text = str(abs(num * 10**shift // den)).rjust(shift + 1, "0")
    return f"{'-' if num < 0 else ''}{text[:-shift]}.{text[-shift:]}"


class _Decimals(dict):
    """One lp_text call's numbers, each distinct value made once, on first use.  A value is
    keyed by (numerator, denominator), so an int and an equal Fraction share an entry and
    Fraction's slow hash is never taken.  The entry is the exact decimal, or None, and the
    same when it has at most MAX_PLAIN_DIGITS significant digits, or else None."""

    def __missing__(self, key: tuple[int, int]) -> tuple[str | None, str | None]:
        text = _plain(*key)
        short = text if text is not None and len(text.lstrip("-").replace(".", "").lstrip("0")) <= MAX_PLAIN_DIGITS else None
        self[key] = entry = (text, short)
        return entry


def _render(values: Sequence[Fraction], decimals: _Decimals) -> tuple[list[str], int | None]:
    """One linear expression's values as exact LP numbers.

    Plain decimals when each has one of at most MAX_PLAIN_DIGITS
    significant digits; otherwise the integers value * N, with N the lcm
    of the denominators, returned alongside.  Scaling a row or the
    objective by a positive N keeps its feasible set or minimizers.
    """
    texts = [decimals[v.numerator, v.denominator][1] for v in values]
    if None not in texts:
        return texts, None
    nums, scale = integer_row(values, 1, "row")  # the values over their least common denominator
    return [str(v) for v in nums], scale


def _expr(names: Sequence[str], texts: Sequence[str]) -> str:
    expr = " ".join([f"- {text[1:]} {var}" if text[0] == "-" else f"+ {text} {var}" for var, text in zip(names, texts)])
    return expr[2:] if expr.startswith("+") else expr or "0 x"


def _bound(var: MilpVariable, value: Fraction, decimals: _Decimals) -> str:
    # a bound cannot be scaled, so it is written exactly or not at all
    text = decimals[value.numerator, value.denominator][0]
    if text is None:
        raise ValueError(f"variable {var.name!r} bound {format_rational(value)} has no exact decimal form")
    return text


def lp_text(model: MilpModel) -> str:
    """The model in LP text format; byte-identical for identical models.
    Each distinct value's text is made once per call (see _Decimals); whether
    a row is scaled is still decided row by row."""
    decimals = _Decimals()
    out = io.StringIO()
    out.write("Minimize\n")
    terms = [(var, c) for var, c in model.objective if c != 0]
    if terms:
        texts, scale = _render([c for _, c in terms], decimals)
        if scale is not None:
            out.write(f"\\ objective scaled by {scale}\n")
        out.write(f" obj: {_expr([var for var, _ in terms], texts)}\n")
    else:
        first = model.variables[0].name if model.variables else "x"
        out.write(f" obj: 0 {first}\n")
    out.write("Subject To\n")
    for name, coeffs, sense, rhs in model.constraints:
        names, values = zip(*coeffs) if coeffs else ((), ())
        texts, scale = _render((*values, rhs), decimals)
        note = "" if scale is None else f"  \\ scaled by {scale}"
        out.write(f" {name}: {_expr(names, texts)} {sense} {texts[-1]}{note}\n")
    out.write("Bounds\n")
    for var in model.variables:
        if var.lower is None and var.upper is None:
            out.write(f" {var.name} free\n")
        elif var.lower is not None and var.upper is not None and var.lower == var.upper:
            out.write(f" {var.name} = {_bound(var, var.lower, decimals)}\n")
        else:
            lo = "-inf" if var.lower is None else _bound(var, var.lower, decimals)
            hi = "+inf" if var.upper is None else _bound(var, var.upper, decimals)
            out.write(f" {lo} <= {var.name} <= {hi}\n")
    binaries = [var.name for var in model.variables if var.kind == "binary"]
    if binaries:
        out.write("Binary\n")
        for name in binaries:
            out.write(f" {name}\n")
    out.write("End\n")
    return out.getvalue()
