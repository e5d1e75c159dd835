"""Power network model: buses, lines, and the validated graph they form.

The network is loaded once, validated, and then shared read-only; every
other module treats it as immutable.  All electrical parameters are exact
rationals (see the JSON schema in the README: decimal strings or "p/q").
BUS_VALUES and LINE_VALUES name them for the parse, the sign checks and
the JSON form.  Validation proves connectivity by building `Network.tree`,
the spanning tree the cycle basis then grows from.  `read_json` is the
package's one JSON decoder, for every input document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .errors import DisconnectedError, ParseError, ValidationError
from .rational import format_rational, parse_rational

__all__ = [
    "Bus",
    "Line",
    "Network",
    "load_network",
    "network_to_json",
    "read_json",
    "serialize_network",
]

# the rational fields of a bus in field order, each 0 when absent and never negative
BUS_VALUES = ("demand", "gen_max", "gen_cost")
# the rational fields of a line in field order, each required and positive
LINE_VALUES = ("reactance", "capacity")


@dataclass(frozen=True)
class Bus:
    id: str
    demand: Fraction = Fraction(0)
    gen_max: Fraction = Fraction(0)
    gen_cost: Fraction = Fraction(0)


@dataclass(frozen=True)
class Line:
    from_bus: str
    to_bus: str
    reactance: Fraction
    capacity: Fraction
    switchable: bool = True

    @cached_property
    def weight(self) -> Fraction:
        # capacity * reactance, exactly; the tightest angle bound across
        # this line while it is in service
        return self.capacity * self.reactance

    def endpoints(self) -> frozenset[str]:
        return frozenset((self.from_bus, self.to_bus))

    def other(self, bus: str) -> str:
        return self.to_bus if bus == self.from_bus else self.from_bus


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]

    @cached_property
    def bus_index(self) -> Mapping[str, int]:
        return {bus.id: i for i, bus in enumerate(self.buses)}

    @cached_property
    def adjacency(self) -> Mapping[str, tuple[int, ...]]:
        adj: dict[str, list[int]] = {bus.id: [] for bus in self.buses}
        for idx, line in enumerate(self.lines):
            adj[line.from_bus].append(idx)
            adj[line.to_bus].append(idx)
        return {bus: tuple(idxs) for bus, idxs in adj.items()}

    @cached_property
    def tree(self) -> Mapping[str, tuple[str, int]]:
        """Each bus but the first, in BFS order, mapped to (parent bus,
        connecting line) in the BFS spanning tree from the first bus over
        all lines.  Raises DisconnectedError naming the first bus, in bus
        order, that the search does not reach."""
        root = self.buses[0].id
        parents: dict[str, tuple[str, int]] = {}
        order = [root]
        for bus in order:  # the list grows as the search goes, so it is walked in BFS order
            for idx in self.adjacency[bus]:
                other = self.lines[idx].other(bus)
                if other not in parents and other != root:
                    parents[other] = (bus, idx)
                    order.append(other)
        for bus in self.buses:
            if bus.id not in parents and bus.id != root:
                raise DisconnectedError(f"bus {bus.id!r} is not connected to bus {root!r}")
        return parents


def _validate(net: Network) -> None:
    # a value's sign is its numerator's, the denominator being positive
    seen: set[str] = set()
    for bus in net.buses:
        if bus.id in seen:
            raise ValidationError(f"duplicate bus id {bus.id!r}")
        seen.add(bus.id)
        for name in BUS_VALUES:
            if getattr(bus, name).numerator < 0:
                raise ValidationError(f"bus {bus.id!r}: {name} must be >= 0")
    for k, line in enumerate(net.lines):
        if line.from_bus not in seen:
            raise _line_error(k, line, f"unknown bus {line.from_bus!r}")
        if line.to_bus not in seen:
            raise _line_error(k, line, f"unknown bus {line.to_bus!r}")
        if line.from_bus == line.to_bus:
            raise _line_error(k, line, "self-loop")
        for name in LINE_VALUES:
            if getattr(line, name).numerator <= 0:
                raise _line_error(k, line, f"{name} must be > 0")
    net.tree  # connectivity: the tree the cycle basis reuses


def _line_error(k: int, line: Line, fault: str) -> ValidationError:
    """The fault of line k, labelled by its index and ends; built only once a check fails."""
    return ValidationError(f"line {k} ({line.from_bus!r}-{line.to_bus!r}): {fault}")


def read_json(source, what: str):
    """The JSON value of a document of kind ``what`` given as bytes, text or a readable stream; a
    ParseError for input not UTF-8, malformed JSON, an over-long integer literal or too-deep nesting."""
    try:
        if hasattr(source, "read"):
            source = source.read()
        if isinstance(source, bytes):
            source = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} document is not UTF-8: {exc}") from exc
    if not isinstance(source, str):
        raise ParseError(f"unsupported {what} source of type {type(source).__name__}")
    try:
        return json.loads(source)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc


def load_network(source) -> Network:
    """Parse and validate a network document (bytes, str, or readable stream).

    Raises ParseError for malformed documents and ValidationError (naming
    the offending element) for semantic violations, including a
    disconnected graph.
    """
    doc = read_json(source, "network")
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")

    raw_buses = doc.get("buses")
    raw_lines = doc.get("lines", [])
    if not isinstance(raw_buses, list) or not raw_buses or not isinstance(raw_lines, list):
        raise ParseError("'buses' must be a nonempty list and 'lines', when present, a list")

    buses = []
    for i, obj in enumerate(raw_buses):
        if not isinstance(obj, dict) or "id" not in obj or not isinstance(obj["id"], str):
            raise ParseError(f"bus #{i}: expected an object with a string 'id'")
        try:
            buses.append(Bus(obj["id"], *[parse_rational(obj.get(name, 0), name) for name in BUS_VALUES]))
        except ValueError as exc:
            raise ParseError(f"bus {obj['id']!r} {exc}") from exc

    lines = []
    for k, obj in enumerate(raw_lines):
        if not isinstance(obj, dict):
            raise ParseError(f"line #{k}: expected an object")
        for key in ("from", "to"):
            if key not in obj or not isinstance(obj[key], str):
                raise ParseError(f"line #{k}: missing string field {key!r}")
        switchable = obj.get("switchable", True)
        if not isinstance(switchable, bool):
            raise ParseError(f"line #{k}: 'switchable' must be a boolean")
        try:
            lines.append(Line(obj["from"], obj["to"], *[parse_rational(obj.get(name), name) for name in LINE_VALUES], switchable))
        except ValueError as exc:
            raise ParseError(f"line #{k} {exc}") from exc

    net = Network(tuple(buses), tuple(lines))
    _validate(net)
    return net


def line_index(key: str, where: str) -> int:
    """The line a JSON object key such as a point's 'y' or a cut's 'y_coeffs'
    names: only its canonical decimal, so no line is spelled two ways, of at
    most 20 digits, so int() never meets a key past its digit limit."""
    if len(key) <= 20 and key.isdigit() and key.isascii() and (key[0] != "0" or key == "0"):
        return int(key)
    shown = f"{key[:20]!r}... ({len(key)} characters)" if len(key) > 20 else repr(key)
    raise ParseError(f"{where} key {shown} is not a line index in canonical decimal")


def network_to_json(net: Network) -> dict:
    return {
        "buses": [{"id": bus.id, **{name: format_rational(getattr(bus, name)) for name in BUS_VALUES}} for bus in net.buses],
        "lines": [
            {"from": line.from_bus, "to": line.to_bus, **{name: format_rational(getattr(line, name)) for name in LINE_VALUES},
             "switchable": line.switchable}
            for line in net.lines
        ],
    }


def serialize_network(net: Network) -> str:
    return json.dumps(network_to_json(net), indent=2) + "\n"


def parallel_ordinals(net: Network) -> list[int]:
    """Per line, its ordinal among lines sharing the same endpoints.

    Used to give parallel circuits distinct names in exported models.
    """
    counts: dict[frozenset[str], int] = {}
    ordinals = []
    for line in net.lines:
        key = line.endpoints()
        ordinals.append(counts.get(key, 0))
        counts[key] = counts.get(key, 0) + 1
    return ordinals
