import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from anglecuts.errors import AngleCutsError, DisconnectedError, ParseError, ValidationError
from anglecuts.network import Line, load_network, network_to_json, serialize_network
from anglecuts.rational import parse_rational

from _brute import fraction_parse_rational
from conftest import make_net


def doc(buses, lines):
    return json.dumps({"buses": buses, "lines": lines})


def test_weight_is_exact_rational_product():
    net = make_net([("a",), ("b",)], [("a", "b", F(1, 2), 4)])
    assert net.lines[0].weight == F(2)


def test_line_weight_examples():
    assert Line("a", "b", F(1), F(1)).weight == 1
    assert Line("a", "b", F(3, 7), F(14)).weight == 6


def test_singleton_network_is_valid():
    net = load_network(doc([{"id": "only"}], []))
    assert len(net.buses) == 1 and not net.lines


def test_empty_bus_list_is_parse_error():
    with pytest.raises(ParseError, match="'buses' must be a nonempty list"):
        load_network(doc([], []))


def test_disconnected_rejected_with_bus_name():
    payload = doc(
        [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        [{"from": "a", "to": "b", "reactance": "1", "capacity": "1"}],
    )
    with pytest.raises(DisconnectedError, match="'c'"):
        load_network(payload)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("reactance", "0", "reactance"),
        ("reactance", "-1", "reactance"),
        ("capacity", "0", "capacity"),
    ],
)
def test_nonpositive_line_parameters_rejected(field, value, message):
    line = {"from": "a", "to": "b", "reactance": "1", "capacity": "1"}
    line[field] = value
    with pytest.raises(ValidationError, match=message):
        load_network(doc([{"id": "a"}, {"id": "b"}], [line]))


def test_duplicate_bus_id_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        load_network(doc([{"id": "a"}, {"id": "a"}], []))


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        load_network(
            doc([{"id": "a"}, {"id": "b"}],
                [{"from": "a", "to": "a", "reactance": "1", "capacity": "1"},
                 {"from": "a", "to": "b", "reactance": "1", "capacity": "1"}])
        )


def test_unknown_endpoint_rejected():
    with pytest.raises(ValidationError, match="unknown bus"):
        load_network(doc([{"id": "a"}], [{"from": "a", "to": "zz", "reactance": "1", "capacity": "1"}]))


def test_negative_demand_rejected():
    with pytest.raises(ValidationError, match="demand"):
        load_network(doc([{"id": "a", "demand": "-1"}], []))


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        load_network(b"{not json")


def test_integer_literal_too_long_to_read_is_parse_error():
    # json.loads itself refuses an int literal past Python's digit limit
    with pytest.raises(ParseError, match="malformed JSON"):
        load_network('{"buses": [{"id": "a", "gen_cost": ' + "9" * 5000 + "}]}")


def test_float_values_rejected_as_parse_error():
    with pytest.raises(ParseError, match="exact"):
        load_network(doc([{"id": "a", "demand": 0.5}], []))


@pytest.mark.parametrize("demand, message", [
    ("1e5000", "decimal exponent in '1e5000' gives more than"),
    ("1e-4300", "decimal exponent in '1e-4300' gives more than"),
    ("1e" + "9" * 5000, "decimal exponent in '1e999"),
    ("99e4299", "a numerator or denominator has more than"),
], ids=["exponent", "negative-exponent", "long-exponent", "numerator"])
def test_numbers_too_long_to_print_rejected(demand, message):
    """10**e has e + 1 digits, past Python's 4300-digit printing limit
    from e = 4300 on; the refusal names the field."""
    with pytest.raises(ParseError, match=f"bus 'a' demand: {message}"):
        load_network(doc([{"id": "a", "demand": demand}], []))


def test_exponent_without_digits_is_not_a_rational():
    with pytest.raises(ValueError, match="x: not a rational string: '1e_'"):
        parse_rational("1e_", "x")


def test_long_values_from_code_rejected():
    for value in (10**4300, F(1, 10**4300)):
        with pytest.raises(ValueError, match="x: a numerator or denominator has more than"):
            parse_rational(value, "x")


def test_longest_printable_numbers_accepted():
    net = load_network(doc([{"id": "a", "demand": "1e4299", "gen_max": "15e-4299"}], []))
    assert net.buses[0].demand == 10**4299 and net.buses[0].gen_max == F(15, 10**4299)


def test_missing_line_field_is_parse_error():
    with pytest.raises(ParseError):
        load_network(doc([{"id": "a"}, {"id": "b"}], [{"from": "a", "to": "b", "capacity": "1"}]))


def test_parallel_lines_keep_distinct_indices():
    net = make_net([("u",), ("v",)], [("u", "v", 1, 1), ("u", "v", 1, 3)])
    assert len(net.lines) == 2
    assert net.adjacency["u"] == (0, 1)


def line_doc(frm, to, reactance="1", capacity="1"):
    return {"from": frm, "to": to, "reactance": reactance, "capacity": capacity}


# documents with several faults, and the one load_network names: a bus's
# faults in bus order, then each line's in line order, then connectivity;
# every value is parsed before any is checked
FIRST_FAULT = [
    ([{"id": "a"}, {"id": "b", "demand": "-1"}, {"id": "a"}], [],
     ValidationError, "bus 'b': demand must be >= 0"),
    ([{"id": "a"}, {"id": "a"}, {"id": "b", "gen_max": "-1"}], [],
     ValidationError, "duplicate bus id 'a'"),
    ([{"id": "a"}, {"id": "b"}], [line_doc("a", "z"), line_doc("a", "b", reactance="0")],
     ValidationError, "line 0 ('a'-'z'): unknown bus 'z'"),
    ([{"id": "a"}, {"id": "b"}, {"id": "c"}], [line_doc("a", "b", capacity="0")],
     ValidationError, "line 0 ('a'-'b'): capacity must be > 0"),
    ([{"id": "a", "demand": "-1"}, {"id": "b"}], [line_doc("a", "b", reactance="x")],
     ParseError, "line #0 reactance: not a rational string: 'x'"),
    ([{"id": "a"}, {"id": "d"}, {"id": "b"}, {"id": "c"}], [line_doc("a", "b"), line_doc("c", "d")],
     DisconnectedError, "bus 'd' is not connected to bus 'a'"),
]


@pytest.mark.parametrize("buses, lines, error, message", FIRST_FAULT, ids=range(len(FIRST_FAULT)))
def test_the_first_fault_is_named(buses, lines, error, message):
    with pytest.raises(AngleCutsError) as got:
        load_network(doc(buses, lines))
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize("field", ["demand", "gen_max", "gen_cost"])
def test_bus_value_messages(field):
    with pytest.raises(ParseError) as got:
        load_network(doc([{"id": "a", field: "x"}], []))
    assert str(got.value) == f"bus 'a' {field}: not a rational string: 'x'"
    with pytest.raises(ValidationError) as got:
        load_network(doc([{"id": "a", field: "-1/2"}], []))
    assert str(got.value) == f"bus 'a': {field} must be >= 0"


# each distinct raw value is parsed once per document, so a later value
# equal to one parsed before must not take its parse: true, 1 and 1.0 are
# equal dict keys, and a memo keyed by the raw value alone would give bus
# 'b' the 1 bus 'a' parsed
LATER_VALUES = [
    (True, "bus 'b' demand: expected a rational, got a boolean"),
    (1.0, "bus 'b' demand: floats are not exact; use a decimal or p/q string"),
    ("1/0", "bus 'b' demand: not a rational string: '1/0'"),
]


@pytest.mark.parametrize("later, message", LATER_VALUES, ids=[repr(v) for v, _ in LATER_VALUES])
def test_a_value_equal_to_an_earlier_one_keeps_its_type_and_message(later, message):
    with pytest.raises(ParseError) as got:
        load_network(doc([{"id": "a", "demand": 1}, {"id": "b", "demand": later}], []))
    assert str(got.value) == message
    # the other way round the 1 parses, and so does every value of the kind it stands for
    net = load_network(doc([{"id": "a", "gen_max": 1, "demand": "1"}, {"id": "b", "demand": 1}], [line_doc("a", "b")]))
    assert [(bus.demand, bus.gen_max) for bus in net.buses] == [(1, 1), (1, 0)]
    assert all(type(bus.demand) is F for bus in net.buses)


def test_the_same_bad_value_names_the_first_bus():
    for bad, message in [("x", "not a rational string: 'x'"), (True, "expected a rational, got a boolean")]:
        with pytest.raises(ParseError) as got:
            load_network(doc([{"id": "a"}, {"id": "b", "gen_cost": bad}, {"id": "c", "gen_cost": bad}], []))
        assert str(got.value) == f"bus 'b' gen_cost: {message}"


def test_a_list_or_object_value_is_refused_as_before():
    for bad, kind in [([1], "list"), ({"p": 1}, "dict")]:
        with pytest.raises(ParseError) as got:
            load_network(doc([{"id": "a", "demand": 1}, {"id": "b", "demand": bad}], []))
        assert str(got.value) == f"bus 'b' demand: expected a rational string or integer, got {kind}"


@pytest.mark.parametrize("field", ["reactance", "capacity"])
def test_line_value_messages(field):
    buses = [{"id": "a"}, {"id": "b"}]
    for value, message in [("x", "not a rational string: 'x'"), (None, "expected a rational string or integer, got NoneType")]:
        line = line_doc("a", "b")
        if value is None:
            del line[field]
        else:
            line[field] = value
        with pytest.raises(ParseError) as got:
            load_network(doc(buses, [line_doc("a", "b"), line]))
        assert str(got.value) == f"line #1 {field}: {message}"
    for value in ("0", "-1/2"):
        with pytest.raises(ValidationError) as got:
            load_network(doc(buses, [line_doc("a", "b", **{field: value})]))
        assert str(got.value) == f"line 0 ('a'-'b'): {field} must be > 0"


@pytest.mark.parametrize("data", [b"\xff\xfe", b'{"buses": [{"id": "\xe9"}]}'], ids=["bom", "latin-1"])
def test_a_document_that_is_not_utf8_is_a_parse_error(data, tmp_path):
    path = tmp_path / "net.json"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as text:
        for source in (data, io.BytesIO(data), text):
            with pytest.raises(ParseError, match="^network document is not UTF-8: "):
                load_network(source)


def test_round_trip(fig1):
    again = load_network(serialize_network(fig1))
    assert again == fig1


def test_switchable_defaults_true():
    net = load_network(doc([{"id": "a"}, {"id": "b"}], [{"from": "a", "to": "b", "reactance": "1", "capacity": "1"}]))
    assert net.lines[0].switchable


rationals = st.fractions(min_value=F(1, 20), max_value=F(50), max_denominator=20)


@given(
    st.lists(rationals, min_size=1, max_size=6),
    st.lists(rationals, min_size=1, max_size=6),
)
def test_fuzz_weights_and_round_trip(reactances, capacities):
    k = min(len(reactances), len(capacities))
    buses = [(f"b{i}",) for i in range(k + 1)]
    lines = [(f"b{i}", f"b{i + 1}", reactances[i], capacities[i]) for i in range(k)]
    net = make_net(buses, lines)
    for i in range(k):
        assert net.lines[i].weight == reactances[i] * capacities[i]
    assert load_network(serialize_network(net)) == net


def test_json_shape_matches_schema(fig1):
    obj = network_to_json(fig1)
    assert set(obj) == {"buses", "lines"}
    assert obj["lines"][0]["from"] == "i0"
    assert obj["buses"][0]["gen_max"] == "3"


def assert_parses_as_the_fraction_parser(text):
    """parse_rational gives the Fraction, or the error message, that the
    Fraction-parser reference gives."""
    try:
        expect = fraction_parse_rational(text, "x")
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_rational(text, "x")
        assert str(got.value) == str(exc)
    else:
        got = parse_rational(text, "x")
        assert type(got) is F and got == expect


# the fast path's edges: signs and spaces it leaves to Fraction, digits
# that are not ASCII, zero and signed denominators, and lengths around
# its 40-character cut and Python's 4300-digit limit
PARSE_CASES = [
    "+1", " 1 ", "1_0", "007", "-0", "1/0", "-1/0", "1/00", "0/7", "5/-3", "-5/3", "0.25", "1e3", "٣", "٣/٤", "¹",
    "", "-", "/", "1/", "/2", "--1", "1//2", "1/2/3", "1\n", "\t2", "1" * 40, "-" + "9" * 39,
    "1" * 20 + "/" + "3" * 19, "1" * 41, "-" + "9" * 40, "1" * 5000, str(10**400), "1e400",
    "1e5000", "1e-4300", "1e" + "9" * 5000, "99e4299", "1e4299", "15e-4299",
]


@pytest.mark.parametrize("text", PARSE_CASES, ids=range(len(PARSE_CASES)))
def test_parse_rational_matches_the_fraction_parser_on_edge_cases(text):
    assert_parses_as_the_fraction_parser(text)


@settings(max_examples=300)
@given(st.one_of(
    st.text(alphabet="0123456789-+/._eE ٣\t", max_size=12),
    st.builds(lambda sign, p, q: f"{sign}{p}" + ("" if q is None else f"/{q}"),
              st.sampled_from(["", "-", "+"]), st.integers(0, 10**45), st.none() | st.integers(0, 10**45)),
))
def test_parse_rational_matches_the_fraction_parser(text):
    assert_parses_as_the_fraction_parser(text)
