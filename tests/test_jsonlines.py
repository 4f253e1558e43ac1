"""The JSON-Lines decoder, checked against the pure streaming parser."""

import pytest

from repro.jsoniq.jsonlines import (
    JsonSyntaxError,
    iter_json_lines,
    parse_json_line,
)
from tests.ingest_oracles import parse_json_line_pure


CASES = [
    "null",
    "true",
    "false",
    "0",
    "-42",
    "3.5",
    "-0.25",
    "1e3",
    "2.5E-2",
    '""',
    '"hello"',
    '"with \\"escapes\\" and \\n \\t \\u00e9"',
    "[]",
    "[1, 2, 3]",
    '[1, "two", null, [3]]',
    "{}",
    '{"a": 1}',
    '{"a": {"b": [true, false]}, "c": "x"}',
    '{ "spaced" : [ 1 , 2 ] }',
]


@pytest.mark.parametrize("text", CASES)
def test_pure_and_fast_parsers_agree(text):
    assert parse_json_line_pure(text) == parse_json_line(text)


@pytest.mark.parametrize("text", CASES)
def test_round_trips_through_python(text):
    import json

    assert parse_json_line(text).to_python() == json.loads(text)


def test_number_types():
    assert parse_json_line("3").is_integer
    assert parse_json_line("3.0").is_double
    assert parse_json_line("3e0").is_double
    assert parse_json_line_pure("3").is_integer
    assert parse_json_line_pure("3.0").is_double


@pytest.mark.parametrize("bad", [
    "", "{", "[1,", '"unterminated', "{1: 2}", "tru", "nul",
    '{"a" 1}', "[1 2]", "1 2", '{"a": }', "--3", '"\\x"',
])
def test_pure_parser_rejects_malformed(bad):
    with pytest.raises(JsonSyntaxError):
        parse_json_line_pure(bad)


@pytest.mark.parametrize("bad", ["", "{", "[1,", '"unterminated', "1 2"])
def test_fast_parser_rejects_malformed(bad):
    with pytest.raises(JsonSyntaxError):
        parse_json_line(bad)


def test_iter_json_lines_skips_blank_lines():
    lines = ['{"a": 1}', "", "   ", '{"a": 2}']
    items = list(iter_json_lines(lines))
    assert [item.to_python() for item in items] == [{"a": 1}, {"a": 2}]


def test_unicode_escape():
    assert parse_json_line_pure('"\\u0041"').to_python() == "A"
    with pytest.raises(JsonSyntaxError):
        parse_json_line_pure('"\\uZZZZ"')


def test_object_key_order_preserved():
    item = parse_json_line('{"z": 1, "a": 2}')
    assert item.keys() == ["z", "a"]
