"""Row-at-a-time reference implementations of the cold ingest path.

The engine reads JSON-Lines in chunks, decodes with the C scanner and
shreds column at a time (``repro.spark.storage``, ``repro.jsoniq.jsonlines``,
``repro.items.columnar``).  The simple forms those rewrites replaced
live here as test oracles:

* :func:`parse_json_line_pure` — a recursive-descent JSON parser whose
  terminal productions construct items directly (the paper's JSONiter
  design, Section 5.7);
* :func:`shred_records_rowwise` — shredding one record at a time;
* :func:`read_lines_rowwise` — one ``readline()`` and ``decode()`` per
  line of a file block.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

from repro.items import (
    FALSE,
    NULL,
    TRUE,
    ArrayItem,
    DoubleItem,
    IntegerItem,
    Item,
    ObjectItem,
    StringItem,
)
from repro.items import columnar
from repro.jsoniq.jsonlines import JsonSyntaxError

_WHITESPACE = " \t\r\n"
_ESCAPES = {
    '"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f",
    "n": "\n", "r": "\r", "t": "\t",
}


def read_lines_rowwise(block, decode_errors: str = "strict") -> Iterator[str]:
    """The lines of a :class:`~repro.spark.storage.FileBlock`, read one
    ``readline()`` at a time (Hadoop's ``LineRecordReader`` rule: a
    block owns every line that starts inside its byte range)."""
    end = block.start + block.length
    with open(block.path, "rb") as handle:
        if block.start > 0:
            handle.seek(block.start - 1)
            handle.readline()
        else:
            handle.seek(0)
        while handle.tell() < end:
            line = handle.readline()
            if not line:
                return
            text = line.decode(
                "utf-8", errors=decode_errors
            ).rstrip("\n").rstrip("\r")
            if text:
                yield text


def _value_fits(kind: str, value) -> bool:
    if value is None or kind == columnar.KIND_MIXED:
        return True
    t = type(value)
    if kind == columnar.KIND_STRING:
        return t is str
    if kind == columnar.KIND_BOOLEAN:
        return t is bool
    if kind == columnar.KIND_INTEGER:
        return t is int and not isinstance(value, bool)
    if kind == columnar.KIND_DOUBLE:
        return t is float
    if kind == columnar.KIND_NUMBER:
        return (t is int or t is float) and not isinstance(value, bool)
    if kind == columnar.KIND_LIST:
        return t is list
    return False


def _append(column, value, flag: int) -> None:
    if column.kind == columnar.KIND_LIST:
        if flag == columnar.PRESENT:
            column.flat.extend(value)
        column.offsets.append(len(column.flat))
        value = None  # the offsets rule; the scalar slot stays unused
    column.values.append(value)
    column.validity.append(flag)


def shred_records_rowwise(records: Sequence[object],
                          sample: int = columnar.SCHEMA_SAMPLE
                          ) -> columnar.ColumnBatch:
    """Shred decoded records into a ``ColumnBatch`` one row at a time:
    a row shreds when it is an object whose keys are an in-order
    subsequence of the schema's and whose values fit their columns."""
    schema = columnar.infer_schema(records, sample)
    escaped: Dict[int, object] = {}
    if schema is None:
        return columnar.ColumnBatch(
            None, {}, len(records),
            {row: record for row, record in enumerate(records)},
        )
    columns = {
        key: (columnar.ListColumn() if schema.kinds[key] == columnar.KIND_LIST
              else columnar.Column(schema.kinds[key]))
        for key in schema.keys
    }
    index = schema.index
    kinds = schema.kinds
    ordered = list(columns.items())
    for row, record in enumerate(records):
        fits = type(record) is dict
        if fits:
            previous = -1
            for key, value in record.items():
                position = index.get(key)
                if position is None or position <= previous or not (
                    _value_fits(kinds[key], value)
                ):
                    fits = False
                    break
                previous = position
        if not fits:
            escaped[row] = record
            for _, column in ordered:
                _append(column, None, columnar.MISSING)
            continue
        for key, column in ordered:
            value = record.get(key, columnar.ABSENT)
            if value is columnar.ABSENT:
                _append(column, None, columnar.MISSING)
            elif value is None:
                _append(column, None, columnar.NULL)
            else:
                _append(column, value, columnar.PRESENT)
    return columnar.ColumnBatch(schema, columns, len(records), escaped)


def parse_json_line_pure(text: str) -> Item:
    """Parse one JSON value into an item with the pure streaming parser,
    requiring full consumption: a port of the JSONiter design (paper,
    Section 5.7), whose terminal productions build items directly."""
    item, position = _parse_value(text, _skip_ws(text, 0))
    position = _skip_ws(text, position)
    if position != len(text):
        raise JsonSyntaxError(
            "trailing characters after JSON value at offset {}".format(position)
        )
    return item



def _skip_ws(text: str, position: int) -> int:
    while position < len(text) and text[position] in _WHITESPACE:
        position += 1
    return position


def _parse_value(text: str, position: int) -> Tuple[Item, int]:
    if position >= len(text):
        raise JsonSyntaxError("unexpected end of JSON input")
    char = text[position]
    if char == "{":
        return _parse_object(text, position)
    if char == "[":
        return _parse_array(text, position)
    if char == '"':
        value, position = _parse_string(text, position)
        return StringItem(value), position
    if char == "t":
        if text.startswith("true", position):
            return TRUE, position + 4
    elif char == "f":
        if text.startswith("false", position):
            return FALSE, position + 5
    elif char == "n":
        if text.startswith("null", position):
            return NULL, position + 4
    elif char == "-" or char.isdigit():
        return _parse_number(text, position)
    raise JsonSyntaxError(
        "unexpected character {!r} at offset {}".format(char, position)
    )


def _parse_object(text: str, position: int) -> Tuple[Item, int]:
    position = _skip_ws(text, position + 1)
    pairs = {}
    if position < len(text) and text[position] == "}":
        return ObjectItem(pairs), position + 1
    while True:
        if position >= len(text) or text[position] != '"':
            raise JsonSyntaxError(
                "expected an object key at offset {}".format(position)
            )
        key, position = _parse_string(text, position)
        position = _skip_ws(text, position)
        if position >= len(text) or text[position] != ":":
            raise JsonSyntaxError(
                "expected ':' at offset {}".format(position)
            )
        value, position = _parse_value(text, _skip_ws(text, position + 1))
        pairs[key] = value
        position = _skip_ws(text, position)
        if position < len(text) and text[position] == ",":
            position = _skip_ws(text, position + 1)
            continue
        if position < len(text) and text[position] == "}":
            return ObjectItem(pairs), position + 1
        raise JsonSyntaxError(
            "expected ',' or '}}' at offset {}".format(position)
        )


def _parse_array(text: str, position: int) -> Tuple[Item, int]:
    position = _skip_ws(text, position + 1)
    members = []
    if position < len(text) and text[position] == "]":
        return ArrayItem(members), position + 1
    while True:
        value, position = _parse_value(text, position)
        members.append(value)
        position = _skip_ws(text, position)
        if position < len(text) and text[position] == ",":
            position = _skip_ws(text, position + 1)
            continue
        if position < len(text) and text[position] == "]":
            return ArrayItem(members), position + 1
        raise JsonSyntaxError(
            "expected ',' or ']' at offset {}".format(position)
        )


def _parse_string(text: str, position: int) -> Tuple[str, int]:
    position += 1  # opening quote
    pieces = []
    plain_start = position
    while position < len(text):
        char = text[position]
        if char == '"':
            pieces.append(text[plain_start:position])
            return "".join(pieces), position + 1
        if char == "\\":
            pieces.append(text[plain_start:position])
            escape = text[position + 1] if position + 1 < len(text) else ""
            if escape == "u":
                digits = text[position + 2:position + 6]
                try:
                    code = int(digits, 16)
                except ValueError:
                    raise JsonSyntaxError(
                        "bad unicode escape at offset {}".format(position)
                    ) from None
                position += 6
                if 0xD800 <= code <= 0xDBFF and text.startswith(
                    "\\u", position
                ):
                    # Combine a UTF-16 surrogate pair into one code point.
                    low_digits = text[position + 2:position + 6]
                    try:
                        low = int(low_digits, 16)
                    except ValueError:
                        low = -1
                    if 0xDC00 <= low <= 0xDFFF:
                        code = 0x10000 + ((code - 0xD800) << 10) + (
                            low - 0xDC00
                        )
                        position += 6
                pieces.append(chr(code))
            elif escape in _ESCAPES:
                pieces.append(_ESCAPES[escape])
                position += 2
            else:
                raise JsonSyntaxError(
                    "bad escape at offset {}".format(position)
                )
            plain_start = position
        else:
            position += 1
    raise JsonSyntaxError("unterminated string")


def _parse_number(text: str, position: int) -> Tuple[Item, int]:
    start = position
    if text[position] == "-":
        position += 1
    while position < len(text) and text[position].isdigit():
        position += 1
    is_double = False
    if position < len(text) and text[position] == ".":
        is_double = True
        position += 1
        while position < len(text) and text[position].isdigit():
            position += 1
    if position < len(text) and text[position] in "eE":
        is_double = True
        position += 1
        if position < len(text) and text[position] in "+-":
            position += 1
        while position < len(text) and text[position].isdigit():
            position += 1
    literal = text[start:position]
    if not literal or literal == "-":
        raise JsonSyntaxError("bad number at offset {}".format(start))
    if is_double:
        return DoubleItem(float(literal)), position
    return IntegerItem(int(literal)), position
