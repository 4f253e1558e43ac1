"""Property tests (hypothesis, fixed seeds): the cold ingest path is
output-identical to the row-at-a-time forms it replaced.

Four pins, one per rewritten loop, each against an oracle from
``tests/ingest_oracles.py`` or plain ``json``:

* **(a) chunked reads** — ``FileBlock.read_lines`` yields exactly the
  lines a ``readline()`` loop yields, block by block, and under
  ``strict`` decoding the same lines before the same error;
* **(b) scanner decode** — every parse mode sees the values, the
  ``JsonSyntaxError`` texts and the ``on_malformed`` calls that
  ``json.loads`` implies;
* **(c) column-at-a-time shredding** — ``shred_records`` builds the same
  batch, field for field, as row-at-a-time shredding;
* **(d) cold boxing** — boxing from the decoded records yields the items
  the warm path rebuilds from the columns.
"""

import json
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.items.columnar import ListColumn, MaskedBatch, shred_records
from repro.jsoniq.jsonlines import (
    CORRUPT_RECORD_FIELD,
    PARSE_MODES,
    JsonSyntaxError,
    iter_json_lines,
    iter_json_lines_pushed,
    shred_json_lines,
)
from repro.jsoniq.runtime.flwor.pushdown import PushedPredicate, _make_raw
from repro.spark import storage
from repro.spark.storage import FileBlock
from tests.ingest_oracles import read_lines_rowwise, shred_records_rowwise


def fixed(examples: int):
    """Hypothesis settings with a fixed seed."""
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=examples)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return str(tmp_path_factory.mktemp("scan_ingest"))


def _drain(iterator):
    """(items, error) of running an iterator to its end or first error;
    the error as (type, args, text) so equal errors compare equal."""
    items = []
    try:
        for item in iterator:
            items.append(item)
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return items, (type(error), error.args, str(error))
    return items, None


# -- (a) chunked block reads --------------------------------------------------

LINE_PIECES = st.one_of(
    st.sampled_from([
        b"", b"\r", b"\r\r", b"a\rb", b"  ", b'{"a": 1}', "é€😀".encode(),
        b"\xff", b"\xe2\x82", b"ok\xc3", b"\xed\xa0\x80",
    ]),
    st.binary(max_size=12),
    # Lines around and beyond the chunk size under test.
    st.builds(lambda n, c: c * n, st.integers(0, 40), st.sampled_from(
        [b"x", "é".encode(), b"\r"])),
)
SEPARATORS = st.sampled_from([b"\n", b"\r\n", b"\n\n", b"\r"])


@st.composite
def block_files(draw):
    pieces = draw(st.lists(LINE_PIECES, max_size=12))
    data = b""
    for piece in pieces:
        data += piece + draw(SEPARATORS)
    if pieces and draw(st.booleans()):
        data = data[:-1]  # a last line without its line ending
    if draw(st.booleans()):
        data += b"y" * draw(st.integers(0, 3 * 64))  # longer than a chunk
    cuts = draw(st.lists(st.integers(1, max(1, len(data) - 1)), max_size=4))
    return data, sorted(set(cut for cut in cuts if cut < len(data)))


def _blocks(path, size, cuts):
    bounds = [0] + cuts + [size]
    return [FileBlock(path, start, end - start)
            for start, end in zip(bounds, bounds[1:])]


class TestChunkedReads:
    @fixed(250)
    @given(case=block_files(), chunk=st.sampled_from([1, 5, 64, 8192]),
           errors=st.sampled_from(["replace", "strict"]))
    @example(case=(b"a\nb\xffc\nd\n", [2]), chunk=8192, errors="strict")
    @example(case=(b"\r\n\r\nx\r\r\n" + b"z" * 20000, [3, 9000]),
             chunk=8192, errors="replace")
    def test_lines_match_readline_loop(self, scratch, case, chunk, errors):
        data, cuts = case
        path = os.path.join(scratch, "block.txt")
        with open(path, "wb") as handle:
            handle.write(data)
        blocks = _blocks(path, len(data), cuts)
        with mock.patch.object(storage, "READ_CHUNK", chunk):
            for block in blocks:
                assert _drain(block.read_lines(errors)) \
                    == _drain(read_lines_rowwise(block, errors))
            if errors == "replace":
                # Every line comes out exactly once across the blocks.
                whole = FileBlock(path, 0, len(data))
                assert [line for block in blocks
                        for line in block.read_lines(errors)] \
                    == list(whole.read_lines(errors))

    def test_strict_error_after_the_good_lines(self, scratch):
        path = os.path.join(scratch, "bad.txt")
        with open(path, "wb") as handle:
            handle.write(b"one\ntwo\nth\xffree\nfour\n")
        lines, error = _drain(FileBlock(path, 0, 22).read_lines("strict"))
        assert lines == ["one", "two"]
        assert error[0] is UnicodeDecodeError
        assert error[1][1] == b"th\xffree\n"  # the line, as readline() had it


# -- (b) scanner decode with the json.loads fallback --------------------------

SPECIAL_LINES = [
    "1 2", "{} x", "\ufeff{}", "NaN", "-Infinity", "1e400", '"\\ud800"',
    '"\ud800"', "[1,]", '{"a": 1,}', "tru", "  {\"a\": [1, 2.5]}  ", "\x1c7",
    "0123", '{"a": 1}\x85', "[" * 3, '"\\u00e9"', "{\"a\": 1} // c",
]
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=False), st.text(max_size=6),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=6,
)
decode_lines = st.one_of(
    st.sampled_from(SPECIAL_LINES),
    json_values.map(json.dumps),
    st.text(max_size=8),
)


def _canon(value):
    return json.dumps(value)


def _expected(lines, mode):
    """(values, on_malformed calls, error text) from plain ``json``."""
    values, calls = [], []
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        try:
            values.append(json.loads(stripped))
        except ValueError as error:
            text = str(JsonSyntaxError(str(error)))
            if mode == "failfast":
                return values, calls, text
            calls.append((stripped, text))
            if mode == "permissive":
                values.append({CORRUPT_RECORD_FIELD: stripped})
    return values, calls, None


def _run(reader):
    calls = []

    def on_malformed(line, error):
        assert isinstance(error, JsonSyntaxError)
        calls.append((line, str(error)))

    items, error = _drain(reader(on_malformed))
    if error is not None:
        assert error[0] is JsonSyntaxError
        error = error[2]
    return items, calls, error


class TestScannerDecode:
    @fixed(200)
    @given(lines=st.lists(decode_lines, max_size=6),
           mode=st.sampled_from(PARSE_MODES))
    def test_every_reader_matches_json_loads(self, lines, mode):
        values, calls, error = _expected(lines, mode)
        expected = [_canon(value) for value in values]

        def items(on_malformed):
            return iter_json_lines(lines, mode, on_malformed=on_malformed)

        def pushed(on_malformed):
            return iter_json_lines_pushed(lines, mode=mode,
                                          on_malformed=on_malformed)

        for reader in (items, pushed):
            got, got_calls, got_error = _run(reader)
            assert got_error == error
            assert got_calls == calls
            if error is None:
                assert [_canon(item.to_python()) for item in got] \
                    == expected

        records = []

        def shredded(on_malformed):
            batch = shred_json_lines(lines, mode, on_malformed=on_malformed,
                                     records=records)
            yield from map(batch.rebuild_record, range(batch.row_count))

        got, got_calls, got_error = _run(shredded)
        assert (got_error, got_calls) == (error, calls)
        if error is None:
            assert [_canon(record) for record in got] == expected
            assert [_canon(record) for record in records] == expected

    @pytest.mark.parametrize("line", SPECIAL_LINES)
    def test_failfast_error_text_is_json_loads(self, line):
        try:
            value = json.loads(line.strip())
        except ValueError as error:
            with pytest.raises(JsonSyntaxError) as raised:
                list(iter_json_lines([line]))
            assert str(raised.value) == str(JsonSyntaxError(str(error)))
        else:
            got = [item.to_python() for item in iter_json_lines([line])]
            assert [_canon(item) for item in got] == [_canon(value)]


# -- (c) column-at-a-time shredding -------------------------------------------

SCHEMA = (("a", st.integers(-5, 5)), ("b", st.text(max_size=3)),
          ("c", st.floats(-2, 2)), ("d", st.lists(st.integers(0, 3),
                                                  max_size=3)),
          ("e", st.booleans()), ("n", st.none()))


@st.composite
def regular_rows(draw):
    row = {}
    for key, values in SCHEMA:
        choice = draw(st.integers(0, 9))
        if choice == 0:
            continue  # a missing key
        row[key] = None if choice == 1 else draw(values)
    return row


messy_rows = st.one_of(
    st.dictionaries(st.sampled_from(["e", "d", "a", "z"]), json_values,
                    max_size=3),                          # re-ordered/unknown
    json_values,                                         # maybe non-objects
    st.builds(lambda v: {"a": v}, st.sampled_from([True, False, 1.5, "1"])),
    st.builds(lambda v: {"a": 1, "b": v}, st.sampled_from([2, None, [1]])),
)


@st.composite
def record_lists(draw):
    rows = draw(st.lists(st.one_of(regular_rows(), regular_rows(),
                                   regular_rows(), messy_rows),
                         max_size=90))
    # A type conflict the 64-row sample cannot see.
    if len(rows) > 64 and draw(st.booleans()):
        rows[draw(st.integers(64, len(rows) - 1))] = {"a": "late", "b": "x"}
    return rows


def _batch_fields(batch):
    """Everything a batch holds, with ``repr`` so True/1/1.0 differ."""
    columns = {}
    for key, column in batch.columns.items():
        fields = (type(column).__name__, column.kind,
                  list(map(repr, column.values)),
                  list(map(repr, column.validity)))
        if isinstance(column, ListColumn):
            fields += (list(map(repr, column.flat)), list(column.offsets))
        columns[key] = fields
    schema = None
    if batch.schema is not None:
        schema = (batch.schema.keys, sorted(batch.schema.kinds.items()))
    return (schema, list(columns.items()), batch.row_count,
            [(row, repr(record)) for row, record in batch.escaped.items()])


class TestColumnShredding:
    @fixed(150)
    @given(records=record_lists())
    @example(records=[{"a": 1, "b": "x"}] * 70 + [{"a": True, "b": "y"},
                                                   {"a": "s", "b": "z"}])
    @example(records=[{"n": None}] * 3 + [[1], "s", {"n": None, "m": 1}])
    @example(records=[1, "two", None])
    def test_matches_rowwise_shredding(self, records):
        assert _batch_fields(shred_records(records)) \
            == _batch_fields(shred_records_rowwise(records))


# -- (d) cold boxing from the decoded records ---------------------------------

def _predicate(key, op, literal):
    left, right = ("key", key), ("lit", literal)
    return PushedPredicate({key}, _make_raw(left, right, op),
                           "{} {} {!r}".format(key, op, literal),
                           spec=(left, right, op))


PREDICATES = st.lists(st.one_of(
    st.builds(_predicate, st.just("a"), st.sampled_from(["ge", "lt", "eq"]),
              st.integers(-5, 5)),
    st.builds(_predicate, st.just("b"), st.sampled_from(["eq", "ne"]),
              st.text(max_size=1)),
    st.builds(_predicate, st.just("e"), st.just("eq"), st.booleans()),
), max_size=2)


class TestColdBoxing:
    @fixed(80)
    @given(records=record_lists(), predicates=PREDICATES)
    def test_cold_boxing_matches_warm(self, scratch, records, predicates):
        path = os.path.join(scratch, "boxing.json")
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        block = FileBlock(path, 0, os.path.getsize(path))
        decoded = []
        batch = shred_json_lines(block.read_lines(), records=decoded)
        statuses = batch.apply_predicates(predicates)

        def boxed(masked):
            return [(json.dumps(item.to_python()),
                     getattr(item, "pushdown_verified", False))
                    for item in masked.iter_boxed()]

        cold = boxed(MaskedBatch(batch, statuses, decoded))
        warm = boxed(MaskedBatch(batch, statuses))
        assert cold == warm
        assert len(cold) == sum(1 for status in statuses if status)
