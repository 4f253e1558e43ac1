"""The raw comparison rule checked against the reference evaluator.

``repro.items.compare.raw_verdict`` and ``raw_grouping_key`` are what
the pushed scan, the columnar masks and the group kernel evaluate on
decoded JSON values in place of the reference evaluator.  The oracle
here is always that evaluator (pushdown off, over ``_wrap_fast``
items), never a hand-written table:

* (a) a definite verdict on any pair of raw values, for all twelve
  operators, is the reference's answer, reached without an error;
* (b) the column masks, typed kernel included, equal the per-row verdict;
* (c) the raw grouping key equals the item grouping key, error included;
* (d) the NaN and 2**53+1 files answer alike on every tier.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import make_engine
from repro.items.columnar import shred_records
from repro.items.compare import (
    ABSENT,
    GENERAL_TO_VALUE,
    VALUE_OPS,
    grouping_key,
    raw_grouping_key,
    raw_verdict,
)
from repro.jsoniq.errors import JsoniqException
from repro.jsoniq.jsonlines import _wrap_fast

FIXED = settings(max_examples=150, deadline=None, derandomize=True,
                 database=None)

BIG = 2 ** 53 + 1
INTS = st.one_of(
    st.sampled_from([0, 1, -1, 5, BIG, -BIG, 2 ** 53, 10 ** 400]),
    st.integers(min_value=-100, max_value=100),
)
FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5.0,
                     float(2 ** 53), -float(2 ** 53)]),
    st.floats(min_value=-100, max_value=100),
)
STRINGS = st.text(alphabet="ab5", max_size=3)
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, STRINGS)
RAW = st.one_of(SCALARS, st.just(ABSENT), st.just([1]), st.just({"k": 1}))
OPERATORS = sorted(VALUE_OPS) + sorted(GENERAL_TO_VALUE)


def _verdict(mine, theirs, op):
    value_op = GENERAL_TO_VALUE.get(op, op)
    return raw_verdict(mine, theirs, VALUE_OPS[value_op],
                       value_op in ("eq", "ne"))


@pytest.fixture(scope="module")
def reference():
    """op -> the compiled pushdown-off where clauses over ``$rows``:
    one local tuple stream, one distributed (the DataFrame path)."""
    engine = make_engine(executors=1, parallelism=1, pushdown=False)
    return {
        op: [
            engine.compile(
                "for $i in {} where $i.a {} $i.b return 1".format(
                    source, op),
                external_variables=["rows"],
            )
            for source in ("$rows", "parallelize($rows)")
        ]
        for op in OPERATORS
    }


def _outcome(compiled, record):
    try:
        return bool(compiled.run({"rows": [_wrap_fast(record)]}).to_python())
    except JsoniqException as error:
        return error


def _record(a, b):
    return {key: value for key, value in (("a", a), ("b", b))
            if value is not ABSENT}


@given(mine=RAW, theirs=RAW)
@example(mine=math.nan, theirs=5)
@example(mine=BIG, theirs=float(2 ** 53))
@FIXED
def test_definite_verdict_is_the_reference_answer(reference, mine, theirs):
    record = _record(mine, theirs)
    for op, shapes in reference.items():
        verdict = _verdict(mine, theirs, op)
        if verdict is None:
            continue
        for compiled in shapes:
            assert _outcome(compiled, record) is verdict, (op, record)


@given(
    values=st.one_of(*(
        st.lists(st.one_of(kind, st.none(), st.just(ABSENT)), min_size=1,
                 max_size=8)
        for kind in (STRINGS, INTS, FLOATS, st.booleans())
    )),
    literal=SCALARS.filter(lambda value: value is not None),
)
@example(values=[BIG, None, ABSENT], literal=float(2 ** 53))
@example(values=[float(2 ** 53), math.nan], literal=BIG)
@FIXED
def test_column_mask_matches_the_verdict(values, literal):
    batch = shred_records([{"k": value} if value is not ABSENT else {}
                           for value in values])
    column = batch.columns.get("k")
    for value_op, py_op in VALUE_OPS.items():
        eq_family = value_op in ("eq", "ne")
        for flipped in (False, True):
            spec = [("key", "k"), ("lit", literal)]
            if flipped:
                spec.reverse()
            mask = batch._vector_mask(*spec, value_op)
            for row in range(batch.row_count):
                raw = column.read(row) if column is not None else ABSENT
                pair = (literal, raw) if flipped else (raw, literal)
                assert mask[row] is raw_verdict(*pair, py_op, eq_family), (
                    value_op, flipped, pair)


def test_typed_kernel_is_taken_for_same_type_literals():
    batch = shred_records([{"s": "a", "i": 1, "d": 1.5}] * 3)
    eq = VALUE_OPS["eq"]
    for key, literal in (("s", "a"), ("i", 1), ("d", 1.5), ("d", 1)):
        assert batch._typed_compare(key, literal, eq, True) is not None, key
    # An int column against a double literal takes the generic path.
    assert batch._typed_compare("i", 1.0, eq, True) is None


@given(value=st.one_of(SCALARS, st.just(ABSENT)))
@FIXED
def test_raw_grouping_key_is_the_item_key(value):
    item = None if value is ABSENT else _wrap_fast(value)
    try:
        expected = grouping_key(item)
    except OverflowError:
        with pytest.raises(OverflowError):
            raw_grouping_key(value, "k")
        return
    assert raw_grouping_key(value, "k") == expected


@pytest.mark.parametrize("value", [[1], {"a": 1}])
def test_raw_grouping_key_raises_the_group_by_error(value):
    engine = make_engine(executors=1, parallelism=1, pushdown=False)
    with pytest.raises(JsoniqException) as reference:
        engine.query(
            "for $i in $rows group by $k := $i.k return count($i)",
            bindings={"rows": [_wrap_fast({"k": value})]},
        ).to_python()
    with pytest.raises(type(reference.value)) as raw:
        raw_grouping_key(value, "k")
    assert str(raw.value) == str(reference.value)


#: The rows and queries where the tiers used to disagree: NaN against a
#: number, and an integer no double holds exactly against a double.
NAN_ROWS = '{"x":NaN,"y":1}\n{"x":5,"y":2}\n{"x":NaN,"y":3}\n'
BIG_ROWS = '{{"x":{}}}\n'.format(BIG)
REPRO_QUERIES = [
    ("nan", 'count(for $i in json-file("{}") where $i.x eq 5 return $i)'),
    ("nan", 'count(for $i in json-file("{}") where $i.x ne 5 return $i)'),
    ("nan", 'count(for $i in json-file("{}") where $i.x le 5 return $i)'),
    ("nan", 'for $i in json-file("{}") return $i.x eq $i.x'),
    ("big", 'for $i in json-file("{}") where $i.x eq 9007199254740992e0 '
            'return $i.x'),
    ("big", 'for $i in json-file("{}") where $i.x gt 9007199254740992e0 '
            'return $i.x'),
    ("big", 'for $i in json-file("{}") return $i.x eq 9007199254740992e0'),
    ("big", 'for $i in json-file("{}") return $i.x ge $i.x + 0.0'),
]
TIERS = {
    "reference": dict(pushdown=False),
    "pushed": dict(pushdown=True, columnar=False, codegen=False),
    "columnar": dict(pushdown=True, columnar=True, codegen=False),
    "codegen": dict(pushdown=True, columnar=True, codegen=True),
}


@pytest.fixture(scope="module")
def repro_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("raw_compare")
    paths = {}
    for name, rows in (("nan", NAN_ROWS), ("big", BIG_ROWS)):
        path = directory / (name + ".json")
        path.write_text(rows)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("file, query", REPRO_QUERIES)
def test_every_tier_answers_like_the_reference(repro_files, file, query):
    text = query.format(repro_files[file])
    answers = {
        tier: json.dumps(
            make_engine(executors=1, parallelism=1, **flags)
            .query(text).to_python()
        )
        for tier, flags in TIERS.items()
    }
    assert len(set(answers.values())) == 1, answers
