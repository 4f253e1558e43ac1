"""Conjunctive where clauses on every tier, checked against the reference.

The compiler splits ``where A and B`` into ``where A where B`` so the
pushed scan, the column masks and codegen run conjunctions too.  That is
exact only because every tier applies pushed predicates by one ordered
rule (a False prunes a row only where every earlier predicate answered
True), the left-to-right order in which ``and`` and consecutive where
clauses evaluate.  The oracle is always the pushdown-off evaluator:

* (a) generated messy JSON-lines files and generated 2-3 conjunct
  conditions, mixing pushable and unpushable conjuncts: ``where A and
  B`` and ``where A where B`` over the file agree on results *and*
  error codes with the reference's local tuple stream over the same
  records, pushdown off and under the pushed, columnar and codegen
  configurations;
* (b) the fixed repros where the tiers used to disagree: a pushed where
  after an unpushed one, a later predicate pruning a row an earlier one
  raises on, and the DataFrame fast predicate against the local where;
* (c) the conjunction really rides the pushed columnar scan.
"""

import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import make_engine
from repro.jsoniq.errors import JsoniqException
from repro.jsoniq.jsonlines import _wrap_fast

FIXED = settings(max_examples=40, deadline=None, derandomize=True,
                 database=None)

TIERS = {
    "reference": dict(pushdown=False),
    "pushed": dict(pushdown=True, columnar=False, codegen=False),
    "columnar": dict(pushdown=True, columnar=True, codegen=False),
    "codegen": dict(pushdown=True, columnar=True, codegen=True),
}

#: Raw values a key may hold; ``None`` in a row spec means "absent".
VALUES = st.sampled_from(
    ["x", "y", 1, 2, 2.5, 1.0, True, [1], {"k": 1}, "null", None]
)
#: Rows: mostly regular objects, some that take the columnar escape
#: hatch (re-ordered keys, an unknown key, non-objects).
ROWS = st.lists(
    st.one_of(
        st.tuples(st.just("regular"), VALUES, VALUES),
        st.tuples(st.sampled_from(["reordered", "extra"]), VALUES, VALUES),
        st.tuples(st.just("scalar"), st.sampled_from([3, "s", [1]]),
                  st.none()),
    ),
    min_size=1, max_size=12,
)


def _value(raw):
    # "null" stands for a JSON null; None for an absent key.
    return None if raw == "null" else raw


def _record(spec):
    shape, a, b = spec
    if shape == "scalar":
        return a
    pairs = [("a", a), ("b", b)]
    if shape == "reordered":
        pairs.reverse()
    record = {key: _value(raw) for key, raw in pairs if raw is not None}
    if shape == "extra":
        record["z"] = 0
    return record


KEYS = st.sampled_from(["a", "b"])
OPS = st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge", "=", "!=", "<",
                       ">="])
LITERALS = st.sampled_from(['"x"', "1", "2.5", "true"])
PUSHABLE = st.one_of(
    st.builds("$i.{} {} {}".format, KEYS, OPS, LITERALS),
    st.builds("{} {} $i.{}".format, LITERALS, OPS, KEYS),
    st.builds("$i.{} {} $i.{}".format, KEYS, OPS, KEYS),
)
#: Conditions pushdown declines; several raise on messy rows.
UNPUSHABLE = st.one_of(
    st.builds("$i.{} + 1 gt 0".format, KEYS),
    st.builds("exists($i.{})".format, KEYS),
    st.builds("not($i.{} eq 1)".format, KEYS),
)
CONJUNCTS = st.lists(st.one_of(PUSHABLE, PUSHABLE, UNPUSHABLE),
                     min_size=2, max_size=3)

#: Consumers: the count kernel, the masked scan (and codegen stage) and
#: the group-by count kernel.
SHAPES = [
    "count(for $i in {source} {where} return $i)",
    "for $i in {source} {where} return $i.a",
    "for $i in {source} {where} group by $k := $i.b return count($i)",
]


@pytest.fixture(scope="module")
def engines():
    return {
        tier: make_engine(executors=1, parallelism=1, **flags)
        for tier, flags in TIERS.items()
    }


def _outcome(engine, text, bindings=None):
    try:
        answer = engine.query(text, bindings=bindings).to_python()
    except JsoniqException as error:
        return "error " + error.code
    if "group by" in text:
        # A group-by's output order is not part of its contract.
        answer = sorted(answer, key=json.dumps)
    return json.dumps(answer)


_files = itertools.count()


@given(rows=ROWS, conjuncts=CONJUNCTS)
@example(rows=[("regular", "x", "w"), ("regular", 1, "z")],
         conjuncts=["$i.a eq 1", '$i.b eq "z"'])
@example(rows=[("regular", "x", "w"), ("regular", 1, "z")],
         conjuncts=["$i.a + 1 gt 0", '$i.b eq "z"'])
@example(rows=[("regular", None, [1])],
         conjuncts=["exists($i.b)", "$i.a eq $i.b"])
@example(rows=[("regular", None, [1])],
         conjuncts=["exists($i.b)", "$i.b = $i.a"])
@FIXED
def test_conjunction_forms_agree_on_every_tier(engines, tmp_path_factory,
                                               rows, conjuncts):
    # A fresh file per example: the batch cache keys on path and mtime.
    path = tmp_path_factory.getbasetemp() / "conj{}.json".format(
        next(_files))
    records = [_record(row) for row in rows]
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    source = 'json-file("{}")'.format(path)
    # The oracle: the same records as a local sequence, where every
    # where clause runs through the reference ComparisonIterator.
    local = {"rows": [_wrap_fast(record) for record in records]}
    forms = {
        "and": "where " + " and ".join(conjuncts),
        "split": " ".join("where " + conjunct for conjunct in conjuncts),
    }
    for shape in SHAPES:
        expected = _outcome(engines["reference"], shape.format(
            source="$rows", where=forms["and"]), local)
        for (tier, engine), (form, where) in itertools.product(
            engines.items(), forms.items()
        ):
            text = shape.format(source=source, where=where)
            assert _outcome(engine, text) == expected, (tier, form, text)


REPRO_ROWS = '{"x":"a","y":"w"}\n{"x":1,"y":"z"}\n{"x":2,"y":"q"}\n'
REPRO_QUERIES = [
    # A pushed where after an unpushed one hid the earlier clause's error.
    'count(for $i in json-file("{rows}") where $i.x + 1 gt 0 '
    'where $i.y eq "z" return $i)',
    # A later pushed predicate pruned the row an earlier one raises on.
    'count(for $i in json-file("{rows}") where $i.x eq 1 '
    'where $i.y eq "z" return $i)',
    'count(for $i in json-file("{rows}") where $i.x eq 1 '
    'and $i.y eq "z" return $i)',
    # The DataFrame fast predicate skipped the right operand's check.
    'count(for $i in ({{"a":[1]}}) where $i.x eq $i.a return $i)',
    'count(for $i in json-file("{array}") where $i.x eq $i.a return $i)',
    'count(for $i in parallelize(({{"a":[1]}})) where $i.x eq $i.a '
    'return $i)',
    'count(for $i in parallelize(({{"a":[1]}})) where $i.a = $i.x '
    'return $i)',
]


@pytest.fixture(scope="module")
def repro_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("conjunction")
    rows = directory / "rows.json"
    rows.write_text(REPRO_ROWS)
    array = directory / "array.json"
    array.write_text('{"a":[1]}\n')
    clean = directory / "clean.json"
    clean.write_text(
        '{"x":"a","y":"w"}\n{"x":"z","y":"z"}\n{"x":"b","y":"q"}\n')
    return {"rows": str(rows), "array": str(array), "clean": str(clean)}


@pytest.mark.parametrize("query", REPRO_QUERIES)
def test_repro_raises_on_every_tier(engines, repro_files, query):
    text = query.format(**repro_files)
    outcomes = {tier: _outcome(engine, text)
                for tier, engine in engines.items()}
    assert outcomes == dict.fromkeys(TIERS, "error XPTY0004"), outcomes


def test_conjunction_runs_on_the_pushed_columnar_scan(engines, repro_files):
    text = ('count(for $i in json-file("{clean}") where $i.y ne "q" '
            'and $i.x ne $i.y return $i)').format(**repro_files)
    explain = engines["codegen"].explain(text)
    assert "pushed predicate: $i.y ne 'q'" in explain
    assert "pushed predicate: $i.x ne $i.y" in explain
    assert "columnar: count kernel over masked scan" in explain
    assert "declined" not in explain
    report = engines["codegen"].profile(text)
    assert [item.to_python() for item in report.items] == [1]
    counters = report.metrics["counters"]
    assert counters.get("rumble.columnar.count_kernel", 0) == 1
    assert counters.get("rumble.pushdown.predicates", 0) == 2
