"""Property-based tests (hypothesis) on core data structures and the
engine's cross-mode invariants."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.items import (
    Item,
    grouping_key,
    item_from_python,
    ordering_tuple,
    value_compare,
    values_equal,
)
from repro.jsoniq.jsonlines import parse_json_line
from repro.spark import SparkContext
from repro.spark.shuffle import HashPartitioner, stable_hash
from tests.ingest_oracles import parse_json_line_pure

# -- Strategies ---------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**12, max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

#: Atomics comparable with each other (one family at a time).
comparable_pairs = st.one_of(
    st.tuples(st.integers(), st.integers()),
    st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.tuples(st.text(max_size=10), st.text(max_size=10)),
    st.tuples(st.booleans(), st.booleans()),
)


def items_of(values):
    return [item_from_python(v) for v in values]


# -- Item model -----------------------------------------------------------------

class TestItemProperties:
    @given(json_values)
    def test_python_round_trip(self, value):
        assert item_from_python(value).to_python() == value

    @given(json_values)
    def test_serialization_is_valid_json(self, value):
        item = item_from_python(value)
        assert json.loads(item.serialize()) == json.loads(
            json.dumps(value)
        )

    @given(json_values)
    def test_parsers_agree(self, value):
        text = json.dumps(value)
        assert parse_json_line(text) == parse_json_line_pure(text)

    @given(json_values)
    def test_equality_reflexive_and_hash_consistent(self, value):
        left = item_from_python(value)
        right = item_from_python(json.loads(json.dumps(value)))
        assert left == right
        assert hash(left) == hash(right)


class TestComparisonProperties:
    @given(comparable_pairs)
    def test_antisymmetry(self, pair):
        left, right = items_of(pair)
        assert value_compare(left, right) == -value_compare(right, left)

    @given(comparable_pairs, comparable_pairs)
    def test_transitivity_within_family(self, first, second):
        a, b = items_of(first)
        c, d = items_of(second)
        for x, y, z in ((a, b, a), (a, b, b)):
            try:
                if value_compare(x, y) <= 0 and value_compare(y, z) <= 0:
                    assert value_compare(x, z) <= 0
            except Exception:
                pass  # cross-family pairs may legitimately be incomparable

    @given(comparable_pairs)
    def test_values_equal_iff_compare_zero(self, pair):
        left, right = items_of(pair)
        assert values_equal(left, right) == (
            value_compare(left, right) == 0
        )

    @given(comparable_pairs)
    def test_ordering_tuple_consistent_with_compare(self, pair):
        left, right = items_of(pair)
        comparison = value_compare(left, right)
        key_order = (
            (ordering_tuple(left) > ordering_tuple(right))
            - (ordering_tuple(left) < ordering_tuple(right))
        )
        assert comparison == key_order

    @given(comparable_pairs)
    def test_grouping_key_respects_equality(self, pair):
        left, right = items_of(pair)
        if values_equal(left, right):
            assert grouping_key(left) == grouping_key(right)


# -- Shuffle hashing ------------------------------------------------------------------

class TestHashProperties:
    @given(st.one_of(
        json_scalars,
        st.tuples(json_scalars, json_scalars),
    ))
    def test_stable_and_bounded(self, key):
        assert stable_hash(key) == stable_hash(key)
        assert 0 <= stable_hash(key) < 2 ** 31

    @given(st.lists(st.tuples(st.text(max_size=6), st.integers()),
                    max_size=30))
    def test_partitioner_total(self, pairs):
        partitioner = HashPartitioner(5)
        for key, _ in pairs:
            assert 0 <= partitioner.partition_for(key) < 5


# -- RDD semantics ≡ list semantics ------------------------------------------------------

@st.composite
def data_and_partitions(draw):
    data = draw(st.lists(st.integers(-100, 100), max_size=50))
    partitions = draw(st.integers(1, 8))
    return data, partitions


class TestRddListEquivalence:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data_and_partitions())
    def test_map_filter(self, case):
        data, partitions = case
        sc = SparkContext()
        rdd = sc.parallelize(data, partitions)
        result = rdd.map(lambda x: x * 3).filter(
            lambda x: x % 2 == 0
        ).collect()
        assert result == [x * 3 for x in data if (x * 3) % 2 == 0]

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data_and_partitions())
    def test_sort_by(self, case):
        data, partitions = case
        sc = SparkContext()
        assert sc.parallelize(data, partitions).sort_by(
            lambda x: x
        ).collect() == sorted(data)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data_and_partitions())
    def test_reduce_by_key_is_counter(self, case):
        data, partitions = case
        from collections import Counter

        sc = SparkContext()
        result = dict(
            sc.parallelize(data, partitions)
            .map(lambda x: (x % 7, 1))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        assert result == dict(Counter(x % 7 for x in data))

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data_and_partitions())
    def test_distinct_and_count(self, case):
        data, partitions = case
        sc = SparkContext()
        rdd = sc.parallelize(data, partitions)
        assert sorted(rdd.distinct().collect()) == sorted(set(data))
        assert rdd.count() == len(data)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data_and_partitions())
    def test_zip_with_index(self, case):
        data, partitions = case
        sc = SparkContext()
        assert sc.parallelize(data, partitions).zip_with_index().collect() \
            == list(zip(data, range(len(data))))


# -- FLWOR invariants --------------------------------------------------------------------

class TestFlworProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[
                  HealthCheck.too_slow,
                  HealthCheck.function_scoped_fixture,
              ])
    @given(data=st.lists(st.integers(-50, 50), min_size=0, max_size=40),
           modulus=st.integers(2, 5))
    def test_group_by_equals_naive_grouping(self, rumble, data, modulus):
        from collections import Counter

        query = (
            "for $x in parallelize(({data})) "
            "group by $k := $x mod {m} "
            "order by $k return [$k, count($x)]"
        ).format(
            data=", ".join(str(x) for x in data) or ")(",
            m=modulus,
        )
        if not data:
            return
        out = rumble.query(query).to_python()
        # JSONiq mod keeps the dividend's sign, unlike Python's %.
        def jsoniq_mod(x):
            return x - modulus * int(x / modulus)

        expected = Counter(jsoniq_mod(x) for x in data)
        assert {k: n for k, n in out} == dict(expected)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[
                  HealthCheck.too_slow,
                  HealthCheck.function_scoped_fixture,
              ])
    @given(data=st.lists(st.integers(-1000, 1000), min_size=1,
                         max_size=40))
    def test_order_by_sorts(self, rumble, data):
        query = (
            "for $x in parallelize(({})) order by $x return $x"
        ).format(", ".join(str(x) for x in data))
        assert rumble.query(query).to_python() == sorted(data)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[
                  HealthCheck.too_slow,
                  HealthCheck.function_scoped_fixture,
              ])
    @given(data=st.lists(st.integers(0, 100), min_size=1, max_size=30))
    def test_local_equals_distributed(self, rumble, data):
        template = (
            "for $x in {src} where $x gt 10 "
            "group by $k := $x mod 3 order by $k "
            "return [$k, count($x), sum($x)]"
        )
        literal = ", ".join(str(x) for x in data)
        local = rumble.query(
            template.format(src="({})".format(literal))
        ).to_python()
        distributed = rumble.query(
            template.format(src="parallelize(({}))".format(literal))
        ).to_python()
        assert local == distributed


# -- Temporal invariants --------------------------------------------------------------

class TestTemporalProperties:
    @given(
        st.dates(min_value=__import__("datetime").date(1900, 1, 2),
                 max_value=__import__("datetime").date(2199, 12, 30)),
        st.integers(min_value=-10000, max_value=10000),
    )
    def test_date_plus_minus_day_duration_round_trips(self, date, seconds):
        import datetime as dt

        from repro.items import DateItem, DayTimeDurationItem
        from repro.jsoniq.runtime.arithmetic import (
            compute_temporal_arithmetic,
        )

        # Whole days round-trip exactly through date arithmetic.
        days = seconds % 365
        duration = DayTimeDurationItem(days * 86400)
        shifted = compute_temporal_arithmetic(
            "+", DateItem(date), duration
        )
        back = compute_temporal_arithmetic("-", shifted, duration)
        assert back.value == date

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_day_time_duration_addition_is_commutative(self, a, b):
        from repro.items import DayTimeDurationItem
        from repro.jsoniq.runtime.arithmetic import (
            compute_temporal_arithmetic,
        )

        left = compute_temporal_arithmetic(
            "+", DayTimeDurationItem(a), DayTimeDurationItem(b)
        )
        right = compute_temporal_arithmetic(
            "+", DayTimeDurationItem(b), DayTimeDurationItem(a)
        )
        assert left == right

    @given(st.integers(-1000, 1000))
    def test_duration_serialization_round_trips(self, months):
        from repro.items import YearMonthDurationItem, duration_from_string

        item = YearMonthDurationItem(months)
        assert duration_from_string(item.string_value()) == item

    @given(st.integers(-10**7, 10**7))
    def test_day_time_serialization_round_trips(self, seconds):
        from repro.items import DayTimeDurationItem, duration_from_string

        item = DayTimeDurationItem(seconds)
        assert duration_from_string(item.string_value()) == item

    @given(st.datetimes(
        min_value=__import__("datetime").datetime(1900, 1, 1),
        max_value=__import__("datetime").datetime(2199, 1, 1),
    ))
    def test_datetime_compare_matches_python(self, stamp):
        import datetime as dt

        from repro.items import DateTimeItem

        other = stamp + dt.timedelta(seconds=1)
        assert value_compare(
            DateTimeItem(stamp), DateTimeItem(other)
        ) == -1


# -- Validation invariants ---------------------------------------------------------------

class TestValidationProperties:
    @given(json_values)
    def test_item_schema_accepts_everything(self, value):
        from repro.jsoniq.validation import compile_schema
        from repro.items import StringItem

        validator = compile_schema(StringItem("item"))
        assert validator.check(item_from_python(value), "$") is None

    @given(st.dictionaries(
        st.text(min_size=1, max_size=6).filter(
            lambda s: not s.endswith("?")
        ),
        st.integers(-100, 100),
        max_size=5,
    ))
    def test_inferred_integer_schema_validates(self, record):
        from repro.items import item_from_python
        from repro.jsoniq.validation import compile_schema

        schema = compile_schema(item_from_python(
            {key: "integer" for key in record}
        ))
        assert schema.check(item_from_python(record), "$") is None

    @given(st.lists(st.text(max_size=5), max_size=6))
    def test_annotate_is_idempotent(self, values):
        from repro.items import item_from_python
        from repro.jsoniq.validation import compile_schema

        schema = compile_schema(item_from_python(["string"]))
        item = item_from_python(values)
        once = schema.annotate(item, "$")
        twice = schema.annotate(once, "$")
        assert once == twice


# -- Profiler invariants -----------------------------------------------------------------

@st.composite
def profiled_queries(draw):
    """A small JSONiq query whose shape (arithmetic, FLWOR local or
    distributed) varies, with its expected result."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        a = draw(st.integers(-50, 50))
        b = draw(st.integers(-50, 50))
        return "{} + {}".format(a, b), [a + b]
    if kind == 1:
        n = draw(st.integers(1, 12))
        return (
            "for $x in 1 to {} return $x".format(n),
            list(range(1, n + 1)),
        )
    n = draw(st.integers(1, 12))
    return (
        "for $x in parallelize(1 to {}) return $x".format(n),
        list(range(1, n + 1)),
    )


class TestProfileProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(profiled_queries())
    def test_phase_durations_sum_within_total(self, case):
        from repro.core import Rumble, RumbleConfig

        query, expected = case
        engine = Rumble(config=RumbleConfig(materialization_cap=100_000))
        report = engine.profile(query)
        assert [item.to_python() for item in report.items] == expected
        assert sum(report.phases.values()) <= report.total_seconds
        assert all(seconds >= 0 for seconds in report.phases.values())

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(profiled_queries())
    def test_every_opened_span_is_closed(self, case):
        from repro.core import Rumble, RumbleConfig

        query, _ = case
        engine = Rumble(config=RumbleConfig(materialization_cap=100_000))
        report = engine.profile(query)
        for span in report.root_span.walk():
            assert span.finished, span.name
            assert span.start <= span.end
            for child in span.children:
                assert span.start <= child.start
                assert child.end <= span.end
