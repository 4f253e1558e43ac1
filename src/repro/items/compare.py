"""JSONiq comparison semantics and the paper's sort-key encodings.

Two distinct notions coexist:

* **Value comparison** (``eq``, ``lt``, ...) between two atomic items.
  Numbers compare across numeric types; ``null`` is smaller than every other
  atomic; the empty sequence is smaller still (handled by the callers).
  Comparing incompatible types (a string with a number) raises ``XPTY0004``.

* **Grouping/ordering keys** — the three-column encoding of Section 4.7:
  an integer type code, a string column and a double column, designed so
  that Spark SQL grouping/sorting on those native columns reproduces the
  JSONiq semantics without ever seeing an ``Item``.

This module is the one definition of the comparison rule.  The operator
tables, the raw three-valued verdict the pushed scan and the columnar
masks evaluate on decoded JSON values, and the raw grouping key all
live here, next to the item-level reference they must agree with.  (The
storage layer's sidecar stats keep their own literal-family test: the
substrate cannot import this package without an import cycle.)
"""

from __future__ import annotations

import operator
from typing import Optional, Tuple

from repro.items.atomics import promote_pair
from repro.items.base import Item, make_type_error

#: Type codes of the paper's Section 4.7.  ``EMPTY_LEAST`` is the default
#: (empty sequence smaller than everything); ``EMPTY_GREATEST`` replaces it
#: when an order-by clause says ``empty greatest``.
EMPTY_LEAST = 1
CODE_NULL = 2
CODE_TRUE = 3
CODE_FALSE = 4
CODE_STRING = 5
CODE_NUMBER = 6
EMPTY_GREATEST = 7

#: Value comparison -> the Python operator it applies to two comparable
#: operands (after numeric promotion).
VALUE_OPS = {
    "eq": operator.eq, "ne": operator.ne,
    "lt": operator.lt, "le": operator.le,
    "gt": operator.gt, "ge": operator.ge,
}
#: General comparison spelling -> the value comparison it quantifies.
GENERAL_TO_VALUE = {
    "=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}
#: The value comparison that holds with the two operands swapped.
FLIPPED = {"eq": "eq", "ne": "ne", "lt": "gt", "le": "ge",
           "gt": "lt", "ge": "le"}

#: A raw operand that is absent (an object key that is not there): the
#: empty sequence, distinct from a JSON null.  Compared by identity.
ABSENT = object()


def value_compare(left: Item, right: Item) -> int:
    """Three-way comparison of two atomic items (-1, 0 or 1).

    Raises a type error when the items are not comparable, mirroring the
    JSONiq requirement quoted in Section 4.8 of the paper.
    """
    if not left.is_atomic or not right.is_atomic:
        raise make_type_error(
            "XPTY0004",
            "cannot compare {} with {}".format(left.type_name, right.type_name),
        )
    if left.is_null or right.is_null:
        if left.is_null and right.is_null:
            return 0
        return -1 if left.is_null else 1
    if left.is_numeric and right.is_numeric:
        lhs, rhs, _ = promote_pair(left, right)
        return (lhs > rhs) - (lhs < rhs)
    if left.is_string and right.is_string:
        return (left.value > right.value) - (left.value < right.value)
    if left.is_boolean and right.is_boolean:
        return (left.value > right.value) - (left.value < right.value)
    if left.is_date and right.is_date:
        return (left.value > right.value) - (left.value < right.value)
    if left.is_datetime and right.is_datetime:
        return (left.value > right.value) - (left.value < right.value)
    if left.is_time and right.is_time:
        return (left.value > right.value) - (left.value < right.value)
    if left.is_day_time_duration and right.is_day_time_duration:
        return (left.seconds > right.seconds) - (left.seconds < right.seconds)
    if left.is_year_month_duration and right.is_year_month_duration:
        return (left.months > right.months) - (left.months < right.months)
    # date vs string comparisons happen on datasets where dates are kept
    # as strings; JSONiq proper would reject this, and so do we.
    raise make_type_error(
        "XPTY0004",
        "cannot compare {} with {}".format(left.type_name, right.type_name),
    )


def raw_verdict(mine, theirs, py_op, eq_family: bool) -> Optional[bool]:
    """The three-valued verdict of one value comparison over raw decoded
    JSON values (``ABSENT`` for the empty sequence).

    True or False only when the reference evaluator is certain to give
    that answer without raising; None (Unknown) leaves the decision to
    it.  ``py_op`` is a :data:`VALUE_OPS` entry; ``eq_family`` says it
    is ``eq``/``ne``, the only operators booleans are proven under.
    Same-type strings and numbers apply the operator directly (NaN
    compares unequal and unordered, as in XQuery F&O); an int against a
    float compares both as doubles, like the reference's promotion.
    This runs once per scanned row: keep it one flat function.
    """
    if mine is ABSENT or theirs is ABSENT:
        # The empty sequence makes the comparison false, unless the
        # other operand is an array or object the reference may reject.
        other = theirs if mine is ABSENT else mine
        return None if type(other) is list or type(other) is dict else False
    kind = type(mine)
    if kind is type(theirs):
        if kind is str or kind is int or kind is float:
            return py_op(mine, theirs)
        if kind is bool and eq_family:
            return py_op(mine, theirs)
        return None  # null, arrays, objects: the reference decides
    if (kind is int or kind is float) and (
        type(theirs) is int or type(theirs) is float
    ):
        try:
            return py_op(float(mine), float(theirs))
        except OverflowError:  # an int no double can hold
            return None
    return None


def values_equal(left: Item, right: Item) -> bool:
    """Equality with cross-numeric-type promotion, no error on mismatch.

    Used by ``distinct-values`` and ``group by``, which treat items of
    incomparable types as simply *different* rather than erroneous.
    """
    if left.is_numeric and right.is_numeric:
        lhs, rhs, _ = promote_pair(left, right)
        return lhs == rhs
    return left == right


def encode_sort_key(
    item: Optional[Item], empty_greatest: bool = False
) -> Tuple[int, str, float]:
    """Encode one atomic item (or ``None`` for the empty sequence) into the
    paper's three native columns ``(type_code, string_col, double_col)``.

    Sorting or grouping rows lexicographically by these columns reproduces
    the JSONiq ordering: empty < null < false < true is achieved by the
    type codes alone, strings sort within code 5, numbers within code 6.
    """
    if item is None:
        return (EMPTY_GREATEST if empty_greatest else EMPTY_LEAST, "", 0.0)
    if item.is_null:
        return (CODE_NULL, "", 0.0)
    if item.is_boolean:
        # false < true: give false the smaller code.  The paper lists true=3,
        # false=4; we keep the codes but order via the double column so that
        # the documented code assignment is preserved verbatim.
        code = CODE_TRUE if item.value else CODE_FALSE
        return (code, "", 1.0 if item.value else 0.0)
    if item.is_string:
        return (CODE_STRING, item.value, 0.0)
    if item.is_numeric:
        return (CODE_NUMBER, "", float(item.value))
    if item.is_date:
        return (CODE_NUMBER, "", float(item.value.toordinal()))
    if item.is_datetime or item.is_time or item.is_duration:
        return (CODE_NUMBER, "", float(item.sort_key()))
    raise make_type_error(
        "XPTY0004", "cannot use {} as an ordering key".format(item.type_name)
    )


#: Orders booleans correctly despite the paper's true=3 < false=4 codes:
#: grouping only needs distinctness, ordering uses this corrected code.
_ORDER_CODE = {CODE_TRUE: 3.5, CODE_FALSE: 3.0}


def ordering_tuple(
    item: Optional[Item], empty_greatest: bool = False
) -> Tuple[float, str, float]:
    """A tuple that sorts exactly as JSONiq order-by requires."""
    code, text, number = encode_sort_key(item, empty_greatest)
    return (_ORDER_CODE.get(code, float(code)), text, number)


def grouping_key(item: Optional[Item]) -> Tuple[int, str, float]:
    """The hashable grouping key for one atomic grouping value.

    Unlike ordering, grouping never raises on heterogeneous keys: items of
    different types land in different groups (paper, Section 4.7).
    """
    if item is None:
        return (EMPTY_LEAST, "", 0.0)
    if item.is_null:
        return (CODE_NULL, "", 0.0)
    if item.is_boolean:
        return (CODE_TRUE if item.value else CODE_FALSE, "", 0.0)
    if item.is_string:
        return (CODE_STRING, item.value, 0.0)
    if item.is_numeric:
        return (CODE_NUMBER, "", float(item.value))
    if item.is_date:
        return (CODE_NUMBER, "", float(item.value.toordinal()))
    if item.is_datetime or item.is_time or item.is_duration:
        return (CODE_NUMBER, "", float(item.sort_key()))
    raise make_type_error(
        "XPTY0004", "cannot group by {}".format(item.type_name)
    )


def raw_grouping_key(value, name: str) -> Tuple[int, str, float]:
    """:func:`grouping_key` computed straight from a raw decoded value
    (``ABSENT`` for the empty sequence) bound to grouping variable
    ``$name``, with the group-by clause's atomicity error."""
    if value is ABSENT:
        return (EMPTY_LEAST, "", 0.0)
    if value is None:
        return (CODE_NULL, "", 0.0)
    kind = type(value)
    if kind is bool:
        return (CODE_TRUE if value else CODE_FALSE, "", 0.0)
    if kind is str:
        return (CODE_STRING, value, 0.0)
    if kind is int or kind is float:
        return (CODE_NUMBER, "", float(value))
    raise make_type_error(
        "XPTY0004",
        "grouping variable ${} is not atomic ({})".format(
            name, "array" if kind is list else "object"
        ),
    )


def check_sortable(first_seen: Optional[str], item: Item) -> str:
    """Type-compatibility check for order-by (paper, Section 4.8).

    Returns the sort family of ``item`` and raises when it conflicts with
    the family already observed in the first pass over the tuple stream.
    """
    if not item.is_atomic:
        raise make_type_error(
            "XPTY0004",
            "order-by keys must be atomic, got " + item.type_name,
        )
    if item.is_null:
        return first_seen or "null"
    if item.is_numeric:
        family = "number"
    elif item.is_string:
        family = "string"
    elif item.is_boolean:
        family = "boolean"
    elif item.is_date:
        family = "date"
    elif item.is_datetime:
        family = "dateTime"
    elif item.is_time:
        family = "time"
    elif item.is_day_time_duration:
        family = "dayTimeDuration"
    elif item.is_year_month_duration:
        family = "yearMonthDuration"
    else:  # pragma: no cover - all atomics covered above
        raise make_type_error("XPTY0004", "unsortable " + item.type_name)
    if first_seen in (None, "null"):
        return family
    if first_seen != family:
        raise make_type_error(
            "XPTY0004",
            "incompatible order-by key types: {} and {}".format(
                first_seen, family
            ),
        )
    return family
