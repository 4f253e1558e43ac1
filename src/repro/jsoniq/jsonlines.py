"""JSON-Lines decoding straight into items.

The paper's Section 5.7 uses the JSONiter streaming parser to build items
directly, skipping an intermediate generic-JSON representation.  CPython
inverts that trade-off: its C ``json`` scanner plus one wrapping walk is
far faster than any pure-Python streaming parser, so every read path
here decodes through :func:`_decode_lines`, which calls the scanner
directly and falls back to ``json.loads`` only for lines it does not
consume whole.  Items wrap lazily (:class:`LazyObjectItem`), so a query
pays only for the values it touches.  The recursive-descent parser this
module once held is kept as a test oracle (``tests/ingest_oracles.py``).
"""

from __future__ import annotations

import json
from typing import Iterator

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
from repro.items.compare import ABSENT
from repro.jsoniq.errors import DynamicException


class JsonSyntaxError(DynamicException):
    default_code = "SENR0002"


def parse_json_line(text: str) -> Item:
    """Parse one JSON value into an item."""
    try:
        return _wrap_fast(json.loads(text))
    except ValueError as error:
        raise JsonSyntaxError(str(error)) from error


_new_string = StringItem.__new__
_new_integer = IntegerItem.__new__
_new_double = DoubleItem.__new__
_new_array = ArrayItem.__new__


class LazyObjectItem(ObjectItem):
    """An object item whose values wrap on first access.

    The C JSON decoder hands back a plain dict, and most records are
    only ever probed for a handful of keys (a where predicate, a
    grouping key, a sort key) before being counted or discarded —
    wrapping every value eagerly is the single biggest allocation cost
    of a scan.  Single-key probes (``lookup``/``get_item``) wrap just
    the requested value; any structural access through ``pairs``
    materializes the full mapping once and caches it.
    """

    #: ``pushdown_verified`` is set (to True) by the pushed scan only on
    #: records every pushed predicate proved definitively true, letting
    #: the retained where clause skip re-evaluation; it stays *unset*
    #: otherwise, so readers must use ``getattr(..., False)``.
    __slots__ = ("_raw", "pushdown_verified")
    #: The parent's slot descriptor, kept reachable after the property
    #: below shadows its name.
    _pairs_slot = ObjectItem.pairs

    def __init__(self, raw):
        self._raw = raw

    @property
    def pairs(self):
        slot = LazyObjectItem._pairs_slot
        try:
            return slot.__get__(self, LazyObjectItem)
        except AttributeError:
            pairs = {
                key: _wrap_fast(value)
                for key, value in self._raw.items()
            }
            slot.__set__(self, pairs)
            return pairs

    def keys(self):
        return list(self._raw.keys())

    def get_item(self, key):
        value = self._raw.get(key, ABSENT)
        if value is ABSENT:
            return None
        return _wrap_fast(value)

    def lookup(self, key):
        value = self._raw.get(key, ABSENT)
        if value is not ABSENT:
            yield _wrap_fast(value)

    def __reduce__(self):
        # The default slot-based pickling would setattr ``pairs`` on
        # load, which the property above has no setter for; rebuild from
        # the raw dict instead (the wrapped values re-derive lazily).
        # Needed by the memory manager's disk tier, which round-trips
        # spilled partitions through pickle.
        verified = getattr(self, "pushdown_verified", ABSENT)
        if verified is ABSENT:
            return (LazyObjectItem, (self._raw,))
        return (_restore_lazy_object, (self._raw, verified))


def _restore_lazy_object(raw, verified) -> "LazyObjectItem":
    item = LazyObjectItem(raw)
    item.pushdown_verified = verified
    return item


def _wrap_fast(value) -> Item:
    """Wrap a decoded JSON value, minimal dispatch (hot path).

    Items are built through ``__new__`` with direct slot assignment —
    the values coming out of the C JSON decoder are already of the right
    Python types, so the constructors' normalization is skipped.
    Objects wrap lazily (:class:`LazyObjectItem`).
    """
    kind = type(value)
    if kind is str:
        item = _new_string(StringItem)
        item.value = value
        return item
    if kind is bool:
        return TRUE if value else FALSE
    if kind is int:
        item = _new_integer(IntegerItem)
        item.value = value
        return item
    if kind is dict:
        return LazyObjectItem(value)
    if kind is list:
        wrapped = _new_array(ArrayItem)
        wrapped.members = [_wrap_fast(v) for v in value]
        return wrapped
    if kind is float:
        item = _new_double(DoubleItem)
        item.value = value
        return item
    if value is None:
        return NULL
    raise JsonSyntaxError("unsupported JSON value {!r}".format(value))


def box_record(record, verified: bool = False) -> Item:
    """Box one decoded record the way the row-at-a-time scan does:
    objects wrap lazily, flagged ``pushdown_verified`` when every pushed
    predicate proved them true."""
    if type(record) is dict:
        item = LazyObjectItem(record)
        if verified:
            item.pushdown_verified = True
        return item
    return _wrap_fast(record)


#: Spark-style parse modes for messy JSON-Lines input.
PARSE_MODES = ("failfast", "permissive", "dropmalformed")

#: The field a ``permissive`` read stores an unparseable line under,
#: mirroring Spark's ``columnNameOfCorruptRecord``.
CORRUPT_RECORD_FIELD = "_corrupt_record"


#: The C scanner under ``json.loads``.  Called directly it skips the
#: per-call type, BOM and whitespace checks of ``loads``; like ``loads``
#: it keeps no state between calls, so threads may share it.
_scan_once = json.JSONDecoder().scan_once


class _Malformed:
    """What :func:`_decode_lines` yields for a bad line a ``permissive``
    read keeps (the decoder never produces this type)."""

    __slots__ = ("line",)

    def __init__(self, line: str):
        self.line = line


def _decode_lines(lines, mode: str, on_malformed) -> Iterator[object]:
    """Decode each non-blank line with the parse-mode rules shared by
    every read path: yield its value, or for a malformed line raise
    :class:`JsonSyntaxError` (``failfast``), report it to
    ``on_malformed(line, error)`` and yield a :class:`_Malformed`
    (``permissive``) or nothing (``dropmalformed``).

    A line the scanner does not consume whole is decoded again by
    ``json.loads``, so every outcome and error text is exactly that of
    ``json.loads`` on the stripped line.
    """
    if mode not in PARSE_MODES:
        raise ValueError(
            "unknown parse mode {!r} (expected one of {})".format(
                mode, ", ".join(PARSE_MODES)
            )
        )
    scan = _scan_once
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        try:
            value, end = scan(stripped, 0)
        except (StopIteration, ValueError):  # no value: loads says why
            end = -1
        if end != len(stripped):
            try:
                value = json.loads(stripped)
            except ValueError as error:
                wrapped = JsonSyntaxError(str(error))
                if mode == "failfast":
                    raise wrapped from error
                if on_malformed is not None:
                    on_malformed(stripped, wrapped)
                if mode == "permissive":
                    yield _Malformed(stripped)
                continue
        yield value


def _corrupt_item(line: str, corrupt_field: str) -> Item:
    return ObjectItem({corrupt_field: StringItem(line)})


def iter_json_lines(
    lines,
    mode: str = "failfast",
    corrupt_field: str = CORRUPT_RECORD_FIELD,
    on_malformed=None,
) -> Iterator[Item]:
    """Decode an iterable of JSON-Lines text lines into items.

    ``mode`` decides what one malformed line does to the read (the
    paper's premise is *messy* data sets, so this must be a choice, not
    a crash):

    * ``failfast`` — raise :class:`JsonSyntaxError` (the default);
    * ``permissive`` — yield an object holding the raw line under
      ``corrupt_field`` instead, so downstream queries can inspect it;
    * ``dropmalformed`` — skip the line.

    ``on_malformed(line, error)`` is called for every tolerated bad line
    (the hook the fault ledger uses to count dropped/captured records).
    """
    values = _decode_lines(lines, mode, on_malformed)
    if mode != "permissive":
        yield from map(_wrap_fast, values)
        return
    for value in values:
        if type(value) is _Malformed:
            yield _corrupt_item(value.line, corrupt_field)
        else:
            yield _wrap_fast(value)


def iter_json_lines_pushed(
    lines,
    predicates=(),
    mode: str = "failfast",
    corrupt_field: str = CORRUPT_RECORD_FIELD,
    on_malformed=None,
    on_pruned=None,
) -> Iterator[Item]:
    """Decode JSON lines with scan-level predicate pushdown applied.

    ``predicates`` are three-valued callables over the *decoded* dict
    (see :mod:`repro.jsoniq.runtime.flwor.pushdown`): a definite
    ``False`` prunes the record before any item is built; ``True`` and
    ``None`` (unknown) keep it for the retained where clause.  Pruning
    only ever *skips work* the reference path proves redundant —
    outcomes are identical with it off.  (Key projection needs no scan
    support: :class:`LazyObjectItem` already defers value wrapping to
    the keys a query actually touches.)

    Non-object records have no top-level keys, so any pushed predicate
    rejects them definitively (an object lookup on them is the empty
    sequence); with no predicates they pass through unchanged.
    ``on_pruned()`` is called once per record skipped here.
    """
    predicates = tuple(predicates)
    for record in _decode_lines(lines, mode, on_malformed):
        kind = type(record)
        if not predicates:
            if kind is _Malformed:
                yield _corrupt_item(record.line, corrupt_field)
            else:
                yield _wrap_fast(record)
            continue
        # Object lookups on a non-object yield the empty sequence: the
        # where clause is guaranteed to reject it.  A permissive corrupt
        # record holds only the corrupt field, so every pushed predicate
        # reads a missing key: pruned too.
        keep = kind is dict
        verified = True
        if keep:
            for predicate in predicates:
                verdict = predicate(record)
                if verdict is False:
                    keep = False
                    break
                if verdict is not True:
                    verified = False
        if not keep:
            if on_pruned is not None:
                on_pruned()
            continue
        # All-True verdicts let the retained where clauses skip this
        # record: they cannot reject (or error on) it.
        yield box_record(record, verified)


def shred_json_lines(
    lines,
    mode: str = "failfast",
    corrupt_field: str = CORRUPT_RECORD_FIELD,
    on_malformed=None,
    records=None,
):
    """Decode JSON lines and shred them into one ``ColumnBatch``.

    The columnar twin of :func:`iter_json_lines_pushed` up to (but not
    including) predicate evaluation: lines decode through the same
    :func:`_decode_lines` with the same parse-mode semantics — failfast
    raises, permissive replaces a bad line with a corrupt-record
    placeholder (its row index lands in ``batch.corrupt_rows`` so a
    pushed scan can prune it unconditionally, exactly like the row
    path), dropmalformed skips it, and ``on_malformed`` fires for every
    tolerated bad line.  Predicate masks are applied later, per query,
    over the shared batch.

    ``records``, when given, is an empty list that receives the decoded
    records in row order, for a caller that boxes rows from them.
    """
    from repro.items import columnar

    if records is None:
        records = []
    records.extend(_decode_lines(lines, mode, on_malformed))
    corrupt_rows = set()
    if mode == "permissive":
        for row, record in enumerate(records):
            if type(record) is _Malformed:
                corrupt_rows.add(row)
                records[row] = {corrupt_field: record.line}
    batch = columnar.shred_records(records)
    if corrupt_rows:
        batch.corrupt_rows = frozenset(corrupt_rows)
    return batch
