"""The columnar substrate: shred decoded JSON records into typed batches.

The paper's premise is *mostly-regular* messy JSON: most records in a
block share one shape, a few do not.  This module exploits that
regularity the way *Scalable Querying of Nested Data* shreds nested
collections — per-key typed column vectors with validity codes
(present / null / missing), nested lists as offset arrays over one flat
member vector, and a **per-row escape hatch**: a record that does not
fit the block's inferred schema (non-object, unknown or re-ordered
keys, conflicting value types) is kept whole and boxed back into
ordinary :class:`~repro.items.Item` objects on demand, without
poisoning the sibling columns of the regular rows.

Batch consumers (see :mod:`repro.jsoniq.runtime.flwor.columnar`) run
tight per-column loops — three-valued predicate masks for pushdown and
vectorized single-numeric kernels reusing the static-type contracts —
and *unshredding* rebuilds, per surviving row, the exact record dict the
row-at-a-time scan would have handed to ``LazyObjectItem``, so boxing at
the boundary is result-identical by construction (a scan that has just
decoded the block boxes those decoded records instead).

A process-wide :class:`ColumnBatchCache` keeps shredded blocks keyed by
the file block's byte range and stat fingerprint (failfast reads only:
the tolerant parse modes report malformed lines to the fault ledger on
every scan, which a cache hit would silence).  Its lock is named in the
sanitizer hierarchy (``items.columnar.batch_cache``).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import accumulate, chain
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.items.compare import ABSENT, FLIPPED, VALUE_OPS, raw_verdict
from repro.jsoniq.jsonlines import box_record
from repro.sanitizer import san_lock, shared_state

#: Per-row, per-column validity codes.
PRESENT = 0
NULL = 1
MISSING = 2

#: Per-row predicate verdicts over a batch (see :meth:`apply_predicates`):
#: ``PRUNED`` rows are definitively rejected, ``VERIFIED`` rows proved
#: every pushed predicate true (the retained where clause may skip
#: re-evaluation), ``RETAINED`` rows need the reference re-check.
PRUNED = 0
RETAINED = 1
VERIFIED = 2

#: Column kinds.  ``number`` unifies integer and double columns;
#: ``mixed`` is the per-column escape (raw values, boxed on demand).
KIND_STRING = "string"
KIND_INTEGER = "integer"
KIND_DOUBLE = "double"
KIND_NUMBER = "number"
KIND_BOOLEAN = "boolean"
KIND_LIST = "list"
KIND_MIXED = "mixed"

#: How many leading records of a block the schema inference samples.
SCHEMA_SAMPLE = 64

def _kind_of_value(value) -> Optional[str]:
    """The column kind one decoded JSON value votes for (None = null,
    which is compatible with every kind)."""
    t = type(value)
    if t is str:
        return KIND_STRING
    if t is bool:
        return KIND_BOOLEAN
    if t is int:
        return KIND_INTEGER
    if t is float:
        return KIND_DOUBLE
    if t is list:
        return KIND_LIST
    if value is None:
        return None
    return KIND_MIXED  # dicts and anything exotic


def _union_kinds(seen: Optional[str], kind: Optional[str]) -> Optional[str]:
    if kind is None:
        return seen
    if seen is None or seen == kind:
        return kind
    if {seen, kind} <= {KIND_INTEGER, KIND_DOUBLE, KIND_NUMBER}:
        return KIND_NUMBER
    return KIND_MIXED


#: The value types a column of each kind holds; None (JSON null) fits
#: every kind, and a ``mixed`` column holds anything.
_NONE = type(None)
_FITS = {
    KIND_STRING: frozenset((str, _NONE)),
    KIND_BOOLEAN: frozenset((bool, _NONE)),
    KIND_INTEGER: frozenset((int, _NONE)),
    KIND_DOUBLE: frozenset((float, _NONE)),
    KIND_NUMBER: frozenset((int, float, _NONE)),
    KIND_LIST: frozenset((list, _NONE)),
}


#: The one Python type a column of each single-type kind holds (beside
#: None): the typed mask kernel's admission rule.
_KIND_TYPE = {
    KIND_STRING: str, KIND_BOOLEAN: bool, KIND_INTEGER: int,
    KIND_DOUBLE: float,
}


def _value_fits(kind: str, value) -> bool:
    """Whether ``value`` can live in a column of ``kind`` without
    widening it (nulls fit everywhere)."""
    return kind == KIND_MIXED or type(value) in _FITS[kind]


class BlockSchema:
    """The per-block shredding schema: an ordered key list plus a column
    kind per key, inferred from a sample and unioned across it."""

    __slots__ = ("keys", "kinds", "index")

    def __init__(self, keys: Sequence[str], kinds: Dict[str, str]):
        self.keys = tuple(keys)
        self.kinds = kinds
        self.index = {key: position for position, key in enumerate(keys)}

    def describe(self) -> str:
        return ", ".join(
            "{}:{}".format(key, self.kinds[key]) for key in self.keys
        )


def infer_schema(records: Sequence[object],
                 sample: int = SCHEMA_SAMPLE) -> Optional[BlockSchema]:
    """Infer a :class:`BlockSchema` from the first ``sample`` records.

    Returns None when the sample holds no objects at all (a fully
    heterogeneous block: every row escapes).
    """
    keys: List[str] = []
    kinds: Dict[str, Optional[str]] = {}
    saw_object = False
    for record in records[:sample]:
        if type(record) is not dict:
            continue
        saw_object = True
        for key, value in record.items():
            if key not in kinds:
                keys.append(key)
                kinds[key] = _kind_of_value(value)
            else:
                kinds[key] = _union_kinds(kinds[key], _kind_of_value(value))
    if not saw_object:
        return None
    return BlockSchema(
        keys, {key: kind or KIND_MIXED for key, kind in kinds.items()}
    )


class Column:
    """One typed column: a raw value vector plus a validity vector."""

    __slots__ = ("kind", "values", "validity")

    def __init__(self, kind: str):
        self.kind = kind
        self.values: List[object] = []
        self.validity: List[int] = []

    def read(self, row: int):
        """The raw value at ``row``: :data:`ABSENT`, None (JSON null) or
        the stored scalar."""
        flag = self.validity[row]
        if flag == PRESENT:
            return self.values[row]
        return None if flag == NULL else ABSENT

    def value_at(self, row: int):
        return self.values[row]


class ListColumn(Column):
    """Nested lists as an offset array over one flat member vector
    (``values`` holds None: the offsets rule)."""

    __slots__ = ("offsets", "flat")

    def __init__(self):
        super().__init__(KIND_LIST)
        self.offsets: List[int] = [0]
        self.flat: List[object] = []

    def read(self, row: int):
        flag = self.validity[row]
        if flag == PRESENT:
            return self.value_at(row)
        return None if flag == NULL else ABSENT

    def value_at(self, row: int):
        return self.flat[self.offsets[row]:self.offsets[row + 1]]


class ColumnBatch:
    """A shredded block: columns per schema key plus the escape hatch.

    Immutable after :func:`shred_records` builds it — cached batches are
    shared across queries and threads, so per-query state (predicate
    statuses) lives in :class:`MaskedBatch`, never here.
    """

    __slots__ = ("schema", "columns", "row_count", "escaped", "corrupt_rows")

    def __init__(self, schema: Optional[BlockSchema],
                 columns: Dict[str, Column], row_count: int,
                 escaped: Dict[int, object]):
        self.schema = schema
        self.columns = columns
        self.row_count = row_count
        #: row index -> raw decoded record for rows the shredder gave up
        #: on (non-objects, unknown/re-ordered keys, type conflicts).
        self.escaped = escaped
        #: rows holding a permissive-mode corrupt-record placeholder; a
        #: pushed scan prunes these unconditionally, matching the row
        #: path (set by ``shred_json_lines``).
        self.corrupt_rows: frozenset = frozenset()

    @property
    def shredded_count(self) -> int:
        return self.row_count - len(self.escaped)

    # -- Unshredding (the boxing boundary) --------------------------------------
    def rebuild_record(self, row: int):
        """The exact decoded record of a shredded row, in its original
        key order (shredding only admits rows whose key sequence is an
        in-order subsequence of the schema's)."""
        escaped = self.escaped.get(row, ABSENT)
        if escaped is not ABSENT:
            return escaped
        record = {}
        columns = self.columns
        for key in self.schema.keys:
            column = columns[key]
            flag = column.validity[row]
            if flag == MISSING:
                continue
            record[key] = None if flag == NULL else column.value_at(row)
        return record

    def unshred_row(self, row: int, verified: bool = False):
        """Box one row back into an Item — byte-identical to what the
        row-at-a-time scan builds for the same record."""
        return box_record(self.rebuild_record(row), verified)

    def iter_items(self) -> Iterator[object]:
        """Every row boxed, in row order (the plain boundary, no mask)."""
        for row in range(self.row_count):
            yield self.unshred_row(row)

    # -- Predicate masks ---------------------------------------------------------
    def apply_predicates(self, predicates: Sequence[object]) -> List[int]:
        """Evaluate pushed predicates over the batch, one vectorized mask
        per predicate, and combine them into per-row statuses.

        ``predicates`` are :class:`PushedPredicate`-shaped objects (a
        ``spec`` triple for the column kernels plus the ``raw`` closure
        used for escaped rows and as the spec-less fallback), in
        where-clause order.  Verdicts combine by the ordered rule of
        ``iter_json_lines_pushed``: a row's first verdict other than
        True decides it — False prunes, Unknown retains it for the
        reference re-check — and a row True under every predicate is
        verified.
        """
        count = self.row_count
        if not predicates:
            # No pushed predicates: nothing proves a row, nothing prunes
            # it — the row path would box everything unverified.
            return [RETAINED] * count
        statuses = [VERIFIED] * count
        for predicate in predicates:
            if VERIFIED not in statuses:
                break  # every row is decided: later masks change nothing
            statuses = [
                (VERIFIED if verdict is True
                 else PRUNED if verdict is False else RETAINED)
                if status == VERIFIED else status
                for status, verdict in zip(statuses, self._mask(predicate))
            ]
        # A permissive-mode corrupt record is pruned unconditionally by
        # the pushed row path (it holds only the corrupt field), even if
        # a predicate were to target that field — replicate exactly.
        for row in self.corrupt_rows:
            statuses[row] = PRUNED
        return statuses

    def _mask(self, predicate) -> List[Optional[bool]]:
        spec = getattr(predicate, "spec", ())
        raw = predicate.raw
        if spec:
            left, right, value_op = spec
            mask = self._vector_mask(left, right, value_op)
        else:  # spec-less predicate: per-row raw() over rebuilt records
            mask = [
                raw(record) if type(record) is dict else False
                for record in (
                    self.rebuild_record(row) for row in range(self.row_count)
                )
            ]
            return mask
        for row, record in self.escaped.items():
            mask[row] = raw(record) if type(record) is dict else False
        return mask

    def _vector_mask(self, left, right, value_op: str
                     ) -> List[Optional[bool]]:
        py_op = VALUE_OPS[value_op]
        eq_family = value_op in ("eq", "ne")
        # Key-vs-literal over a homogeneous typed column: the tight loop
        # (a literal on the left is the flipped comparison).
        fast = None
        if left[0] == "key" and right[0] == "lit":
            fast = self._typed_compare(left[1], right[1], py_op, eq_family)
        elif left[0] == "lit" and right[0] == "key":
            fast = self._typed_compare(
                right[1], left[1], VALUE_OPS[FLIPPED[value_op]], eq_family)
        if fast is not None:
            return fast
        # Generic path (key-vs-key, mixed columns): per-row raw verdicts
        # over raw column reads — still no boxing.
        read_left = self._operand_reader(left)
        read_right = self._operand_reader(right)
        return [
            raw_verdict(read_left(row), read_right(row), py_op, eq_family)
            for row in range(self.row_count)
        ]

    def _typed_compare(self, key: str, literal, py_op, eq_family: bool
                       ) -> Optional[List[Optional[bool]]]:
        """The vectorized kernel for one typed column compared with
        ``py_op`` against a literal of the column's own Python type —
        where :func:`raw_verdict` applies the bare operator — or None
        when the shapes don't line up (the generic path decides)."""
        column = self.columns.get(key)
        if column is None:
            # Key outside the schema: every shredded row misses it.
            return [False] * self.row_count
        kind = column.kind
        if kind == KIND_DOUBLE and type(literal) is int:
            try:
                literal = float(literal)  # the verdict's int/double rule
            except OverflowError:
                return None
        if type(literal) is not _KIND_TYPE.get(kind) or (
            kind == KIND_BOOLEAN and not eq_family
        ):
            return None
        return [
            (py_op(value, literal) if flag == PRESENT
             else None if flag == NULL else False)
            for value, flag in zip(column.values, column.validity)
        ]

    def _operand_reader(self, spec) -> Callable[[int], object]:
        if spec[0] == "lit":
            literal = spec[1]
            return lambda row: literal
        column = self.columns.get(spec[1])
        if column is None:
            return lambda row: ABSENT
        return column.read


class MaskedBatch:
    """A batch plus this query's per-row predicate statuses.

    The batch itself may be shared through the cache; the statuses are
    private to one scan.  ``records``, when the scan just decoded the
    block, holds the decoded records in row order: boxing then wraps
    them instead of rebuilding each row from the columns.
    """

    __slots__ = ("batch", "statuses", "records")

    def __init__(self, batch: ColumnBatch, statuses: List[int],
                 records: Optional[List[object]] = None):
        self.batch = batch
        self.statuses = statuses
        self.records = records

    @property
    def row_count(self) -> int:
        return self.batch.row_count

    def selected_count(self) -> int:
        return len(self.statuses) - self.statuses.count(PRUNED)

    def iter_boxed(self):
        """Box every surviving row in row order — the automatic boundary
        to operators that still pull one Item at a time."""
        records = self.records
        record_at = (self.batch.rebuild_record if records is None
                     else records.__getitem__)
        for row, status in enumerate(self.statuses):
            if status == PRUNED:
                continue
            yield box_record(record_at(row), status == VERIFIED)


def shred_records(records: Sequence[object],
                  sample: int = SCHEMA_SAMPLE) -> ColumnBatch:
    """Shred decoded records into a :class:`ColumnBatch`.

    A row shreds only when it is an object whose key sequence is an
    in-order subsequence of the schema keys (so unshredding reproduces
    the original key order exactly) and whose values fit their columns'
    kinds; every other row takes the escape hatch.

    Columns are built one key at a time over the rows whose key tuple is
    exactly the schema's, with one type check per column; only the
    other rows, and rows holding a value of a misfit type, are looked at
    one by one.
    """
    schema = infer_schema(records, sample)
    count = len(records)
    if schema is None:
        return ColumnBatch(None, {}, count, dict(enumerate(records)))
    keys = schema.keys
    kinds = schema.kinds
    odd = [row for row, record in enumerate(records)
           if type(record) is not dict or tuple(record) != keys]
    rows = records
    escape = set()
    sparse = []  # odd rows that still shred: keys missing, none re-ordered
    if odd:
        # Odd rows read as all-null here and are patched below.
        rows = list(records)
        blank = dict.fromkeys(keys)
        for row in odd:
            rows[row] = blank
            if _row_fits(records[row], schema):
                sparse.append(row)
            else:
                escape.add(row)
    vectors = [[record[key] for record in rows] for key in keys]
    validities = []
    for key, values in zip(keys, vectors):
        types = set(map(type, values))
        fits = _FITS.get(kinds[key])
        if fits is not None and not types <= fits:
            escape.update(row for row, value in enumerate(values)
                          if type(value) not in fits)
        validities.append(
            [NULL if value is None else PRESENT for value in values]
            if _NONE in types else [PRESENT] * count
        )
    # Patched only now: a misfit in any column escapes its whole row.
    columns: Dict[str, Column] = {}
    for key, values, validity in zip(keys, vectors, validities):
        for row in sparse:
            value = records[row].get(key, ABSENT)
            if value is ABSENT:
                validity[row] = MISSING
            elif value is not None:
                values[row] = value
                validity[row] = PRESENT
        for row in escape:
            values[row] = None
            validity[row] = MISSING
        if kinds[key] == KIND_LIST:
            column = ListColumn()
            column.flat = list(chain.from_iterable(filter(None, values)))
            column.offsets = list(accumulate(
                [0 if value is None else len(value) for value in values],
                initial=0,
            ))
            values = [None] * count
        else:
            column = Column(kinds[key])
        column.values = values
        column.validity = validity
        columns[key] = column
    escaped = {row: records[row] for row in sorted(escape)}
    return ColumnBatch(schema, columns, count, escaped)


def _row_fits(record, schema: BlockSchema) -> bool:
    """Whether one record shreds: an object whose keys are an in-order
    subsequence of the schema's, each value fitting its column."""
    if type(record) is not dict:
        return False
    index = schema.index
    kinds = schema.kinds
    previous = -1
    for key, value in record.items():
        position = index.get(key)
        if position is None or position <= previous or not _value_fits(
            kinds[key], value
        ):
            return False
        previous = position
    return True


# ---------------------------------------------------------------------------
# The process-wide shredded-block cache
# ---------------------------------------------------------------------------

@shared_state
class ColumnBatchCache:
    """LRU cache of shredded blocks, keyed by block fingerprint.

    Process-wide like :class:`repro.spark.storage.FileSystemRegistry`:
    concurrent scans (serving threads, the thread executor mode) hit it
    from many threads, so every access runs under the hierarchy lock
    ``items.columnar.batch_cache``.  Entries are immutable batches; the
    fingerprint (path, byte range, size, mtime_ns) invalidates on any
    rewrite.
    """

    def __init__(self, capacity: int = 64):
        self._capacity = capacity
        self._entries: "OrderedDict[Tuple, ColumnBatch]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._lock = san_lock("items.columnar.batch_cache")

    def get(self, key: Tuple) -> Optional[ColumnBatch]:
        with self._lock:
            batch = self._entries.get(key)
            if batch is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return batch

    def put(self, key: Tuple, batch: ColumnBatch) -> None:
        with self._lock:
            self._entries[key] = batch
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide instance the columnar scan consults.
BATCH_CACHE = ColumnBatchCache()
