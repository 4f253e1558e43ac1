"""Scan pushdown and top-k planning for FLWOR chains.

The compiler calls :func:`annotate` on every FLWOR it lowers.  When the
chain starts with ``for $v in json-file(...)`` the analysis derives, from
the AST alone:

* **projection pruning** — the set of top-level keys the rest of the
  chain can ever observe ($v.key lookups).  When the bound item itself
  never escapes, the scan wraps only those keys into items and skips the
  rest of each decoded record (*Scalable Querying of Nested Data*'s
  motivation: push projection into the nested-JSON scan);
* **predicate pushdown** — the leading run of ``where`` conditions of
  the shape ``$v.key <cmp> ($v.key | literal)`` (the compiler has
  already split ``where A and B`` into ``where A where B``) become
  three-valued *raw* predicates evaluated on the decoded dict before
  any item is built.  Every tier applies them with one **ordered
  rule**, the left-to-right order the where clauses run in: a definite
  False prunes a record only if every earlier predicate answered True
  on it; an Unknown (nulls, mixed types, non-scalars) keeps the record
  unverified, so the retained ``where`` clauses re-check it with the
  exact reference semantics, type errors included.  The run ends at
  the first where clause that cannot be pushed;
* **partition pruning** — the leading predicate, when it compares a
  key with a literal, doubles as a min/max range fact the storage
  layer checks against per-file stats sidecars
  (:func:`repro.spark.storage.split_input_pruned`);
* **top-k rewrite** — an ``order by ... count $c where $c le k`` tail
  becomes a :class:`TopKClauseIterator` (per-partition heaps plus a
  driver merge) instead of a full sort.

Everything is gated at run time by ``RumbleConfig.pushdown``; with the
flag off, execution takes the untouched reference path — what the
differential and property tests compare against.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.items.compare import (
    ABSENT,
    FLIPPED,
    GENERAL_TO_VALUE,
    VALUE_OPS,
    raw_verdict,
)
from repro.jsoniq import ast


class PushedPredicate:
    """One where-condition compiled to a raw three-valued predicate.

    ``raw(record)`` is evaluated on the decoded JSON dict: ``False``
    means the where clause is guaranteed to reject the record without
    an error, ``True`` that it keeps it without an error, ``None`` that
    only the clause itself can tell.  A False prunes only when every
    earlier predicate of the plan answered True (the ordered rule).
    """

    __slots__ = ("keys", "raw", "description", "spec")

    def __init__(self, keys: Set[str], raw: Callable, description: str,
                 spec: Tuple = ()):
        self.keys = keys
        self.raw = raw
        self.description = description
        #: (left-operand, right-operand, value-op) — used at compile
        #: time to re-identify the where clause this predicate covers.
        self.spec = spec


class PushdownPlan:
    """What the leading scan may skip, shared between the leading for
    clause and the return clause (the ``count()`` consumer flips
    :attr:`count_only` after compilation)."""

    def __init__(self, variable: str):
        self.variable = variable
        self.predicates: List[PushedPredicate] = []
        #: (key, value-op, literal) facts for min/max file-stats pruning:
        #: at most one, the leading predicate's.
        self.range_predicates: List[Tuple[str, str, object]] = []
        #: Keys observed via ``$v.key`` anywhere downstream; ``None``
        #: when the whole item escapes regardless of the return clause.
        self.referenced_keys: Optional[Set[str]] = None
        #: The return expression is the bare variable — an escape unless
        #: the FLWOR's only consumer is ``count()``.
        self.bare_return = False
        #: Set by the compiler when ``count(<this flwor>)`` is the sole
        #: consumer, making the bare return cardinality-only.
        self.count_only = False

    def effective_projection(self) -> Optional[List[str]]:
        """The keys the scan must keep, or None for "keep everything"."""
        if self.referenced_keys is None:
            return None
        if self.bare_return and not self.count_only:
            return None
        keys = set(self.referenced_keys)
        for predicate in self.predicates:
            keys.update(predicate.keys)
        return sorted(keys)

    def describe(self) -> List[str]:
        lines = []
        projection = self.effective_projection()
        if projection is not None:
            lines.append("projection: {{{}}}".format(", ".join(projection)))
        for predicate in self.predicates:
            lines.append("pushed predicate: " + predicate.description)
        return lines


def _operand(node: ast.AstNode, variable: str):
    """Classify a comparison operand: ("key", name) for ``$v.key``,
    ("lit", value) for a safe scalar literal, None otherwise."""
    if (
        isinstance(node, ast.ObjectLookup)
        and isinstance(node.source, ast.VariableReference)
        and node.source.name == variable
        and isinstance(node.key, ast.Literal)
        and isinstance(node.key.value, str)
    ):
        return ("key", node.key.value)
    if isinstance(node, ast.Literal) and node.kind in (
        "string", "integer", "decimal", "double", "boolean"
    ):
        value = node.value
        if isinstance(value, (str, bool, int, float)):
            return ("lit", value)
    return None


def _make_raw(left, right, value_op: str) -> Callable:
    """Build the three-valued raw predicate over decoded dicts: one
    reader per operand feeding :func:`raw_verdict` (an absent key reads
    as ``ABSENT``, the empty sequence).  Runs once per scanned record.
    """
    py_op = VALUE_OPS[value_op]
    eq_family = value_op in ("eq", "ne")
    read_left = _record_reader(left)
    read_right = _record_reader(right)

    def raw(record: dict):
        return raw_verdict(read_left(record), read_right(record), py_op,
                           eq_family)

    return raw


def _record_reader(spec) -> Callable:
    if spec[0] == "key":
        key = spec[1]
        return lambda record: record.get(key, ABSENT)
    value = spec[1]
    return lambda record: value


def _compile_predicate(
    condition: ast.AstNode, variable: str, plan: PushdownPlan
) -> Optional[PushedPredicate]:
    if not isinstance(condition, ast.ComparisonExpression):
        return None
    op = condition.op
    value_op = op if op in VALUE_OPS else GENERAL_TO_VALUE.get(op)
    if value_op is None:
        return None
    left = _operand(condition.left, variable)
    right = _operand(condition.right, variable)
    if left is None or right is None:
        return None
    if left[0] != "key" and right[0] != "key":
        return None  # literal-vs-literal: nothing to push
    keys = {spec[1] for spec in (left, right) if spec[0] == "key"}
    description = "{} {} {}".format(
        _describe_operand(left, variable), op,
        _describe_operand(right, variable),
    )
    # A key-vs-literal predicate doubles as a min/max range fact, but
    # only the leading one: a file that a later predicate rules out may
    # still hold a row where an earlier one raises.
    if not plan.predicates:
        if left[0] == "key" and right[0] == "lit" and not isinstance(
            right[1], bool
        ):
            plan.range_predicates.append((left[1], value_op, right[1]))
        elif right[0] == "key" and left[0] == "lit" and not isinstance(
            left[1], bool
        ):
            plan.range_predicates.append(
                (right[1], FLIPPED[value_op], left[1])
            )
    return PushedPredicate(
        keys, _make_raw(left, right, value_op), description,
        spec=(left, right, value_op),
    )


def _describe_operand(spec, variable: str) -> str:
    if spec[0] == "key":
        return "${}.{}".format(variable, spec[1])
    return repr(spec[1])


def analyse(flwor: ast.FlworExpression) -> Optional[PushdownPlan]:
    """Derive a pushdown plan from a FLWOR's AST, or None when the
    chain's shape rules every pushdown out."""
    clauses = flwor.clauses
    if not clauses or not isinstance(clauses[0], ast.ForClause):
        return None
    first = clauses[0]
    variable = first.variable
    plan = PushdownPlan(variable)
    # Predicate pruning changes the bound sequence, which positional or
    # allowing-empty bindings would observe.
    predicates_allowed = (
        first.position_variable is None and not first.allowing_empty
    )

    refs: Set[str] = set()
    escaped = False

    def scan(node: ast.AstNode) -> None:
        nonlocal escaped
        if escaped:
            return
        if (
            isinstance(node, ast.ObjectLookup)
            and isinstance(node.source, ast.VariableReference)
            and node.source.name == variable
            and isinstance(node.key, ast.Literal)
            and isinstance(node.key.value, str)
        ):
            refs.add(node.key.value)
            return
        if (
            isinstance(node, ast.FunctionCall)
            and node.name == "count"
            and len(node.arguments) == 1
            and isinstance(node.arguments[0], ast.VariableReference)
            and node.arguments[0].name == variable
        ):
            return  # cardinality-only reference
        if isinstance(node, ast.VariableReference) and node.name == variable:
            escaped = True
            return
        for child in node.children():
            scan(child)

    # The pushed predicates are the leading run of pushable where
    # clauses: the first clause that cannot be pushed ends it, since a
    # later predicate pruning a row would hide that clause's error.
    in_where_prefix = predicates_allowed
    for clause in clauses[1:]:
        if isinstance(clause, ast.WhereClause):
            if in_where_prefix:
                predicate = _compile_predicate(
                    clause.condition, variable, plan
                )
                if predicate is None:
                    in_where_prefix = False
                else:
                    plan.predicates.append(predicate)
            scan(clause.condition)
            continue
        in_where_prefix = False
        if isinstance(clause, ast.ReturnClause):
            expression = clause.expression
            if (
                isinstance(expression, ast.VariableReference)
                and expression.name == variable
            ):
                plan.bare_return = True
            else:
                scan(expression)
            break
        if isinstance(clause, ast.WindowClause):
            # Window boundary conditions see neighbouring items through
            # extra bindings; stay conservative.
            escaped = True
            break
        if isinstance(clause, (ast.ForClause, ast.LetClause)):
            scan(clause.expression)
            shadowed = clause.variable == variable or (
                isinstance(clause, ast.ForClause)
                and clause.position_variable == variable
            )
            if shadowed:
                break
        elif isinstance(clause, ast.GroupByClause):
            rebound = False
            for key in clause.keys:
                if key.expression is not None:
                    scan(key.expression)
                elif key.variable == variable:
                    escaped = True  # grouping directly on the item
                if key.variable == variable:
                    rebound = True
            if rebound:
                break
        elif isinstance(clause, ast.OrderByClause):
            for spec in clause.specs:
                scan(spec.expression)
        elif isinstance(clause, ast.CountClause):
            if clause.variable == variable:
                break
        else:
            # A clause kind this analysis does not know: be conservative.
            escaped = True
            break
        if escaped:
            break

    plan.referenced_keys = None if escaped else refs
    if plan.referenced_keys is None and not plan.predicates:
        return None
    return plan


# ---------------------------------------------------------------------------
# Compile-time wiring
# ---------------------------------------------------------------------------

def annotate(flwor: ast.FlworExpression, return_iterator) -> None:
    """Attach the pushdown plan and apply the top-k rewrite to a freshly
    compiled FLWOR chain.  Called by the compiler; both optimizations
    stay dormant until a runtime with ``config.pushdown`` enables them.
    """
    from repro.jsoniq.runtime.flwor.clauses import ForClauseIterator

    head = return_iterator.input_clause
    while head is not None and head.input_clause is not None:
        head = head.input_clause
    if (
        isinstance(head, ForClauseIterator)
        and hasattr(head.expression, "get_rdd_pushed")
    ):
        plan = analyse(flwor)
        if plan is not None:
            head.pushdown_plan = plan
            return_iterator.pushdown_plan = plan
            _tag_covered_wheres(head, return_iterator, plan)
            # Columnar consumers ride the same plan (masked batch scan,
            # count kernel, group-by count kernel); must run before the
            # top-k rewrite while the chain is still the plain clause
            # list.  See flwor/columnar.py.
            from repro.jsoniq.runtime.flwor.columnar import plan_columnar

            plan_columnar(head, return_iterator, plan)
            # Whole-stage codegen rides the same plan one layer higher:
            # when the full chain (scan + covered wheres + return) fits
            # the emitter's shapes, the pipeline compiles into a single
            # generated loop.  See jsoniq/codegen/.
            from repro.jsoniq.codegen import plan_codegen

            plan_codegen(head, return_iterator, plan)
    _rewrite_topk(flwor, return_iterator)


def _iterator_operand(node, variable: str):
    """Classify a compiled comparison operand the same way
    :func:`_operand` classifies its AST counterpart."""
    from repro.jsoniq.runtime.navigation import ObjectLookupIterator
    from repro.jsoniq.runtime.primary import LiteralIterator, VariableIterator

    if (
        isinstance(node, ObjectLookupIterator)
        and isinstance(node.source, VariableIterator)
        and node.source.name == variable
        and node._constant_key is not None
    ):
        return ("key", node._constant_key)
    if isinstance(node, LiteralIterator):
        value = getattr(node.item, "value", None)
        if isinstance(value, (str, bool, int, float)):
            return ("lit", value)
    return None


def _operands_match(found, spec) -> bool:
    if found is None or found != spec:
        return False
    # `True == 1` would let a boolean literal match an integer spec.
    if found[0] == "lit" and isinstance(found[1], bool) != isinstance(
        spec[1], bool
    ):
        return False
    return True


def _tag_covered_wheres(head, return_iterator, plan: PushdownPlan) -> None:
    """Mark the where-clause iterators whose conditions were compiled
    into pushed predicates: the leading where clauses, the i-th one
    covered by the i-th predicate.  A tagged clause may pass rows the
    scan already proved definitely-true (``item.pushdown_verified``)
    without re-evaluating its condition — the scan's three-valued
    verdict is True only when the condition is guaranteed truthy and
    error-free.
    """
    from repro.jsoniq.runtime.comparison import ComparisonIterator
    from repro.jsoniq.runtime.flwor.clauses import WhereClauseIterator

    chain = []
    clause = return_iterator.input_clause
    while clause is not None and clause is not head:
        chain.append(clause)
        clause = getattr(clause, "input_clause", None)
    # Forward order: the where prefix sits directly after the head.
    for clause, predicate in zip(reversed(chain), plan.predicates):
        if not isinstance(clause, WhereClauseIterator):
            break
        condition = clause.condition
        if not isinstance(condition, ComparisonIterator):
            break
        op = condition.op
        value_op = op if op in VALUE_OPS else GENERAL_TO_VALUE.get(op)
        spec_left, spec_right, spec_op = predicate.spec
        if not (
            value_op == spec_op
            and _operands_match(
                _iterator_operand(condition.left, plan.variable), spec_left)
            and _operands_match(
                _iterator_operand(condition.right, plan.variable),
                spec_right)
        ):
            break
        clause.pushdown_plan = plan


def _rewrite_topk(flwor: ast.FlworExpression, return_iterator) -> None:
    """Recognize ``order by ... count $c where $c le k return ...`` and
    splice in a :class:`TopKClauseIterator`, keeping the original where
    clause as the reference fallback."""
    from repro.jsoniq.runtime.comparison import ComparisonIterator
    from repro.jsoniq.runtime.flwor.clauses import (
        CountClauseIterator,
        OrderByClauseIterator,
        WhereClauseIterator,
    )

    where = return_iterator.input_clause
    if not isinstance(where, WhereClauseIterator):
        return
    count = where.input_clause
    if not isinstance(count, CountClauseIterator):
        return
    order = count.input_clause
    if not isinstance(order, OrderByClauseIterator):
        return
    condition = where.condition
    if not isinstance(condition, ComparisonIterator):
        return
    limit = _bound_of(condition, count.variable)
    if limit is None:
        return
    # No downstream-use check needed: the heap emits exactly the first k
    # tuples of the sorted stream with the count variable bound 1..k —
    # identical to what count + where would have produced.
    topk = TopKClauseIterator(order, count.variable, limit, fallback=where)
    return_iterator.input_clause = topk
    return_iterator.topk = topk


def _bound_of(condition, count_variable: str) -> Optional[int]:
    """The k of ``$c le k`` / ``$c lt k`` / ``k ge $c`` / ``k gt $c``."""
    from repro.jsoniq.runtime.primary import LiteralIterator, VariableIterator

    def integer_literal(node) -> Optional[int]:
        if isinstance(node, LiteralIterator):
            item = node.item
            value = getattr(item, "value", None)
            if isinstance(value, int) and not isinstance(value, bool):
                return value
        return None

    left, right, op = condition.left, condition.right, condition.op
    if isinstance(left, VariableIterator) and left.name == count_variable:
        value = integer_literal(right)
        if value is None:
            return None
        if op in ("le", "<="):
            return value
        if op in ("lt", "<"):
            return value - 1
        return None
    if isinstance(right, VariableIterator) and right.name == count_variable:
        value = integer_literal(left)
        if value is None:
            return None
        if op in ("ge", ">="):
            return value
        if op in ("gt", ">"):
            return value - 1
        return None
    return None


# ---------------------------------------------------------------------------
# The top-k clause
# ---------------------------------------------------------------------------

class _Descending:
    """Inverts comparison order for descending ordering keys inside one
    composite sort key."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other) -> bool:
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return self.value == other.value


def _composite_key(specs):
    """A single composite sort key equivalent to the reference's chain
    of per-key stable sorts (first spec is the primary key)."""
    directions = [ascending for _, ascending, _ in specs]

    def key(ordering_row) -> tuple:
        return tuple(
            part if ascending else _Descending(part)
            for part, ascending in zip(ordering_row, directions)
        )

    return key


class TopKClauseIterator:
    """``order by ... count $c where $c le k`` as one clause.

    Keeps only k candidates per partition in a heap (stable
    ``heapq.nsmallest``) and merges them on the driver — the classic
    TopK physical operator replacing full-sort + row-number + filter.
    Type-family discovery runs over *every* row first, so incompatible
    ordering keys raise exactly as the reference order-by does.
    """

    def __init__(self, order_clause, count_variable: str, limit: int,
                 fallback):
        #: The original order-by (reused for key readers) and its input.
        self.order_clause = order_clause
        self.input_clause = order_clause.input_clause
        self.count_variable = count_variable
        self.limit = limit
        #: The original where clause — the reference path when the
        #: pushdown config flag is off.
        self.fallback = fallback

    # -- Shared helpers --------------------------------------------------------
    def _enabled(self, context) -> bool:
        runtime = context.runtime
        if runtime is None:
            return False
        return bool(getattr(runtime.config, "pushdown", True))

    @staticmethod
    def _merge_families(families, observed) -> None:
        from repro.jsoniq.errors import TypeException

        for index, family in enumerate(observed):
            if family is None:
                continue
            if families[index] is not None and families[index] != family:
                raise TypeException(
                    "incompatible order-by key types: {} and {}".format(
                        families[index], family
                    )
                )
            families[index] = family

    # -- Local API ---------------------------------------------------------------
    def tuple_stream(self, context):
        import heapq

        from repro.items import IntegerItem, check_sortable

        if not self._enabled(context):
            yield from self.fallback.tuple_stream(context)
            return
        if self.limit <= 0:
            return
        order = self.order_clause
        families = [None] * len(order.specs)

        def decorated():
            for tuple_ in order._input_tuples(context):
                values = order._key_of(tuple_, context)
                for index, value in enumerate(values):
                    if value is not None:
                        families[index] = check_sortable(
                            families[index], value
                        )
                yield (order._ordering_row(values), tuple_)

        composite = _composite_key(order.specs)
        best = heapq.nsmallest(
            self.limit, decorated(), key=lambda pair: composite(pair[0])
        )
        for position, (_, tuple_) in enumerate(best, 1):
            yield tuple_.extend(
                self.count_variable, [IntegerItem(position)]
            )

    # -- DataFrame API ------------------------------------------------------------
    def supports_dataframe(self, context) -> bool:
        if not self._enabled(context):
            return self.fallback.supports_dataframe(context)
        return self.input_clause.supports_dataframe(context)

    def get_dataframe(self, context):
        import heapq

        from repro.items import IntegerItem, check_sortable
        from repro.jsoniq.runtime.base import _obs_of

        if not self._enabled(context):
            return self.fallback.get_dataframe(context)
        order = self.order_clause
        frame = self.input_clause.get_dataframe(context)
        key_of = order._row_key_reader(context)
        ordering_row = order._ordering_row
        composite = _composite_key(order.specs)
        limit = self.limit
        spec_count = len(order.specs)

        def top_of_partition(part):
            """(families, top-k candidates) for one partition — the
            type-discovery pass and the heap run in the same scan."""
            families = [None] * spec_count
            decorated = []
            for row in part:
                values = key_of(row)
                for index, value in enumerate(values):
                    if value is not None:
                        families[index] = check_sortable(
                            families[index], value
                        )
                decorated.append((ordering_row(values), row))
            best = heapq.nsmallest(
                limit, decorated, key=lambda pair: composite(pair[0])
            ) if limit > 0 else []
            return [(families, best)]

        summaries = frame.rdd.map_partitions(top_of_partition).collect()
        families = [None] * spec_count
        candidates = []
        for observed, best in summaries:
            self._merge_families(families, observed)
            candidates.extend(best)
        merged = heapq.nsmallest(
            limit, candidates, key=lambda pair: composite(pair[0])
        ) if limit > 0 else []
        obs = _obs_of(context)
        if obs is not None:
            obs.metrics.counter("rumble.pushdown.topk_rewrites").inc()
        variable = self.count_variable
        rows = []
        for position, (_, row) in enumerate(merged, 1):
            out = dict(row)
            out[variable] = [IntegerItem(position)]
            rows.append(out)
        runtime = context.runtime
        rdd = runtime.spark.spark_context.parallelize(rows, 1)
        from repro.jsoniq.runtime.flwor.clauses import ClauseIterator

        return ClauseIterator._frame(
            runtime.spark, rdd, list(frame.columns) + [variable]
        )

    def sql_template(self) -> str:
        return "SELECT * ORDER BY ... LIMIT {} (top-k)".format(self.limit)

    def spark_mapping(self) -> str:
        return "mapPartitions(heap top-{}) + driver merge".format(self.limit)
