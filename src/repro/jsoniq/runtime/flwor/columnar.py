"""Columnar consumers of the pushdown plan: the batch protocol.

:func:`plan_columnar` runs at compile time (from
:func:`repro.jsoniq.runtime.flwor.pushdown.annotate`) over a freshly
compiled FLWOR chain that carries a pushdown plan.  It attaches a
:class:`ColumnarPlan` to the head for-clause and the return clause, and
— when the chain's shape allows — a batch *kernel* to the consumer
clause:

* **masked batch scan** — the leading for-clause scans
  :class:`~repro.items.columnar.MaskedBatch` es and boxes only surviving
  rows at the boundary (the default columnar mode whenever predicates
  were pushed; see ``ForClauseIterator.get_dataframe``);
* **count kernel** — ``count(for $v in json-file(...) where ... return
  $v)`` sums per-batch verdict counts without boxing a single verified
  row (``ReturnClauseIterator.rdd_count``);
* **group-by count kernel** — a group-by on ``$v.key`` keys whose
  non-grouping variable is only counted pre-aggregates each batch into
  one partial row per (partition, key), feeding the existing
  shuffle/aggregation machinery with per-key counts instead of per-row
  tuples (``GroupByClauseIterator.get_dataframe``).

Rows a mask could not decide (``RETAINED``) and escaped rows are boxed
and re-checked through the *original* where conditions, so semantics —
errors included — match the reference row path exactly.  Everything is
gated at run time by :func:`repro.core.config.columnar_enabled` (which
also requires ``config.pushdown``); the row path stays the untouched
reference.
"""

from __future__ import annotations

from typing import List, Optional

from repro.items.columnar import PRUNED, VERIFIED
from repro.items.compare import ABSENT, raw_grouping_key


def _columnar_on(context) -> bool:
    """The runtime gate every columnar consumer checks."""
    from repro.core.config import columnar_enabled

    runtime = context.runtime
    if runtime is None:
        return False
    return columnar_enabled(runtime.config)


class ColumnarPlan:
    """The compile-time columnar decision record for one FLWOR chain.

    Decisions that depend on post-``annotate`` state (the compiler flips
    ``plan.count_only`` after us) are taken lazily — :meth:`describe`
    and the runtime kernels re-read the pushdown plan every time.
    """

    def __init__(self, plan, head, wheres: List[object]):
        #: The underlying :class:`PushdownPlan`.
        self.plan = plan
        #: The leading for-clause iterator (scans the file).
        self.head = head
        #: The covered where-clause prefix, forward order: every one was
        #: compiled into a pushed predicate, so they are exactly the
        #: conditions a ``RETAINED`` row must be re-checked against.
        self.wheres = wheres
        #: True when nothing but covered wheres sits between the head
        #: and the return clause — the count kernel fires iff the
        #: compiler also proves the FLWOR is only ever counted.
        self.count_candidate = False
        #: Set when the consumer is a kernel-eligible group-by.
        self.group_kernel: Optional[GroupByCountKernel] = None

    def describe(self) -> List[str]:
        """Explain lines (evaluated lazily — see class docstring)."""
        if self.group_kernel is not None:
            return [
                "columnar: group-by count kernel over masked scan "
                "(keys: {})".format(
                    ", ".join(
                        "${} := ${}.{}".format(name, self.plan.variable, key)
                        for name, key in self.group_kernel.keys
                    )
                )
            ]
        if self.count_candidate and self.plan.count_only:
            return ["columnar: count kernel over masked scan"]
        if self.plan.predicates:
            return [
                "columnar: masked batch scan ({} predicate mask{})".format(
                    len(self.plan.predicates),
                    "" if len(self.plan.predicates) == 1 else "s",
                )
            ]
        return [
            "columnar: declined (no pushed predicate masks; row scan "
            "retained)"
        ]


class GroupByCountKernel:
    """Pre-aggregate masked batches into partial group rows.

    Eligible shape: the group-by's whole upstream is the head scan plus
    covered wheres, every grouping key is ``$k := $v.key``, and the scan
    variable is only counted (or unused) downstream.  The kernel's
    partial rows carry the same columns the reference ``encode`` emits —
    boxed key items, the three native key columns, a
    ``CountedSequence`` for the scan variable — so the existing
    group/aggregate/order machinery merges them unchanged.
    """

    def __init__(self, cplan: ColumnarPlan, keys, usage: str):
        self.cplan = cplan
        #: [(grouping-variable name, raw record key)] in clause order.
        self.keys = keys
        self.usage = usage

    def partial_rows(self, context):
        """The RDD of partial rows, or None when the runtime gate or
        scan capability rules the kernel out (caller falls back to the
        reference path)."""
        from repro.jsoniq.runtime.base import _obs_of
        from repro.jsoniq.runtime.flwor.clauses import (
            USAGE_COUNT_ONLY,
        )
        from repro.jsoniq.runtime.flwor.tuples import CountedSequence

        cplan = self.cplan
        head = cplan.head
        if (
            not _columnar_on(context)
            or head.input_clause is not None
            or not hasattr(head.expression, "get_rdd_columnar")
        ):
            return None
        plan = cplan.plan
        rdd = head.expression.get_rdd_columnar(context, plan)
        recheck = _build_recheck(cplan.wheres, context)
        variable = plan.variable
        count_only = self.usage == USAGE_COUNT_ONLY
        key_specs = tuple(self.keys)
        obs = _obs_of(context)
        if obs is not None:
            obs.metrics.counter("rumble.columnar.group_kernel").inc()

        def partials(batches):
            from repro.jsoniq.jsonlines import _wrap_fast

            groups = {}  # native key tuple -> [key raw values, count]
            for masked in batches:
                batch = masked.batch
                escaped = batch.escaped
                columns = batch.columns
                readers = [
                    (name, key, columns.get(key)) for name, key in key_specs
                ]
                for row, status in enumerate(masked.statuses):
                    if status == PRUNED:
                        continue
                    if status != VERIFIED and recheck is not None:
                        item = batch.unshred_row(row)
                        if not recheck({variable: [item]}):
                            continue
                    native = []
                    raw_values = []
                    record = escaped.get(row, ABSENT)
                    if record is not ABSENT:
                        is_dict = type(record) is dict
                        for name, key, _column in readers:
                            value = (
                                record.get(key, ABSENT) if is_dict else ABSENT
                            )
                            raw_values.append(value)
                            native.extend(raw_grouping_key(value, name))
                    else:
                        for name, _key, column in readers:
                            value = (
                                column.read(row) if column is not None
                                else ABSENT
                            )
                            raw_values.append(value)
                            native.extend(raw_grouping_key(value, name))
                    entry = groups.get(tuple(native))
                    if entry is None:
                        groups[tuple(native)] = [raw_values, 1]
                    else:
                        entry[1] += 1
            # First-encounter order; the downstream ORDER BY on the
            # native columns makes the final order deterministic anyway.
            for native, (raw_values, count) in groups.items():
                out = {}
                position = 0
                for (name, _key), value in zip(key_specs, raw_values):
                    out[name] = (
                        [] if value is ABSENT else [_wrap_fast(value)]
                    )
                    out["#" + name + "#t"] = native[position]
                    out["#" + name + "#s"] = native[position + 1]
                    out["#" + name + "#n"] = native[position + 2]
                    position += 3
                if count_only:
                    out[variable] = CountedSequence(count)
                yield out

        return rdd.map_partitions(partials)


def _build_recheck(wheres, context):
    """One row-predicate re-running the covered where conditions in
    clause order over ``{variable: [item]}`` rows — the reference
    semantics (errors included) for rows the masks could not decide.
    Returns None when there is nothing to re-check."""
    from repro.jsoniq.runtime.flwor.clauses import (
        _make_fast_predicate,
        _row_context,
    )

    if not wheres:
        return None
    checks = []
    for clause in wheres:
        fast = _make_fast_predicate(clause.condition)
        if fast is None:
            condition = clause.condition

            def fast(row, condition=condition):
                return condition.effective_boolean_value(
                    _row_context(context, row)
                )

        checks.append(fast)

    def recheck(row) -> bool:
        for check in checks:
            if not check(row):
                return False
        return True

    return recheck


def rdd_count(return_iterator, context) -> Optional[int]:
    """The count kernel: sum per-batch surviving-row counts.

    Verified rows are counted without boxing; retained rows box and
    re-check the covered wheres.  Returns None whenever any gate fails —
    the caller (``CountIterator``) falls back to the reference
    ``get_rdd().count()``.
    """
    from repro.jsoniq.runtime.base import _obs_of

    cplan = getattr(return_iterator, "columnar_plan", None)
    if cplan is None or not cplan.count_candidate:
        return None
    plan = cplan.plan
    if not plan.count_only:
        return None
    head = cplan.head
    if (
        not _columnar_on(context)
        or head.input_clause is not None
        or not hasattr(head.expression, "get_rdd_columnar")
        or return_iterator.topk is not None
    ):
        return None
    rdd = head.expression.get_rdd_columnar(context, plan)
    recheck = _build_recheck(cplan.wheres, context)
    variable = plan.variable
    obs = _obs_of(context)
    if obs is not None:
        obs.metrics.counter("rumble.columnar.count_kernel").inc()

    def count_partition(batches):
        total = 0
        for masked in batches:
            batch = masked.batch
            if recheck is None:
                total += masked.selected_count()
                continue
            for row, status in enumerate(masked.statuses):
                if status == PRUNED:
                    continue
                if status == VERIFIED:
                    total += 1
                    continue
                item = batch.unshred_row(row)
                if recheck({variable: [item]}):
                    total += 1
        yield total

    return sum(rdd.map_partitions(count_partition).collect())


def plan_columnar(head, return_iterator, plan) -> None:
    """Attach the columnar plan (and any kernel) to a compiled chain.

    Called by ``pushdown.annotate`` right after the covered wheres are
    tagged and *before* the top-k rewrite (the chain is still the plain
    clause list here).
    """
    from repro.jsoniq.runtime.flwor.clauses import (
        GroupByClauseIterator,
        USAGE_COUNT_ONLY,
        USAGE_MATERIALIZE,
        USAGE_UNUSED,
        WhereClauseIterator,
    )
    from repro.jsoniq.runtime.flwor.pushdown import _iterator_operand

    chain = []
    clause = return_iterator.input_clause
    while clause is not None and clause is not head:
        chain.append(clause)
        clause = getattr(clause, "input_clause", None)
    if clause is not head:
        return
    chain.reverse()

    # The covered-where prefix: exactly the clauses whose conditions the
    # scan's masks evaluate (everything after it sees boxed rows).
    wheres = []
    position = 0
    while (
        position < len(chain)
        and isinstance(chain[position], WhereClauseIterator)
        and chain[position].pushdown_plan is plan
    ):
        wheres.append(chain[position])
        position += 1
    rest = chain[position:]

    cplan = ColumnarPlan(plan, head, wheres)
    if not rest:
        # Bare `return $v` (or a projection thereof) directly after the
        # covered prefix: count-kernel candidate if the compiler later
        # proves the FLWOR is only counted.
        cplan.count_candidate = plan.bare_return
    elif isinstance(rest[0], GroupByClauseIterator):
        groupby = rest[0]
        keys = []
        eligible = True
        for name, expression in groupby.keys:
            spec = (
                _iterator_operand(expression, plan.variable)
                if expression is not None else None
            )
            if (
                spec is None
                or spec[0] != "key"
                or name == plan.variable
            ):
                eligible = False
                break
            keys.append((name, spec[1]))
        usage = groupby.variable_usage.get(
            plan.variable, USAGE_MATERIALIZE
        )
        if eligible and usage in (USAGE_COUNT_ONLY, USAGE_UNUSED):
            kernel = GroupByCountKernel(cplan, keys, usage)
            cplan.group_kernel = kernel
            groupby.columnar_kernel = kernel

    head.columnar_plan = cplan
    return_iterator.columnar_plan = cplan
