"""Code generation: the expression/clause tree becomes runtime iterators.

This is the third compiler stage of the paper's Section 5.1.  The visitor
walks the analysed AST and builds the matching iterator for each node.
The FLWOR path also runs the *variable usage analysis* of Section 4.7:
non-grouping variables that are only counted downstream are aggregated
with COUNT() instead of being materialized, and unused ones are dropped.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

from repro.jsoniq import ast
from repro.jsoniq.analysis.types import (
    SType,
    comparison_family,
    is_numeric_kind,
)
from repro.jsoniq.errors import StaticException
from repro.jsoniq.functions.registry import build_function_iterator, is_builtin
from repro.jsoniq.functions.udf import UdfCallIterator, UserFunction
from repro.jsoniq.runtime.arithmetic import (
    BinaryArithmeticIterator,
    UnarySignIterator,
)
from repro.jsoniq.runtime.base import RuntimeIterator
from repro.jsoniq.runtime.comparison import (
    AndIterator,
    ComparisonIterator,
    NotIterator,
    OrIterator,
)
from repro.jsoniq.runtime.control import (
    CastIterator,
    IfIterator,
    InstanceOfIterator,
    QuantifiedIterator,
    RangeIterator,
    StringConcatIterator,
    SwitchIterator,
    TreatIterator,
    TryCatchIterator,
)
from repro.jsoniq.runtime.flwor.clauses import (
    ClauseIterator,
    CountClauseIterator,
    ForClauseIterator,
    GroupByClauseIterator,
    LetClauseIterator,
    OrderByClauseIterator,
    ReturnClauseIterator,
    USAGE_COUNT_ONLY,
    USAGE_MATERIALIZE,
    USAGE_UNUSED,
    WhereClauseIterator,
    WindowClauseIterator,
)
from repro.jsoniq.runtime.navigation import (
    ArrayLookupIterator,
    ArrayUnboxingIterator,
    ObjectLookupIterator,
    PredicateIterator,
    SimpleMapIterator,
)
from repro.jsoniq.runtime.dynamic_context import DynamicContext
from repro.jsoniq.runtime.primary import (
    ArrayConstructorIterator,
    CommaIterator,
    ContextItemIterator,
    EmptySequenceIterator,
    FoldedConstantIterator,
    LiteralIterator,
    ObjectConstructorIterator,
    VariableIterator,
)


def _contains_parameter_slot(node: ast.AstNode) -> bool:
    """Whether any literal under ``node`` was lifted into a plan-cache
    parameter slot (its value changes per run — never foldable)."""
    stack: List[ast.AstNode] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Literal) \
                and getattr(current, "parameter_slot", None) is not None:
            return True
        stack.extend(current.children())
    return False


class Compiler:
    """Builds the runtime iterator tree for one main module."""

    def __init__(self) -> None:
        self._functions: Dict[Tuple[str, int], UserFunction] = {}
        self._function_decls: Dict[Tuple[str, int],
                                   ast.FunctionDeclaration] = {}
        #: How often each type-driven rewrite fired; surfaced by the
        #: profiler as ``rumble.static.fastpath`` counters.
        self.stats: Dict[str, int] = {
            "const_fold": 0,
            "count_fold": 0,
            "fast_arithmetic": 0,
            "fast_comparison": 0,
            "treat_wrapped": 0,
        }

    def compile_module(
        self, module: ast.MainModule
    ) -> Tuple[RuntimeIterator, List[Tuple[str, RuntimeIterator]]]:
        """Compile a module, returning the main iterator and the global
        variable initializers (name, iterator) in declaration order."""
        # Register user functions first so recursion resolves.
        for declaration in module.declarations:
            if isinstance(declaration, ast.FunctionDeclaration):
                key = (declaration.name, len(declaration.parameters))
                self._functions[key] = UserFunction(
                    declaration.name, declaration.parameters
                )
                self._function_decls[key] = declaration
        for declaration in module.declarations:
            if isinstance(declaration, ast.FunctionDeclaration):
                key = (declaration.name, len(declaration.parameters))
                body = self.compile(declaration.body)
                return_type = getattr(declaration, "return_type", None)
                if return_type is not None:
                    body = self._treat(body, return_type)
                self._functions[key].body = body
        globals_: List[Tuple[str, RuntimeIterator]] = []
        for declaration in module.declarations:
            if (
                isinstance(declaration, ast.VariableDeclaration)
                and declaration.expression is not None
            ):
                initializer = self.compile(declaration.expression)
                declared = getattr(declaration, "declared_type", None)
                if declared is not None:
                    initializer = self._treat(initializer, declared)
                globals_.append((declaration.name, initializer))
        return self.compile(module.expression), globals_

    def _treat(self, iterator: RuntimeIterator,
               sequence_type: ast.SequenceType) -> RuntimeIterator:
        """Enforce a declared type at run time.

        Static inference trusts declared types, so they must hold
        dynamically — a treat wrapper turns a lying annotation into the
        ``XPTY0004`` the annotation promised to rule out.
        """
        self.stats["treat_wrapped"] += 1
        return TreatIterator(iterator, sequence_type)

    # -- Expression dispatch ---------------------------------------------------
    def compile(self, node: ast.Expression) -> RuntimeIterator:
        method = getattr(
            self, "_compile_" + type(node).__name__, None
        )
        if method is None:
            raise StaticException(
                "no compilation rule for {}".format(type(node).__name__)
            )
        iterator = method(node)
        folded = self._maybe_fold(node, iterator)
        return iterator if folded is None else folded

    #: Operator nodes worth folding when constant: actual computations,
    #: mirroring the linter's RBL003 scope (literal sequences and
    #: ranges are data an author wrote down, not work to hoist).
    _FOLDABLE = (
        ast.BinaryExpression, ast.UnaryExpression,
        ast.ComparisonExpression, ast.StringConcatExpression,
    )

    def _maybe_fold(self, node: ast.Expression,
                    iterator: RuntimeIterator) -> Optional[RuntimeIterator]:
        """RBL003 applied: evaluate a constant computation at compile
        time and emit its single-item result as a constant.

        Strictly conservative: only effect-free operator subtrees the
        analyser proved constant, with a static arity of exactly one,
        containing no plan-cache parameter slot (the slot's value
        changes per run), and whose evaluation *succeeds* — a raising
        subtree stays unfolded so runtime errors like ``1 div 0``
        surface exactly where the author wrote them.
        """
        if not isinstance(node, self._FOLDABLE):
            return None
        if not getattr(node, "is_constant", False):
            return None
        static_type = getattr(node, "static_type", None)
        if not isinstance(static_type, SType) \
                or static_type.exact_count() != 1:
            return None
        if _contains_parameter_slot(node):
            return None
        try:
            items = iterator.materialize_local(DynamicContext(), limit=2)
        except Exception:
            return None
        if len(items) != 1:
            return None
        self.stats["const_fold"] += 1
        return FoldedConstantIterator(items[0])

    def _compile_Literal(self, node: ast.Literal) -> RuntimeIterator:
        slot = getattr(node, "parameter_slot", None)
        if slot is not None:
            # The plan cache marked this literal as a run-time parameter
            # (see repro.server.plan_cache): compile a slot reader, not a
            # constant, so the plan can be reused with other values.
            from repro.jsoniq.runtime.primary import ParameterIterator

            return ParameterIterator(slot, node.kind, node.value)
        return LiteralIterator(node.kind, node.value)

    def _compile_EmptySequence(self, node) -> RuntimeIterator:
        return EmptySequenceIterator()

    def _compile_VariableReference(self, node) -> RuntimeIterator:
        return VariableIterator(node.name)

    def _compile_ContextItem(self, node) -> RuntimeIterator:
        return ContextItemIterator()

    def _compile_CommaExpression(self, node) -> RuntimeIterator:
        return CommaIterator([self.compile(e) for e in node.expressions])

    def _compile_ObjectConstructor(self, node) -> RuntimeIterator:
        return ObjectConstructorIterator(
            [(self.compile(k), self.compile(v)) for k, v in node.pairs]
        )

    def _compile_ArrayConstructor(self, node) -> RuntimeIterator:
        return ArrayConstructorIterator(
            self.compile(node.content) if node.content else None
        )

    def _compile_BinaryExpression(self, node) -> RuntimeIterator:
        left = self.compile(node.left)
        right = self.compile(node.right)
        if node.op == "and":
            return AndIterator(left, right)
        if node.op == "or":
            return OrIterator(left, right)
        # Type-driven win #1: when inference proved both operands are
        # single numerics, the iterator skips the materialize/singleton/
        # atomicity checks on every evaluation.
        static_numeric = _is_single_numeric(node.left) and \
            _is_single_numeric(node.right)
        if static_numeric:
            self.stats["fast_arithmetic"] += 1
        return BinaryArithmeticIterator(
            node.op, left, right, static_numeric=static_numeric
        )

    def _compile_UnaryExpression(self, node) -> RuntimeIterator:
        operand = self.compile(node.operand)
        if node.op == "not":
            return NotIterator(operand)
        return UnarySignIterator(node.op, operand)

    def _compile_ComparisonExpression(self, node) -> RuntimeIterator:
        # Type-driven win #2: a value comparison between two provably
        # single comparable atomics skips the per-side checks.
        static_atomic = (
            node.op in ("eq", "ne", "lt", "le", "gt", "ge")
            and _is_single_comparable(node.left)
            and _is_single_comparable(node.right)
        )
        if static_atomic:
            self.stats["fast_comparison"] += 1
        return ComparisonIterator(
            node.op, self.compile(node.left), self.compile(node.right),
            static_atomic=static_atomic,
        )

    def _compile_RangeExpression(self, node) -> RuntimeIterator:
        return RangeIterator(self.compile(node.start), self.compile(node.end))

    def _compile_StringConcatExpression(self, node) -> RuntimeIterator:
        iterator = StringConcatIterator()
        iterator.children = [self.compile(part) for part in node.parts]
        return iterator

    def _compile_InstanceOfExpression(self, node) -> RuntimeIterator:
        return InstanceOfIterator(self.compile(node.operand), node.sequence_type)

    def _compile_TreatExpression(self, node) -> RuntimeIterator:
        return TreatIterator(self.compile(node.operand), node.sequence_type)

    def _compile_CastExpression(self, node) -> RuntimeIterator:
        return CastIterator(
            self.compile(node.operand),
            node.type_name,
            node.allows_empty,
            node.castable,
        )

    def _compile_ObjectLookup(self, node) -> RuntimeIterator:
        return ObjectLookupIterator(
            self.compile(node.source), self.compile(node.key)
        )

    def _compile_ArrayLookup(self, node) -> RuntimeIterator:
        return ArrayLookupIterator(
            self.compile(node.source), self.compile(node.index)
        )

    def _compile_ArrayUnboxing(self, node) -> RuntimeIterator:
        return ArrayUnboxingIterator(self.compile(node.source))

    def _compile_Predicate(self, node) -> RuntimeIterator:
        return PredicateIterator(
            self.compile(node.source), self.compile(node.condition)
        )

    def _compile_SimpleMap(self, node) -> RuntimeIterator:
        return SimpleMapIterator(
            self.compile(node.source), self.compile(node.mapper)
        )

    def _compile_IfExpression(self, node) -> RuntimeIterator:
        return IfIterator(
            self.compile(node.condition),
            self.compile(node.then_branch),
            self.compile(node.else_branch),
        )

    def _compile_SwitchExpression(self, node) -> RuntimeIterator:
        return SwitchIterator(
            self.compile(node.subject),
            [
                ([self.compile(test) for test in tests], self.compile(result))
                for tests, result in node.cases
            ],
            self.compile(node.default),
        )

    def _compile_TypeswitchExpression(self, node) -> RuntimeIterator:
        from repro.jsoniq.runtime.control import TypeswitchIterator

        return TypeswitchIterator(
            self.compile(node.subject),
            [
                (variable, sequence_type, self.compile(result))
                for variable, sequence_type, result in node.cases
            ],
            node.default_variable,
            self.compile(node.default),
        )

    def _compile_TryCatchExpression(self, node) -> RuntimeIterator:
        return TryCatchIterator(
            self.compile(node.try_expr),
            self.compile(node.catch_expr),
            node.codes,
        )

    def _compile_QuantifiedExpression(self, node) -> RuntimeIterator:
        return QuantifiedIterator(
            node.quantifier,
            [(name, self.compile(expr)) for name, expr in node.bindings],
            self.compile(node.condition),
        )

    def _compile_FunctionCall(self, node) -> RuntimeIterator:
        # Type-driven win #3: count() of a side-effect-free argument
        # whose length inference pinned exactly folds to a literal.
        folded = self._fold_count(node)
        if folded is not None:
            return folded
        arguments = [self.compile(argument) for argument in node.arguments]
        if node.name == "count" and len(arguments) == 1:
            # ``count(for ... return $v)``: the bare-variable return only
            # feeds a cardinality, so the scan may still project.
            plan = getattr(arguments[0], "pushdown_plan", None)
            if plan is not None and plan.bare_return:
                plan.count_only = True
        if is_builtin(node.name, len(arguments)):
            return build_function_iterator(node.name, arguments)
        key = (node.name, len(arguments))
        function = self._functions.get(key)
        if function is None:
            raise StaticException(
                "unknown function {}#{}".format(node.name, len(arguments)),
                code="XPST0017",
            )
        declaration = self._function_decls.get(key)
        parameter_types = (
            getattr(declaration, "parameter_types", None) or []
        ) if declaration is not None else []
        for index, parameter_type in enumerate(parameter_types):
            if parameter_type is not None and index < len(arguments):
                arguments[index] = self._treat(
                    arguments[index], parameter_type
                )
        return UdfCallIterator(function, arguments)

    def _fold_count(self, node: ast.FunctionCall
                    ) -> Optional[RuntimeIterator]:
        if node.name != "count" or len(node.arguments) != 1:
            return None
        argument = node.arguments[0]
        # Only nodes whose evaluation cannot fail or have effects — a
        # folded count must not hide its argument's runtime errors.
        if not isinstance(argument, (
            ast.VariableReference, ast.Literal, ast.EmptySequence,
            ast.ContextItem,
        )):
            return None
        static_type = getattr(argument, "static_type", None)
        if not isinstance(static_type, SType):
            return None
        exact = static_type.exact_count()
        if exact is None:
            return None
        self.stats["count_fold"] += 1
        return LiteralIterator("integer", exact)

    # -- FLWOR -------------------------------------------------------------------
    def _compile_FlworExpression(self, node: ast.FlworExpression
                                 ) -> RuntimeIterator:
        clauses = _split_conjunctions(node.clauses)
        if clauses is not node.clauses:
            # A copy: the parsed tree may be shared through the plan cache.
            node = copy.copy(node)
            node.clauses = clauses
        chain: Optional[ClauseIterator] = None
        bound_so_far: List[str] = []
        for index, clause in enumerate(node.clauses):
            if isinstance(clause, ast.ForClause):
                source = self.compile(clause.expression)
                declared = getattr(clause, "declared_type", None)
                if declared is not None:
                    # Every bound item must match the item type; the
                    # source as a whole may have any length.
                    source = self._treat(source, ast.SequenceType(
                        declared.item_type, "*"
                    ))
                chain = ForClauseIterator(
                    chain,
                    clause.variable,
                    source,
                    allowing_empty=clause.allowing_empty,
                    position_variable=clause.position_variable,
                )
                bound_so_far.append(clause.variable)
                if clause.position_variable:
                    bound_so_far.append(clause.position_variable)
            elif isinstance(clause, ast.WindowClause):
                chain = WindowClauseIterator(
                    chain,
                    clause.kind,
                    clause.variable,
                    self.compile(clause.expression),
                    clause.start.variables,
                    self.compile(clause.start.when),
                    end_vars=(
                        clause.end.variables if clause.end else None
                    ),
                    end_when=(
                        self.compile(clause.end.when) if clause.end else None
                    ),
                    end_only=(clause.end.only if clause.end else False),
                )
                bound_so_far.append(clause.variable)
                bound_so_far.extend(clause.start.variables.names())
                if clause.end is not None:
                    bound_so_far.extend(clause.end.variables.names())
            elif isinstance(clause, ast.LetClause):
                binding = self.compile(clause.expression)
                declared = getattr(clause, "declared_type", None)
                if declared is not None:
                    binding = self._treat(binding, declared)
                chain = LetClauseIterator(
                    chain, clause.variable, binding
                )
                bound_so_far.append(clause.variable)
            elif isinstance(clause, ast.WhereClause):
                chain = WhereClauseIterator(
                    chain, self.compile(clause.condition)
                )
            elif isinstance(clause, ast.GroupByClause):
                keys = [
                    (
                        key.variable,
                        self.compile(key.expression)
                        if key.expression else None,
                    )
                    for key in clause.keys
                ]
                key_names = {key.variable for key in clause.keys}
                usage = _analyse_group_usage(
                    node.clauses[index + 1:],
                    [name for name in bound_so_far if name not in key_names],
                )
                chain = GroupByClauseIterator(chain, keys, usage)
                bound_so_far = [
                    name for name in bound_so_far if name not in key_names
                ] + list(key_names)
            elif isinstance(clause, ast.OrderByClause):
                chain = OrderByClauseIterator(
                    chain,
                    [
                        (
                            self.compile(spec.expression),
                            spec.ascending,
                            spec.empty_greatest,
                        )
                        for spec in clause.specs
                    ],
                    stable=clause.stable,
                )
            elif isinstance(clause, ast.CountClause):
                chain = CountClauseIterator(chain, clause.variable)
                bound_so_far.append(clause.variable)
            elif isinstance(clause, ast.ReturnClause):
                result = ReturnClauseIterator(
                    chain, self.compile(clause.expression)
                )
                # Scan pushdown + top-k planning (dormant until a runtime
                # with config.pushdown enables them).
                from repro.jsoniq.runtime.flwor import pushdown

                pushdown.annotate(node, result)
                cgplan = getattr(result, "codegen_plan", None)
                if cgplan is not None and cgplan.supported:
                    # Surface the emitter's per-shape specialization
                    # tally next to the static-fastpath stats; the
                    # profiler splits the ``codegen_`` prefix back out
                    # as ``rumble.codegen.specialized`` counters.
                    for kind, fired in cgplan.stage.specializations.items():
                        key = "codegen_" + kind
                        self.stats[key] = self.stats.get(key, 0) + fired
                return result
        raise StaticException("FLWOR without return clause")


def _split_conjunctions(clauses: List[ast.Clause]) -> List[ast.Clause]:
    """The clause list with each ``where A and B`` written as ``where A
    where B`` (any nesting of ``and``, left to right), or ``clauses``
    itself when there is no conjunction to split.

    The rewrite is exact: ``and`` evaluates ``B`` (which may raise) only
    on tuples where ``A`` holds, which is what the second clause sees.
    It lets every tier that handles one comparison per where clause
    (pushed predicates, column masks, codegen, the DataFrame fast
    predicate) run conjunctions as well.
    """
    split: List[ast.Clause] = []
    for clause in clauses:
        conjuncts = (_conjuncts(clause.condition)
                     if isinstance(clause, ast.WhereClause) else ())
        if len(conjuncts) < 2:
            split.append(clause)
            continue
        for conjunct in conjuncts:
            where = copy.copy(clause)
            where.condition = conjunct
            split.append(where)
    return clauses if len(split) == len(clauses) else split


def _conjuncts(node: ast.Expression) -> List[ast.Expression]:
    if isinstance(node, ast.BinaryExpression) and node.op == "and":
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


def _is_single_numeric(node: ast.AstNode) -> bool:
    static_type = getattr(node, "static_type", None)
    return (
        isinstance(static_type, SType)
        and static_type.is_one
        and is_numeric_kind(static_type.kind)
    )


def _is_single_comparable(node: ast.AstNode) -> bool:
    static_type = getattr(node, "static_type", None)
    return (
        isinstance(static_type, SType)
        and static_type.is_one
        and comparison_family(static_type.kind) is not None
    )


def _analyse_group_usage(
    downstream: List[ast.Clause], non_grouping: List[str]
) -> Dict[str, str]:
    """Classify each non-grouping variable's use after the group-by.

    ``count`` — every reference is the sole argument of ``count()``;
    ``unused`` — no reference at all; ``materialize`` — anything else.
    A later clause re-binding the variable ends its old life.
    """
    usage: Dict[str, str] = {name: USAGE_UNUSED for name in non_grouping}
    alive = set(non_grouping)

    def scan(node: ast.AstNode) -> None:
        if isinstance(node, ast.FunctionCall) and node.name == "count" and \
                len(node.arguments) == 1 and isinstance(
                    node.arguments[0], ast.VariableReference):
            name = node.arguments[0].name
            if name in alive:
                if usage[name] == USAGE_UNUSED:
                    usage[name] = USAGE_COUNT_ONLY
                return
        if isinstance(node, ast.VariableReference) and node.name in alive:
            usage[node.name] = USAGE_MATERIALIZE
            return
        for child in node.children():
            scan(child)

    for clause in downstream:
        for child in clause.children():
            scan(child)
        # Re-declarations shadow the grouped variable from here on.
        if isinstance(clause, (ast.ForClause, ast.LetClause)):
            alive.discard(clause.variable)
        elif isinstance(clause, ast.GroupByClause):
            for key in clause.keys:
                alive.discard(key.variable)
        elif isinstance(clause, ast.CountClause):
            alive.discard(clause.variable)
    return usage


def compile_main_module(module: ast.MainModule):
    """Convenience wrapper used by the engine."""
    return Compiler().compile_module(module)
