"""The query linter behind ``--lint`` and the shell's ``:lint``.

Runs the full static analyzer in *collecting* mode (guaranteed type
errors become error diagnostics instead of exceptions) and layers the
style rules on top: unused variables (RBL001), shadowing (RBL002,
reported by the analyzer itself at bind time), foldable constants
(RBL003), suspicious comparisons (RBL004, also analyzer-reported) and
the ``count($x) eq 0`` antipattern (RBL005).
"""

from __future__ import annotations

from typing import List, Optional

from repro.items.compare import FLIPPED
from repro.jsoniq import ast
from repro.jsoniq.analysis.diagnostics import (
    Diagnostic,
    DiagnosticSink,
    ERROR,
    INFO,
    WARNING,
)
from repro.jsoniq.analysis.inference import (
    Analyzer,
    LINTABLE_BINDINGS,
)
from repro.jsoniq.errors import StaticException
from repro.jsoniq.parser import parse


def lint_query(text: str) -> List[Diagnostic]:
    """Lint one query text; never raises for query-author mistakes."""
    sink = DiagnosticSink()
    try:
        module = parse(text)
    except StaticException as exc:  # includes ParseException
        sink.report(
            exc.code or "XPST0003", ERROR, exc.message,
            line=exc.line or 0, column=exc.column or 0,
        )
        return sink.sorted()
    analyzer = Analyzer(sink=sink, collect_type_errors=True)
    try:
        analyzer.analyse_module(module)
    except StaticException as exc:
        # Scope/function-resolution errors still raise even in
        # collecting mode; fold them into the report.
        sink.report(
            exc.code or "XPST0008", ERROR, exc.message,
            line=exc.line or 0, column=exc.column or 0,
        )
        return sink.sorted()
    _report_unused(analyzer, sink)
    if not sink.has_errors():
        # Don't suggest folding subtrees that already carry type errors.
        _report_foldable(module, sink)
    _walk_antipatterns(module, sink)
    return sink.sorted()


def _report_unused(analyzer: Analyzer, sink: DiagnosticSink) -> None:
    for binding in analyzer.bindings:
        if binding.kind not in LINTABLE_BINDINGS:
            continue
        if binding.origin is not None:
            continue  # re-bindings are accounted to the original
        if binding.references == 0:
            sink.report(
                "RBL001", WARNING,
                "variable ${} is bound but never used".format(binding.name),
                line=binding.line, column=binding.column,
            )


def _report_foldable(module: ast.MainModule, sink: DiagnosticSink) -> None:
    """Topmost constant subtrees that aren't already literals.

    The subtree is *reported*, never evaluated: folding ``1 div 0`` at
    compile time would hide the runtime ``FOAR0001`` the author may be
    testing for.  Plain literal sequences like ``(1, 2)`` are data, not
    computation, so only subtrees that actually *do* something (an
    operator or a range) are worth flagging.
    """
    stack: List[ast.AstNode] = [module.expression]
    for declaration in module.declarations:
        if isinstance(declaration, ast.FunctionDeclaration):
            stack.append(declaration.body)
        elif (
            isinstance(declaration, ast.VariableDeclaration)
            and declaration.expression is not None
        ):
            stack.append(declaration.expression)
    while stack:
        node = stack.pop()
        if getattr(node, "is_constant", False) and not _is_literal_like(node):
            sink.report(
                "RBL003", INFO,
                "constant subexpression could be computed once",
                node=node,
            )
            continue  # topmost only — don't descend into it
        stack.extend(node.children())


def _is_literal_like(node: ast.AstNode) -> bool:
    """Already in simplest form: a literal, a sequence of literals, or a
    literal range like ``1 to 10`` — data an author wrote down, not a
    computation worth hoisting."""
    if isinstance(node, (ast.Literal, ast.EmptySequence)):
        return True
    if isinstance(node, ast.CommaExpression):
        return all(_is_literal_like(child) for child in node.expressions)
    if isinstance(node, ast.RangeExpression):
        return all(
            isinstance(child, ast.Literal) for child in node.children()
        )
    if isinstance(node, ast.UnaryExpression):
        # ``-3.0`` is a negative literal, not a computation.
        return isinstance(node.operand, ast.Literal)
    return False


#: count($x) <op> <literal> rewrites, keyed by (op, literal value).
_COUNT_REWRITES = {
    ("eq", 0): "empty($x)",
    ("le", 0): "empty($x)",
    ("lt", 1): "empty($x)",
    ("ne", 0): "exists($x)",
    ("gt", 0): "exists($x)",
    ("ge", 1): "exists($x)",
}


def _walk_antipatterns(module: ast.MainModule,
                       sink: DiagnosticSink) -> None:
    stack: List[ast.AstNode] = [module]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ComparisonExpression):
            _check_count_antipattern(node, sink)
        stack.extend(node.children())


def _check_count_antipattern(node: ast.ComparisonExpression,
                             sink: DiagnosticSink) -> None:
    for call, literal in (
        (node.left, node.right), (node.right, node.left)
    ):
        if not (
            isinstance(call, ast.FunctionCall)
            and call.name == "count"
            and len(call.arguments) == 1
        ):
            continue
        if not (
            isinstance(literal, ast.Literal)
            and literal.kind == "integer"
        ):
            continue
        op = node.op
        if call is node.right:
            op = FLIPPED.get(op, op)
        suggestion = _COUNT_REWRITES.get((op, literal.value))
        if suggestion is not None:
            sink.report(
                "RBL005", WARNING,
                "count() compared with {} — prefer {} (no full "
                "materialization)".format(literal.value, suggestion),
                node=node,
            )
        return
