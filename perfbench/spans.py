"""Span recorder: wraps the public calls of each layer from outside.

``Recorder.install()`` replaces each function named by ``layer_calls()``
with a wrapper that records one span per call.  A span has a name, the
span that was open when it started (its parent), the request id of the
query it belongs to, and its start and end.  Its *active* time is the
time the wrapped code was actually running; its *self* time is that
minus the active time of the spans it opened.

Generators are timed one ``next()`` at a time on a per-thread stack, so
a decoder that pulls lines from ``FileBlock.read_lines`` gets the read
time subtracted from its own.  Coroutines are timed one step at a time
the same way.  ``uninstall()`` restores every original binding.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from typing import Callable, Dict, List, Optional

#: The request id spans are tagged with; the workloads set it per query.
REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None)

_now = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "request", "thread", "start",
                 "end", "active", "child", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 request, thread: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = thread
        self.start = None
        self.end = None
        self.active = 0.0
        self.child = 0.0
        self.attrs: Dict[str, float] = {}

    @property
    def self_time(self) -> float:
        return self.active - self.child

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "request": self.request, "thread": self.thread,
            "start": self.start, "end": self.end,
            "active": self.active, "self": self.self_time,
            "attrs": self.attrs,
        }


class Recorder:
    """Keeps every span in memory until ``write`` is called."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: List[tuple] = []

    # -- the span stack -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, name, stack[-1][0].id if stack else None,
                    REQUEST.get(), threading.get_ident())
        with self._lock:
            self.spans.append(span)
        return span

    def enter(self, span: Span) -> list:
        frame = [span, _now(), 0.0]
        if span.start is None:
            span.start = frame[1]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = _now()
        span, begun, child = frame
        elapsed = end - begun
        span.active += elapsed
        span.child += child
        span.end = end
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += elapsed

    # -- wrappers -------------------------------------------------------------
    def call(self, name: str, function: Callable,
             note: Optional[Callable] = None) -> Callable:
        """Wrap a plain call.  ``note(span, args, result)`` may add
        counts to the span's attributes."""
        recorder = self

        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            frame = recorder.enter(span)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.exit(frame)
            if note is not None:
                note(span, args, result)
            return result

        return wrapper

    def generator(self, name: str, function: Callable,
                  note: Optional[Callable] = None) -> Callable:
        """Wrap a call returning an iterator; time every ``next()``.
        ``note(span, args)`` runs once; ``span.attrs["items"]`` counts
        what the iterator yielded."""
        recorder = self

        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            if note is not None:
                note(span, args)
            return recorder._iterate(span, function(*args, **kwargs))

        return wrapper

    def _iterate(self, span: Span, iterator):
        items = 0
        step = iter(iterator).__next__
        try:
            while True:
                frame = self.enter(span)
                try:
                    value = step()
                except StopIteration:
                    return
                finally:
                    self.exit(frame)
                items += 1
                yield value
        finally:
            span.attrs["items"] = items
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def stage(self, name: str, function: Callable) -> Callable:
        """Wrap ``ExecutorPool.run_stage``; read the task count and the
        retries off the ``StageMetrics`` the call appends first."""
        recorder = self

        def wrapper(pool, *args, **kwargs):
            span = recorder.open(name)
            first = len(pool.stages)
            frame = recorder.enter(span)
            try:
                return function(pool, *args, **kwargs)
            finally:
                recorder.exit(frame)
                if len(pool.stages) > first:
                    tasks = pool.stages[first].tasks
                    span.attrs["tasks"] = len(tasks)
                    span.attrs["retries"] = sum(
                        task.attempts - 1 for task in tasks)

        return wrapper

    def coroutine(self, name: str, function: Callable) -> Callable:
        """Wrap an ``async def``; time each step it runs on the loop."""
        recorder = self

        async def wrapper(*args, **kwargs):
            span = recorder.open(name)
            return await _Stepped(recorder, span,
                                  function(*args, **kwargs))

        return wrapper

    def waiting(self, name: str, function: Callable) -> Callable:
        """Wrap an async context manager factory; the span covers the
        wall time from the call until the ``async with`` body starts."""
        recorder = self

        def wrapper(*args, **kwargs):
            return _Waited(recorder, name, function(*args, **kwargs))

        return wrapper

    # -- patching ---------------------------------------------------------------
    def patch(self, owner, attribute: str, replacement: Callable) -> None:
        """Rebind ``owner.attribute``; ``uninstall`` puts it back."""
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "Recorder":
        for owner, attribute, kind, name, note in layer_calls():
            wrap = getattr(self, kind)
            original = getattr(owner, attribute)
            self.patch(owner, attribute,
                       wrap(name, original) if note is None
                       else wrap(name, original, note))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- results ------------------------------------------------------------------
    def totals(self) -> Dict[str, dict]:
        """Per span name: calls, self seconds, active seconds, attrs."""
        totals: Dict[str, dict] = {}
        for span in self.spans:
            entry = totals.setdefault(span.name, {
                "calls": 0, "self": 0.0, "active": 0.0, "attrs": {}})
            entry["calls"] += 1
            entry["self"] += span.self_time
            entry["active"] += span.active
            for key, value in span.attrs.items():
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()))
                handle.write("\n")


class _Stepped:
    """Awaitable driving a coroutine one timed step at a time."""

    def __init__(self, recorder: Recorder, span: Span, coroutine):
        self.recorder = recorder
        self.span = span
        self.coroutine = coroutine

    def __await__(self):
        coroutine = self.coroutine
        value = None
        error = None
        while True:
            frame = self.recorder.enter(self.span)
            try:
                if error is None:
                    signal = coroutine.send(value)
                else:
                    signal = coroutine.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.recorder.exit(frame)
            try:
                value = yield signal
                error = None
            except BaseException as thrown:  # re-raised into the coroutine
                value = None
                error = thrown


class _Waited:
    """Async context manager recording how long entering it took."""

    def __init__(self, recorder: Recorder, name: str, manager):
        self.recorder = recorder
        self.name = name
        self.manager = manager

    async def __aenter__(self):
        span = self.recorder.open(self.name)
        span.start = _now()
        try:
            return await self.manager.__aenter__()
        finally:
            span.end = _now()
            span.active = span.end - span.start

    async def __aexit__(self, *exc_info):
        return await self.manager.__aexit__(*exc_info)


# ---------------------------------------------------------------------------
# The calls wrapped, one row per layer boundary (see README.md)
# ---------------------------------------------------------------------------

def _note_block(span: Span, args) -> None:
    span.attrs["bytes"] = args[0].length


def _note_batch(span: Span, args, batch) -> None:
    span.attrs["rows"] = batch.row_count


def _note_cache(span: Span, args, batch) -> None:
    span.attrs["hits"] = 0 if batch is None else 1


def _note_bucketize(span: Span, args, result) -> None:
    span.attrs["records"] = result[1]


def layer_calls():
    """(owner, attribute, wrapper kind, span name, note) per wrapped call.

    Each binding is the one the caller reads: ``io`` imports
    ``iter_json_lines`` at module level; ``shred_json_lines``,
    ``iter_json_lines_pushed`` and ``shred_records`` are imported at call
    time from their home modules; ``spark.rdd`` imports ``bucketize``;
    the engine and the plan cache both import ``compile_main_module``.
    """
    from repro.baselines import handcoded
    from repro.core import engine, results
    from repro.items import columnar
    from repro.jsoniq import jsonlines, parser, static_analysis
    from repro.jsoniq.functions import io
    from repro.server import admission, plan_cache, service, session
    from repro.spark import cluster, rdd, storage

    return [
        (parser, "parse", "call", "parser.parse", None),
        (static_analysis, "analyse", "call", "static_analysis.analyse",
         None),
        (engine, "compile_main_module", "call", "compiler.compile", None),
        (plan_cache, "compile_main_module", "call", "compiler.compile",
         None),
        (engine.Rumble, "query", "call", "engine.query", None),
        (results.SequenceOfItems, "collect", "call", "runtime.collect",
         None),
        (results.SequenceOfItems, "count", "call", "runtime.count", None),
        (results.SequenceOfItems, "take", "call", "runtime.take", None),
        (storage.FileBlock, "read_lines", "generator", "storage.read_lines",
         _note_block),
        (io, "iter_json_lines", "generator", "jsonlines.iter_json_lines",
         None),
        (jsonlines, "iter_json_lines_pushed", "generator",
         "jsonlines.iter_json_lines_pushed", None),
        (jsonlines, "shred_json_lines", "call", "jsonlines.shred_json_lines",
         _note_batch),
        (columnar, "shred_records", "call", "columnar.shred_records", None),
        (columnar.ColumnBatch, "apply_predicates", "call",
         "columnar.apply_predicates", None),
        (columnar.MaskedBatch, "iter_boxed", "generator",
         "columnar.iter_boxed", None),
        (columnar.ColumnBatchCache, "get", "call", "columnar.cache_get",
         _note_cache),
        (rdd, "bucketize", "call", "shuffle.bucketize", _note_bucketize),
        (cluster.ExecutorPool, "run_stage", "stage", "cluster.run_stage",
         None),
        (admission.AdmissionController, "admit", "waiting",
         "admission.admit", None),
        (session.Session, "query", "call", "session.query", None),
        (service.QueryService, "execute", "coroutine", "service.execute",
         None),
        (handcoded, "filter_query", "call", "handcoded.filter_query", None),
        (handcoded, "group_query", "call", "handcoded.group_query", None),
    ]
