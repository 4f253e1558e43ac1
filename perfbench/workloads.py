"""The four workloads: set-up, the measured loop and its checks.

Every workload object has the same shape:

* ``setup(seed)`` writes the input file, builds the engine (or the
  service) and warms it up; ``setup_s`` times exactly this;
* ``prepare_oracle()`` computes the expected answers (oracles.py);
* ``run(deadline=..., limit=...)`` runs queries until the deadline or
  until ``limit`` more queries ran, continuing where the previous call
  stopped, and returns a ``Loop`` of timed, checked queries;
* ``gap(loop)`` is the ``handcoded_gap`` of those queries;
* ``counters(counter_state())`` returns the ``rumble.*`` counters of the
  queries run in between, for the per-layer ratios;
* ``close()`` releases one set-up, ``shutdown()`` the last one.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import statistics
import time
from typing import Dict, List, Optional

import inputs
import oracles
from spans import REQUEST

from repro.baselines import handcoded
from repro.bench.workloads import make_rumble_engine
from repro.items.columnar import BATCH_CACHE
from repro.jsoniq.errors import JsoniqException

_now = time.perf_counter


class Loop:
    """What one or more measured loops did."""

    def __init__(self):
        #: (kind, seconds, objects scanned; 0 for an expected error)
        self.queries: List[tuple] = []
        #: One line per failed query: error, wrong answer or wrong code.
        self.failures: List[str] = []
        #: Anything else wrong, such as a baseline disagreeing.
        self.problems: List[str] = []
        #: kind -> seconds of the hand-written code on the same query
        self.baseline: Dict[str, List[float]] = {}
        self.wall = 0.0

    def record(self, kind: str, seconds: float, objects: int,
               failure: Optional[str]) -> None:
        self.queries.append((kind, seconds, objects))
        if failure is not None:
            self.failures.append("{}: {}".format(kind, failure))

    def merge(self, other: "Loop") -> None:
        self.queries.extend(other.queries)
        self.failures.extend(other.failures)
        self.problems.extend(other.problems)
        for kind, samples in other.baseline.items():
            self.baseline.setdefault(kind, []).extend(samples)
        self.wall += other.wall

    def seconds_by_kind(self) -> Dict[str, List[float]]:
        by_kind: Dict[str, List[float]] = {}
        for kind, seconds, _ in self.queries:
            by_kind.setdefault(kind, []).append(seconds)
        return by_kind


def _gap(rumble: Dict[str, List[float]],
         baseline: Dict[str, List[float]]) -> float:
    """Sum over the baseline's kinds of Rumble's median time, over the
    same sum for the hand-written code."""
    return (sum(statistics.median(rumble[kind]) for kind in baseline)
            / sum(statistics.median(samples)
                  for samples in baseline.values()))


# ---------------------------------------------------------------------------
# scan-cold, scan-warm and messy: one client, a fixed rotation of queries
# ---------------------------------------------------------------------------

class Rotation:
    """A single client running a fixed rotation of queries.  After each
    full rotation it times the hand-written code on the ``compared``
    queries, so both sides see the same machine state."""

    objects = 0
    rotation: tuple = ()
    compared: tuple = ()

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.engine = None
        #: Queries per traced or untraced slice of a ``--trace 1`` run.
        self.chunk = len(self.rotation)

    # -- what each workload defines ---------------------------------------------
    def write_input(self, path: str, seed: int) -> None:
        raise NotImplementedError

    def texts(self, path: str) -> Dict[str, str]:
        raise NotImplementedError

    def answer(self, kind: str, result):
        """The part of Rumble's result the oracle predicts."""
        raise NotImplementedError

    def expected(self, records) -> Dict[str, object]:
        raise NotImplementedError

    def baseline(self, kind: str):
        raise NotImplementedError

    def before_query(self) -> None:
        pass

    # -- shared machinery ---------------------------------------------------------
    def setup(self, seed: int) -> None:
        self.path = os.path.join(self.workdir, "input.jsonl")
        self.write_input(self.path, seed)
        self.engine = make_rumble_engine()
        self.query_texts = self.texts(self.path)
        for kind in dict.fromkeys(self.rotation):
            self._query(kind)
        self.position = 0
        self.sent = 0

    def prepare_oracle(self) -> None:
        self.answers = self.expected(oracles.load(self.path))

    def _query(self, kind: str):
        """(seconds, answer, error code) of one query."""
        self.before_query()
        started = _now()
        try:
            answer = self.answer(kind, self.engine.query(
                self.query_texts[kind]))
        except JsoniqException as error:
            return _now() - started, None, error.code
        except Exception as error:  # counted as a failed query
            return _now() - started, None, type(error).__name__
        return _now() - started, answer, None

    def _check(self, kind: str, answer, code) -> Optional[str]:
        wanted = inputs.MESSY_ERRORS.get(kind)
        if wanted is not None:
            if code != wanted:
                return "expected error {}, got {}".format(
                    wanted, code or "no error")
            return None
        if code is not None:
            return "unexpected error " + code
        if answer != self.answers[kind]:
            return "wrong answer"
        return None

    def run(self, deadline: Optional[float] = None,
            limit: Optional[int] = None) -> Loop:
        loop = Loop()
        started = _now()
        done = 0
        while not ((limit is not None and done >= limit) or (
                deadline is not None and _now() >= deadline)):
            kind = self.rotation[self.position]
            REQUEST.set(self.sent)
            seconds, answer, code = self._query(kind)
            scanned = 0 if kind in inputs.MESSY_ERRORS else self.objects
            loop.record(kind, seconds, scanned,
                        self._check(kind, answer, code))
            done += 1
            self.sent += 1
            self.position = (self.position + 1) % len(self.rotation)
            if self.position == 0:
                self._run_baselines(loop)
        loop.wall = _now() - started
        return loop

    def _run_baselines(self, loop: Loop) -> None:
        REQUEST.set("baseline")
        for kind in self.compared:
            began = _now()
            answer = self.baseline(kind)
            loop.baseline.setdefault(kind, []).append(_now() - began)
            if answer != self.answers[kind]:
                loop.problems.append(kind + ": baseline disagrees")

    def gap(self, loop: Loop) -> float:
        return _gap(loop.seconds_by_kind(), loop.baseline)

    def counter_state(self) -> Dict[str, int]:
        return {}

    def counters(self, before: Dict[str, int]) -> Dict[str, int]:
        """Each distinct non-error query once more under
        ``Rumble.profile()``; that run is used for its counts only."""
        totals = {"queries": 0}
        for kind in dict.fromkeys(self.rotation):
            if kind in inputs.MESSY_ERRORS:
                continue
            self.before_query()
            report = self.engine.profile(self.query_texts[kind])
            for name, value in report.metrics["counters"].items():
                totals[name] = totals.get(name, 0) + value
            totals["queries"] += 1
        return totals

    def close(self) -> None:
        """Drop this set-up's engine and the batches it cached."""
        self.engine = None
        BATCH_CACHE.clear()

    shutdown = close


class Scan(Rotation):
    objects = inputs.SCAN_OBJECTS
    rotation = inputs.SCAN_KINDS
    compared = ("filter", "group")

    def __init__(self, workdir: str, cold: bool):
        super().__init__(workdir)
        self.cold = cold

    def write_input(self, path: str, seed: int) -> None:
        inputs.write_scan_input(path, seed)

    def texts(self, path: str) -> Dict[str, str]:
        return inputs.scan_texts(path)

    def before_query(self) -> None:
        if self.cold:
            BATCH_CACHE.clear()

    def answer(self, kind: str, result):
        if kind == "filter":
            (count,) = result.to_python()
            return count
        if kind == "group":
            return {(row["country"], row["target"]): row["count"]
                    for row in result.to_python()}
        return [(row["target"], row["country"], row["date"])
                for row in (item.to_python() for item in result.take(10))]

    def expected(self, records) -> Dict[str, object]:
        return {kind: oracles.SCAN[kind](records)
                for kind in inputs.SCAN_KINDS}

    def baseline(self, kind: str):
        if kind == "filter":
            return handcoded.filter_query(self.path)
        return handcoded.group_query(self.path)


class Messy(Rotation):
    objects = inputs.MESSY_OBJECTS
    rotation = inputs.MESSY_ROTATION
    compared = ("group", "typeswitch")

    def write_input(self, path: str, seed: int) -> None:
        inputs.write_messy_input(path, seed)

    def texts(self, path: str) -> Dict[str, str]:
        return inputs.messy_texts(path)

    def answer(self, kind: str, result):
        rows = result.to_python()
        if kind == "group":
            return {row["country"]: row["count"] for row in rows}
        if kind in ("typeswitch", "error"):
            (count,) = rows
            return count
        return rows

    def expected(self, records) -> Dict[str, object]:
        return {kind: oracle(records)
                for kind, oracle in oracles.MESSY.items()}

    def baseline(self, kind: str):
        # The hand-written yardstick for messy data is the oracle itself:
        # plain json plus Python, reading the same file.
        return oracles.MESSY[kind](oracles.load(self.path))


# ---------------------------------------------------------------------------
# serve: closed loop, two clients, one tenant each
# ---------------------------------------------------------------------------

#: Expected answers ``serve`` keeps; repeats reach back only a few
#: requests (inputs.REPEAT_WINDOW).
ANSWERS_KEPT = 64

#: Requests per client between two baseline samples of ``serve``.
ROUND = {client: 3 * len(inputs.SERVE_BLOCK)
         for client in range(inputs.SERVE_CLIENTS)}


class Serve:
    """``QueryService`` configured with the ``repro serve`` defaults."""

    objects = inputs.SERVE_OBJECTS
    #: Requests per client per traced or untraced slice: one block.
    chunk = {client: len(inputs.SERVE_BLOCK)
             for client in range(inputs.SERVE_CLIENTS)}

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.service = None
        self.loop = asyncio.new_event_loop()

    def _run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def setup(self, seed: int) -> None:
        self.path = os.path.join(self.workdir, "input.jsonl")
        inputs.write_serve_input(self.path, seed)
        self.streams = [inputs.serve_requests(seed, client)
                        for client in range(inputs.SERVE_CLIENTS)]
        self.sent = [0] * inputs.SERVE_CLIENTS
        self.first: Dict[str, tuple] = {}
        self._run(self._start(seed))

    async def _start(self, seed: int) -> None:
        from repro.__main__ import build_serve_parser
        from repro.core.config import RumbleConfig
        from repro.server.service import QueryService

        defaults = build_serve_parser().parse_args([])
        self.service = QueryService(
            max_concurrent=defaults.max_concurrent,
            tenant_quota=defaults.tenant_quota,
            queue_limit=defaults.queue_limit,
            default_timeout=defaults.timeout,
            executors=defaults.executors,
            parallelism=defaults.parallelism,
            session_config=RumbleConfig(
                materialization_cap=defaults.cap,
                plan_cache_size=defaults.plan_cache,
                result_cache_size=defaults.result_cache,
            ),
            result_cap=defaults.cap,
            drain_timeout=defaults.drain_timeout,
        )
        # Worker threads do not inherit the caller's context variables;
        # copy them so spans recorded there carry the request id.
        pool = self.service._pool
        submit = pool.submit
        pool.submit = lambda fn, *args: submit(
            contextvars.copy_context().run, fn, *args)
        # Warm-up: one block per tenant from a stream the measured
        # clients never draw from.
        warm = inputs.serve_requests(-1 - seed, 0)
        for tenant in inputs.SERVE_TENANTS:
            for _ in inputs.SERVE_BLOCK:
                payload = await self.service.execute(
                    tenant, inputs.serve_text(self.path, next(warm)))
                if payload.get("status") != 200:
                    raise RuntimeError("warm-up failed: {}".format(payload))

    def prepare_oracle(self) -> None:
        self.records = oracles.load(self.path)
        self.answers: Dict[tuple, object] = {}

    def _expected(self, request):
        if request not in self.answers:
            if len(self.answers) >= ANSWERS_KEPT:
                # Keep the benchmark's own memory flat, so that
                # rss_peak_mb does not grow with the run length.
                self.answers.clear()
            self.answers[request] = oracles.serve_answer(
                self.records, request, inputs.UDF_LETS)
        return self.answers[request]

    def _check(self, request, payload) -> Optional[str]:
        if payload.get("status") != 200:
            return "status {} {}".format(
                payload.get("status"), payload.get("error"))
        items = payload["items"]
        if request[0] == "group":
            items = {row["country"]: row["count"] for row in items}
        return None if items == self._expected(request) else "wrong answer"

    def run(self, deadline: Optional[float] = None,
            limit: Optional[Dict[int, int]] = None) -> Loop:
        """Closed loop: each client sends its next request only after
        the reply to the previous one arrived.  The loop runs in rounds
        of ``limit`` (default ``ROUND``) requests per client; after each
        round, with no request in flight, the hand-written code answers
        one request of each family, so both sides of ``handcoded_gap``
        see the same machine state.  Only rounds count towards wall."""
        loop = Loop()
        while not (deadline is not None and _now() >= deadline):
            loop.merge(self._run(self._round(deadline, limit or ROUND)))
            self._run_baselines(loop)
            if limit is not None:
                break
        return loop

    async def _round(self, deadline, limit) -> Loop:
        done: List[tuple] = []

        async def client(number: int) -> None:
            tenant = inputs.SERVE_TENANTS[number]
            for _ in range(limit[number]):
                if deadline is not None and _now() >= deadline:
                    return
                request = next(self.streams[number])
                REQUEST.set("{}-{}".format(number, self.sent[number]))
                began = _now()
                payload = await self.service.execute(
                    tenant, inputs.serve_text(self.path, request))
                done.append((request, _now() - began, payload))
                self.sent[number] += 1

        loop = Loop()
        started = _now()
        await asyncio.gather(
            *(client(n) for n in range(inputs.SERVE_CLIENTS)))
        loop.wall = _now() - started
        for request, seconds, payload in done:
            self.first.setdefault(request[0], request)
            loop.record(request[0], seconds, self.objects,
                        self._check(request, payload))
        return loop

    def _run_baselines(self, loop: Loop) -> None:
        REQUEST.set("baseline")
        for family, request in self.first.items():
            began = _now()
            answer = oracles.serve_answer(
                oracles.load(self.path), request, inputs.UDF_LETS)
            loop.baseline.setdefault(family, []).append(_now() - began)
            if answer != self._expected(request):
                loop.problems.append(family + ": baseline disagrees")

    def gap(self, loop: Loop) -> float:
        """The median request time over the time hand-written code takes
        to answer one request from the file (the mean over the families
        of each family's median)."""
        baseline = statistics.mean(
            statistics.median(samples) for samples in loop.baseline.values())
        return (statistics.median(seconds for _, seconds, _ in loop.queries)
                / baseline)

    def counter_state(self) -> Dict[str, int]:
        return self._run(self._counter_state())

    async def _counter_state(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}

        def add(name, value):
            totals[name] = totals.get(name, 0) + value

        for tenant in inputs.SERVE_TENANTS:
            session = await self.service.session(tenant)
            for name, value in session.obs.metrics.snapshot()[
                    "counters"].items():
                add(name, value)
            for cache, stats in session.cache_stats().items():
                for name in ("hits", "misses"):
                    add("{}.{}".format(cache, name), stats[name])
        return totals

    def counters(self, before: Dict[str, int]) -> Dict[str, int]:
        """The sessions' own counters, over the requests since
        ``before`` was taken."""
        after = self.counter_state()
        return {name: value - before.get(name, 0)
                for name, value in after.items()}

    def close(self) -> None:
        if self.service is not None:
            self._run(self.service.close())
            self.service = None
        BATCH_CACHE.clear()

    def shutdown(self) -> None:
        self.close()
        self.loop.close()
