"""Seeded inputs of the four workloads: the files and the query texts.

Everything here is a pure function of the seed.  The program under test
only ever sees the generated JSON-Lines files and the query strings.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Tuple

from repro.bench.workloads import RUMBLE_QUERIES
from repro.datasets import write_confusion, write_heterogeneous
from repro.datasets.language_game import COUNTRIES, LANGUAGES

#: Objects per generated file, small enough that one run holds well over
#: eleven samples of its slowest query kind, so ``latency_tail_ms`` (the
#: 11th-slowest query) always falls on that kind.
SCAN_OBJECTS = 12_000
MESSY_OBJECTS = 3_000
SERVE_OBJECTS = 4_000

#: The paper's Figure 11 queries, in the order ``scan-*`` rotate them.
SCAN_KINDS = ("filter", "group", "sort")

#: Messy queries (paper Figures 5 and 7).  ``error`` must fail with
#: XPTY0004: ``country`` is an array in some objects.
MESSY_TEXTS = {
    "group": (
        'for $o in json-file("{path}")\n'
        'group by $c := ($o.country[], $o.country, "USA")[1]\n'
        'return {{ "country": $c, "count": count($o) }}'
    ),
    "typeswitch": (
        'count(for $o in json-file("{path}")\n'
        'where (typeswitch ($o.bar)\n'
        '       case $n as integer return $n\n'
        '       case $a as array return $a[[1]]\n'
        '       default return -1) gt 50\n'
        'return $o)'
    ),
    "map": (
        'for $o in json-file("{path}")\n'
        'where $o.foo eq "3"\n'
        'return {{ "t": $o.target, "c": [ $o.country[] ], "b": $o.bar }}'
    ),
    "error": (
        'count(for $o in json-file("{path}")\n'
        'where $o.country eq "US"\n'
        'return $o)'
    ),
}

#: One rotation of ``messy``: three of each query, one expected error.
MESSY_ROTATION = ("group", "typeswitch", "map") * 3 + ("error",)

#: The error code each expected-error query must carry.
MESSY_ERRORS = {"error": "XPTY0004"}

#: ``serve``: two closed-loop clients, one tenant each.
SERVE_CLIENTS = 2
SERVE_TENANTS = ("alpha", "beta")

#: One block of a client's request stream, shuffled per block: five
#: each of a single-predicate count, a filtered group-by and the
#: report, one conjunctive count (the slow row scan), and four exact
#: repeats of recent requests (a dashboard refresh).
SERVE_BLOCK = ("count", "group", "report") * 5 + ("conjunction",) + (
    "repeat",) * 4


def write_scan_input(path: str, seed: int) -> str:
    return write_confusion(path, SCAN_OBJECTS, seed=seed)


def write_messy_input(path: str, seed: int) -> str:
    return write_heterogeneous(path, MESSY_OBJECTS, seed=seed)


def write_serve_input(path: str, seed: int) -> str:
    return write_confusion(path, SERVE_OBJECTS, seed=seed)


def scan_texts(path: str) -> Dict[str, str]:
    return {kind: RUMBLE_QUERIES[kind].format(path=path)
            for kind in SCAN_KINDS}


def messy_texts(path: str) -> Dict[str, str]:
    return {kind: text.format(path=path)
            for kind, text in MESSY_TEXTS.items()}


# ---------------------------------------------------------------------------
# serve: a seeded stream of (family, literals) requests per client
# ---------------------------------------------------------------------------

#: The compile-heavy report's prolog: sixteen UDFs of 25 chained lets,
#: the "report library" shape of benchmarks/test_throughput_gate.py.
UDF_COUNT = 16
UDF_LETS = 24


def _udf(n: int) -> str:
    lets = " ".join(
        "let $a{} := $a{} * 2 + {}".format(i, i - 1, i)
        for i in range(1, UDF_LETS + 1)
    )
    return (
        "declare function local:f{n}($x) {{ let $a0 := $x + {n} "
        + lets + " return $a{last} }};"
    ).format(n=n, last=UDF_LETS)


PROLOG = "\n".join(_udf(n) for n in range(UDF_COUNT))

#: Reports in use: (function, UDF argument, region).  The plan cache
#: keys on comparison literals, so the four (function, region) pairs
#: are four plans, and the argument is a parameter of each.  The set is
#: small so that every report has been seen early in a run: each
#: distinct text holds a large entry in the plan cache's exact-text
#: memo, and a set that kept growing would make ``rss_peak_mb`` depend
#: on how many requests the run completed.
REPORTS = [(function, argument, country) for function in range(2)
           for argument in range(3) for country in COUNTRIES[:2]]

#: A request: its family and its literals (enough for the oracle).
Request = Tuple[str, Tuple]


def serve_text(path: str, request: Request) -> str:
    family, literals = request
    if family == "count":
        (target,) = literals
        return (
            'count(for $i in json-file("{}") where $i.target eq "{}" '
            'return $i)'.format(path, target)
        )
    if family == "conjunction":
        (target,) = literals
        return (
            'count(for $i in json-file("{}") where $i.target eq "{}" '
            'and $i.guess ne $i.target return $i)'.format(path, target)
        )
    if family == "group":
        (target,) = literals
        return (
            'for $i in json-file("{}") where $i.target eq "{}" '
            'group by $c := $i.country '
            'return {{ "country": $c, "count": count($i) }}'
            .format(path, target)
        )
    if family == "report":
        function, argument, country = literals
        return (
            PROLOG + '\n{{ "score": local:f{}({}), "rows": [ '
            'for $i in json-file("{}") where $i.country eq "{}" '
            'return {{ "g": $i.guess, "t": $i.target }} ] }}'
            .format(function, argument, path, country)
        )
    raise ValueError("unknown serve family {!r}".format(family))


def serve_requests(seed: int, client: int) -> Iterator[Request]:
    """An endless seeded request stream for one client.

    Each block of ``SERVE_BLOCK`` is shuffled, so every run sees the
    same family mix whatever its length.  Each family walks seeded
    permutations of its literals, one after another, so which texts
    recur depends on the run length, never on chance; a repeat
    re-sends one of the client's last ``REPEAT_WINDOW`` requests.
    """
    rng = random.Random("serve-{}-{}".format(seed, client))
    cycles = {family: _cycle(rng, literals)
              for family, literals in _LITERALS.items()}
    recent = []
    while True:
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        for family in block:
            if family == "repeat" and recent:
                yield rng.choice(recent)
                continue
            if family == "repeat":  # nothing sent yet
                family = "count"
            request = (family, next(cycles[family]))
            recent = (recent + [request])[-REPEAT_WINDOW:]
            yield request


#: How far back a dashboard refresh reaches.
REPEAT_WINDOW = 8

_LITERALS = {
    "count": [(language,) for language in LANGUAGES],
    "conjunction": [(language,) for language in LANGUAGES],
    "group": [(language,) for language in LANGUAGES],
    "report": REPORTS,
}


def _cycle(rng: random.Random, literals) -> Iterator[Tuple]:
    while True:
        order = list(literals)
        rng.shuffle(order)
        yield from order
