"""Expected answers, computed with plain ``json`` and Python only.

Nothing here imports the engine: each oracle reads the generated file
itself, so a wrong answer from Rumble cannot also be the expected one.
Each answer is in the shape the benchmark extracts from Rumble's
result (see ``normalize`` in workloads.py).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Tuple


def load(path: str) -> List[object]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# -- scan-cold / scan-warm: the Figure 11 queries ---------------------------

def scan_filter(records) -> int:
    return sum(1 for r in records if r["guess"] == r["target"])


def scan_group(records) -> Dict[Tuple, int]:
    return dict(Counter((r["country"], r["target"]) for r in records))


def scan_sort(records) -> List[Tuple]:
    """Top-10 ``(target, country, date)`` of the correct guesses under
    ``order by target ascending, country descending, date descending``."""
    keys = [(r["target"], r["country"], r["date"])
            for r in records if r["guess"] == r["target"]]
    # Stable sorts, least significant key first.
    keys.sort(key=lambda k: k[2], reverse=True)
    keys.sort(key=lambda k: k[1], reverse=True)
    keys.sort(key=lambda k: k[0])
    return keys[:10]


SCAN = {"filter": scan_filter, "group": scan_group, "sort": scan_sort}


# -- messy: Figures 5 and 7 -------------------------------------------------

def _first_country(record):
    """``($o.country[], $o.country, "USA")[1]``: an array's first member,
    else the value itself (string or null), else the default."""
    if "country" not in record:
        return "USA"
    country = record["country"]
    if type(country) is list:
        return country[0] if country else "USA"
    return country


def messy_group(records) -> Dict[object, int]:
    return dict(Counter(_first_country(r) for r in records))


def _bar_number(bar):
    if type(bar) is int:
        return bar
    if type(bar) is list:
        return bar[0] if bar else None
    return -1


def messy_typeswitch(records) -> int:
    count = 0
    for record in records:
        value = _bar_number(record.get("bar"))
        if value is not None and value > 50:
            count += 1
    return count


def messy_map(records) -> List[dict]:
    rows = []
    for record in records:
        if record.get("foo") != "3":
            continue
        country = record.get("country")
        rows.append({
            "t": record["target"],
            "c": list(country) if type(country) is list else [],
            "b": record["bar"],
        })
    return rows


MESSY = {
    "group": messy_group,
    "typeswitch": messy_typeswitch,
    "map": messy_map,
}


# -- serve: the four request families ---------------------------------------

def udf(function: int, argument: int, lets: int) -> int:
    """``local:f<function>(<argument>)`` of inputs.PROLOG."""
    value = argument + function
    for i in range(1, lets + 1):
        value = value * 2 + i
    return value


def serve_answer(records, request, lets: int):
    family, literals = request
    if family == "count":
        (target,) = literals
        return [sum(1 for r in records if r["target"] == target)]
    if family == "conjunction":
        (target,) = literals
        return [sum(1 for r in records
                    if r["target"] == target and r["guess"] != target)]
    if family == "group":
        (target,) = literals
        return dict(Counter(r["country"] for r in records
                            if r["target"] == target))
    if family == "report":
        function, argument, country = literals
        return [{
            "score": udf(function, argument, lets),
            "rows": [{"g": r["guess"], "t": r["target"]}
                     for r in records if r["country"] == country],
        }]
    raise ValueError("unknown serve family {!r}".format(family))
