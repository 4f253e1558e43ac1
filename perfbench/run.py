"""End-to-end benchmark of the engine, with a traced per-layer run.

    python3 perfbench/run.py --workload scan-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: scan-cold, scan-warm, messy, serve (see README.md).  With
``--trace 0`` the run reports the end-to-end metrics, measured with no
instrumentation installed; with ``--trace 1`` it reports the per-layer
metrics of a traced run and how much the tracing itself cost.  Every
answer is checked against plain-``json`` oracles first.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The engine is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("scan-cold", "scan-warm", "messy", "serve")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: name -> unit, in the order they print.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "objects_per_s": "objects/s",
    "qps": "1/s",
    "handcoded_gap": "ratio",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}

PER_LAYER = {
    "parser.parse_ms": "ms",
    "static_analysis.analyse_ms": "ms",
    "compiler.compile_ms": "ms",
    "engine.query_ms": "ms",
    "runtime.eval_ms": "ms",
    "storage.read_ms": "ms",
    "storage.bytes_read": "bytes",
    "jsonlines.decode_ms": "ms",
    "jsonlines.rows": "count",
    "columnar.shred_ms": "ms",
    "columnar.mask_ms": "ms",
    "columnar.box_ms": "ms",
    "columnar.cache_hit_ratio": "ratio",
    "pushdown.pruned_ratio": "ratio",
    "columnar.taken_ratio": "ratio",
    "codegen.taken": "count",
    "codegen.fallback_ratio": "ratio",
    "shuffle.bucketize_ms": "ms",
    "shuffle.records": "count",
    "shuffle.bytes": "bytes",
    "cluster.run_stage_ms": "ms",
    "cluster.tasks": "count",
    "cluster.task_retries": "count",
    "admission.wait_ms": "ms",
    "session.query_ms": "ms",
    "service.execute_ms": "ms",
    "plan_cache.hit_ratio": "ratio",
    "result_cache.hit_ratio": "ratio",
    "handcoded.query_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: The fires-for-real self-check: each metric must be non-zero on the
#: workload where its layer does most of the work, or a wrapper stopped
#: matching.  ``cluster.task_retries`` and ``codegen.fallback_ratio``
#: count waste, which is zero on these clean, fault-free inputs.
HOME = {
    "parser.parse_ms": "serve",
    "static_analysis.analyse_ms": "serve",
    "compiler.compile_ms": "serve",
    "engine.query_ms": "serve",
    "runtime.eval_ms": "messy",
    "storage.read_ms": "scan-cold",
    "storage.bytes_read": "scan-cold",
    "jsonlines.decode_ms": "scan-cold",
    "jsonlines.rows": "scan-cold",
    "columnar.shred_ms": "scan-cold",
    "columnar.mask_ms": "scan-warm",
    "columnar.box_ms": "scan-warm",
    "columnar.cache_hit_ratio": "scan-warm",
    "pushdown.pruned_ratio": "scan-warm",
    "columnar.taken_ratio": "scan-warm",
    "codegen.taken": "serve",
    "shuffle.bucketize_ms": "scan-cold",
    "shuffle.records": "scan-cold",
    "shuffle.bytes": "scan-cold",
    "cluster.run_stage_ms": "scan-cold",
    "cluster.tasks": "scan-cold",
    "admission.wait_ms": "serve",
    "session.query_ms": "serve",
    "service.execute_ms": "serve",
    "plan_cache.hit_ratio": "serve",
    "result_cache.hit_ratio": "serve",
    "handcoded.query_ms": "scan-cold",
    "trace.overhead_ratio": "all",
}


def _bootstrap() -> None:
    """Import the engine from this checkout's ``src/`` or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no engine sources under {}\n".format(SRC))
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write("perfbench: imported repro from {}, not {}\n"
                         .format(repro.__file__, SRC))
        sys.exit(2)


def _make(name: str, workdir: str):
    import workloads

    if name == "serve":
        return workloads.Serve(workdir)
    if name == "messy":
        return workloads.Messy(workdir)
    return workloads.Scan(workdir, cold=name == "scan-cold")


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def _tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(name: str, workload, seed: int, seconds: float):
    setups = []
    for number in range(SETUPS):
        if number:
            workload.close()
        began = time.perf_counter()
        workload.setup(seed)
        setups.append(time.perf_counter() - began)
    workload.prepare_oracle()
    loop = workload.run(deadline=time.perf_counter() + seconds)
    gap = workload.gap(loop)
    workload.shutdown()
    latencies = [seconds_ for _, seconds_, _ in loop.queries]
    scanned = [(objects, seconds_) for _, seconds_, objects in loop.queries
               if objects]
    tail, percentile = _tail(latencies)
    qps = (len(latencies) / loop.wall if name == "serve"
           else len(latencies) / sum(latencies))
    metrics = {
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail,
        "objects_per_s": (sum(o for o, _ in scanned)
                          / sum(s for _, s in scanned)),
        "qps": qps,
        "handcoded_gap": gap,
        "setup_s": statistics.median(setups),
        "rss_peak_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "tail": "p{:.1f} of {} queries".format(percentile, len(latencies)),
        "failed_ratio": "{:.4f} ({} of {})".format(
            len(loop.failures) / len(latencies), len(loop.failures),
            len(latencies)),
    }
    return loop, metrics, END_TO_END, notes


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def per_layer(name: str, workload, seed: int, seconds: float):
    """Alternate untraced and traced slices of the same workload, so
    both see the same machine state; then harvest the counters."""
    from spans import Recorder
    from workloads import Loop

    workload.setup(seed)
    workload.prepare_oracle()
    before = workload.counter_state()
    recorder = Recorder()
    plain, traced = Loop(), Loop()
    deadline = time.perf_counter() + seconds
    pair = 0
    while time.perf_counter() < deadline:
        for tracing in ((False, True) if pair % 2 == 0 else (True, False)):
            if tracing:
                recorder.install()
            try:
                part = workload.run(limit=workload.chunk)
            finally:
                recorder.uninstall()
            (traced if tracing else plain).merge(part)
        pair += 1
    counters = workload.counters(before)
    workload.shutdown()
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    recorder.write(os.path.join(
        out, "spans-{}-seed{}.jsonl".format(name, seed)))

    queries = len(traced.queries)
    # The sessions count every request; a profiled rotation counts once.
    counters.setdefault("queries", queries + len(plain.queries))
    metrics = layer_metrics(recorder.totals(), queries, counters,
                            workload.objects)
    metrics["trace.overhead_ratio"] = traced.wall / plain.wall
    traced.merge(plain)
    for metric, home in HOME.items():
        if home in (name, "all") and not metrics[metric] > 0:
            traced.problems.append(
                "self-check: {} is 0 on {}".format(metric, name))
    notes = {"spans": str(len(recorder.spans)),
             "traced queries": str(queries)}
    return traced, metrics, PER_LAYER, notes


def layer_metrics(totals, queries, counters, objects):
    """Self time per query in ms, counts per query, ratios as ratios."""

    def total(names, field="self"):
        return sum(totals[n][field] for n in names if n in totals)

    def ms(*names):
        return 1000 * total(names) / queries

    def attr(name, key):
        return totals.get(name, {}).get("attrs", {}).get(key, 0)

    def calls(*names):
        return sum(totals[n]["calls"] for n in names if n in totals)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    count = counters.get
    pushed = count("rumble.pushdown.scans", 0)
    taken = count("rumble.codegen.taken", 0)
    handcoded = ("handcoded.filter_query", "handcoded.group_query")
    return {
        "parser.parse_ms": ms("parser.parse"),
        "static_analysis.analyse_ms": ms("static_analysis.analyse"),
        "compiler.compile_ms": ms("compiler.compile"),
        "engine.query_ms": ms("engine.query"),
        "runtime.eval_ms": ms("runtime.collect", "runtime.count",
                              "runtime.take"),
        "storage.read_ms": ms("storage.read_lines"),
        "storage.bytes_read": attr("storage.read_lines", "bytes") / queries,
        "jsonlines.decode_ms": ms("jsonlines.iter_json_lines",
                                  "jsonlines.iter_json_lines_pushed",
                                  "jsonlines.shred_json_lines"),
        "jsonlines.rows": (attr("jsonlines.iter_json_lines", "items")
                           + attr("jsonlines.iter_json_lines_pushed",
                                  "items")
                           + attr("jsonlines.shred_json_lines", "rows")
                           ) / queries,
        "columnar.shred_ms": ms("columnar.shred_records"),
        "columnar.mask_ms": ms("columnar.apply_predicates"),
        "columnar.box_ms": ms("columnar.iter_boxed"),
        "columnar.cache_hit_ratio": ratio(
            attr("columnar.cache_get", "hits"), calls("columnar.cache_get")),
        "pushdown.pruned_ratio": ratio(
            count("rumble.pushdown.records_pruned", 0), pushed * objects),
        "columnar.taken_ratio": ratio(
            count("rumble.columnar.scans", 0), pushed),
        "codegen.taken": ratio(taken, counters["queries"]),
        "codegen.fallback_ratio": ratio(
            count("rumble.codegen.fallback_rows", 0), taken * objects),
        "shuffle.bucketize_ms": ms("shuffle.bucketize"),
        "shuffle.records": attr("shuffle.bucketize", "records") / queries,
        # bucketize weighs pairs only when asked to; the profiled run does.
        "shuffle.bytes": ratio(count("rumble.shuffle.bytes", 0),
                               counters["queries"]),
        "cluster.run_stage_ms": ms("cluster.run_stage"),
        "cluster.tasks": attr("cluster.run_stage", "tasks") / queries,
        "cluster.task_retries": attr("cluster.run_stage", "retries")
        / queries,
        "admission.wait_ms": 1000 * total(["admission.admit"], "active")
        / queries,
        "session.query_ms": ms("session.query"),
        "service.execute_ms": ms("service.execute"),
        "plan_cache.hit_ratio": ratio(
            count("plan_cache.hits", 0),
            count("plan_cache.hits", 0) + count("plan_cache.misses", 0)),
        "result_cache.hit_ratio": ratio(
            count("result_cache.hits", 0),
            count("result_cache.hits", 0) + count("result_cache.misses", 0)),
        "handcoded.query_ms": ratio(1000 * total(handcoded),
                                    calls(*handcoded)),
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _row(name: str, metrics: dict, notes: dict) -> str:
    cells = ["{} {:.6g} {}".format(metric, entry["value"], entry["unit"])
             for metric, entry in metrics.items()]
    cells += ["{}: {}".format(key, value) for key, value in notes.items()]
    return "{:<10} | {}".format(name, " | ".join(cells))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads  # noqa: F401  (imports the engine before timing)

    workdir = os.path.join(ROOT, ".perfbench_tmp",
                           "{}-{}".format(name, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    # Anything the engine spills goes inside the checkout too.
    tempfile.tempdir = workdir
    workload = _make(name, workdir)
    try:
        measure = per_layer if trace else end_to_end
        loop, values, units, notes = measure(name, workload, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))
    for line in loop.failures[:20] + loop.problems:
        sys.stderr.write("perfbench: {}: {}\n".format(name, line))
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in units.items()}
    print(_row(name, metrics, notes))
    return {
        "correct": not loop.failures and not loop.problems,
        "attempted": len(loop.queries),
        "failed": len(loop.failures),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise SystemExit("perfbench: {} exited with {}".format(
                name, child.returncode))
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"]["{}/{}".format(name, metric)] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    _bootstrap()
    if arguments.workload == "all":
        result = run_all(arguments.seed, arguments.seconds,
                         bool(arguments.trace))
    else:
        result = run_one(arguments.workload, arguments.seed,
                         arguments.seconds, bool(arguments.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
