"""The repository's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve-fresh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run it from the repository root: the program under test is imported
from ``src/`` and receives only inputs this benchmark generates from
``--seed``.  The workloads (``BENCHMARK.json`` says why each exists):

* ``serve-fresh`` (``serve_fresh.py``) -- the read path alone;
* ``ingest-durable`` (``ingest_durable.py``) -- the write path alone;
* ``live-mixed`` (``live_mixed.py``) -- writes beside reads on a
  2-worker fleet.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is a
separate run: it wraps the benchmark's calls into each layer in spans
(``tracer.py``, ``layers.py``), turns on the program's own metrics
registry, and reports the per-layer metrics instead.  Every run checks
its answers; a wrong one fails the run (exit code 1, ``"correct":
false``).

Every workload reports every metric ``BENCHMARK.json`` lists, so the
end-to-end names there are workload-neutral; each workload's own names
(``query_p99_ms``, ``restore_s``, ...) are printed with their units above
the result line and kept in the raw record (see ``catalog.py``).
Timings of CPU-bound phases are scaled for the shared host's load by a
speed probe ticked between the timed steps (``common.SpeedProbe``); the
raw record keeps the wall-clock timings and the probe's samples.  The
tracing overhead is measured, not modelled: the table puts each
untraced median beside the traced one whenever the results directory
holds both kinds of run (``--self-check`` always makes both).

Report pipeline, run -> CSV -> table: each run writes its raw record to
``<results>/raw/`` (a traced run its spans to ``<results>/spans/`` too),
rebuilds ``<results>/results.csv`` (``to_csv.py``) and prints the
per-layer table of its workload (``table.py``).  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_RESULTS = os.path.join(HERE, "results")
MODULES = {
    "serve-fresh": "serve_fresh",
    "ingest-durable": "ingest_durable",
    "live-mixed": "live_mixed",
}
SELF_CHECK_SECONDS = 3.0
#: Reported in place of a non-finite value (a latency whose rank fell on
#: a shed request), which JSON cannot carry.
NON_FINITE = 1e12


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the summary pipeline."
    )
    parser.add_argument("--workload", choices=list(MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="seconds to measure (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=DEFAULT_RESULTS,
                        help="directory for raw records, CSV and spans")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload briefly, traced and "
                             "untraced, and verify every metric and unit")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_check):
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _metric(value, unit):
    value = float(value)
    return {"value": value if math.isfinite(value) else NON_FINITE,
            "unit": unit}


def _plain(value):
    """JSON fallback for NumPy scalars and arrays in raw records."""
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


def run_workload(workload, seed, seconds, trace, results, spec):
    """Run one workload in this process; returns its raw record.

    A run shorter than ``spec["run_seconds"]`` shrinks its inputs in
    proportion (``scale``), so a self-check stays brief.
    """
    import common
    from repro import obs
    from tracer import Tracer

    # The program's registry is on exactly in the traced run, whatever
    # the environment says: an untraced run pays for no telemetry.
    obs.set_registry(obs.MetricsRegistry(enabled=trace))
    tracer = Tracer(trace)
    workdir = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    try:
        out = importlib.import_module(MODULES[workload]).run(
            seed=seed,
            seconds=seconds,
            scale=min(1.0, seconds / spec["run_seconds"]),
            tracer=tracer,
            workdir=workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - started
    named = out["named"]
    record = {
        "context": {
            **common.run_context(workload, seed, seconds, trace),
            **out.get("context", {}),
            "run_wall_s": wall,
        },
        "correct": all(out["checks"].values()),
        "checks": out["checks"],
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "named": {
            name: _metric(value, catalog.NAMED[name][0])
            for name, value in named.items()
        },
        "e2e": {
            name: _metric(named[catalog.source(workload, name)], unit)
            for name, unit in spec["e2e"].items()
        },
        "info": out.get("info", {}),
    }
    if trace:
        values = dict.fromkeys(spec["layers"], 0.0)
        values.update(
            (name, value) for name, value in out["layers"].items()
            if name in spec["layers"]
        )
        record["layers"] = {
            name: _metric(values[name], unit)
            for name, unit in spec["layers"].items()
        }
        record["shares"] = {
            name: _metric(share, "ratio")
            for name, share in out.get("shares", {}).items()
        }
        spans_dir = os.path.join(results, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"{workload}_seed{seed}.json")
        tracer.dump(path)
        record["spans_file"] = os.path.relpath(path)
    return record


def _print_summary(record):
    ctx = record["context"]
    print(f"== perfbench {ctx['workload']}  seed={ctx['seed']}  "
          f"seconds={ctx['seconds']:g}  trace={ctx['trace']} ==")
    where = ""
    if "store_fs" in ctx:
        where = f", store on {ctx['store_fs']} ({ctx['flush_policy']})"
    print(f"cpus {ctx['cpus_usable']} usable of {ctx['cpu_count']}, "
          f"python {ctx['python']}, numpy {ctx['numpy']}, "
          f"commit {ctx['commit'][:12]}{where}")
    for name, entry in record["named"].items():
        print(f"  {name:<22} {entry['value']:>16.6g}  {entry['unit']}")
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(f"  attempted {record['attempted']}, failed {record['failed']}, "
          f"run {ctx['run_wall_s']:.1f} s")


def _self_check(spec):
    """Every workload briefly, untraced and traced: names and units."""
    problems = []
    results = os.path.join(DEFAULT_RESULTS, "self-check")
    shutil.rmtree(results, ignore_errors=True)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            where = f"{workload} trace={trace}"
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "1",
                 "--seconds", str(SELF_CHECK_SECONDS),
                 "--trace", str(trace), "--results", results],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-800:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            wanted = spec["layers" if trace else "e2e"]
            got = {n: m["unit"] for n, m in line["metrics"].items()}
            if got != wanted:
                problems.append(
                    f"{where}: result metrics or units differ: "
                    f"{sorted(set(got.items()) ^ set(wanted.items()))}"
                )
            raw = os.path.join(results, "raw",
                               f"{workload}_seed1_trace{trace}.json")
            with open(raw) as fh:
                named = json.load(fh)["named"]
            for name, (unit, owners) in catalog.NAMED.items():
                if workload in owners and named.get(name, {}).get("unit") != unit:
                    problems.append(f"{where}: {name} missing or not in {unit}")
            print(f"self-check {where}: ran in "
                  f"{time.perf_counter() - started:.1f} s", flush=True)
    import table
    import to_csv

    print(table.render(table.load(to_csv.build(results))))
    for problem in problems:
        print("self-check: " + problem, file=sys.stderr)
    if problems:
        return 1
    print("self-check: every metric present with its unit")
    return 0


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: no src/repro under the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    spec = catalog.load_spec()
    if args.self_check:
        return _self_check(spec)
    seconds = args.seconds or spec["run_seconds"]
    record = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace), args.results, spec)
    raw_dir = os.path.join(args.results, "raw")
    os.makedirs(raw_dir, exist_ok=True)
    raw = os.path.join(
        raw_dir, f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    )
    with open(raw, "w") as fh:
        json.dump(record, fh, indent=1, default=_plain)
    import table
    import to_csv

    rows = table.load(to_csv.build(args.results))
    _print_summary(record)
    if args.trace:
        print(table.render(rows, args.workload))
    line = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["layers" if args.trace else "e2e"],
    }
    print(json.dumps(line), flush=True)
    if not record["correct"]:
        wrong = [name for name, ok in record["checks"].items() if not ok]
        print(f"perfbench: WRONG ANSWERS ({', '.join(wrong)})",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
