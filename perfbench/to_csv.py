"""Report step 2 of 3 (run -> CSV -> table): raw records to one CSV.

    python3 perfbench/to_csv.py [RESULTS_DIR]

Reads every ``RESULTS_DIR/raw/*.json`` record (default
``perfbench/results``) and writes ``RESULTS_DIR/results.csv`` with one
row per run and metric.  ``run.py`` calls this after every run.
"""

from __future__ import annotations

import csv
import glob
import json
import os
import sys

FIELDS = ("workload", "seed", "trace", "kind", "metric", "value", "unit")
#: Record sections holding metrics: the result line's end-to-end names,
#: the workload's own names, per-layer metrics, per-layer time shares.
KINDS = ("e2e", "named", "layers", "shares")


def build(results_dir):
    """Rewrite ``results.csv`` from the raw records; returns its path."""
    rows = []
    for path in sorted(glob.glob(os.path.join(results_dir, "raw", "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        ctx = record["context"]
        for kind in KINDS:
            for metric, entry in sorted(record.get(kind, {}).items()):
                rows.append((ctx["workload"], ctx["seed"], ctx["trace"],
                             kind, metric, entry["value"], entry["unit"]))
    out = os.path.join(results_dir, "results.csv")
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELDS)
        writer.writerows(rows)
    return out


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    default = os.path.join(here, "results")
    print(build(sys.argv[1] if len(sys.argv) > 1 else default))
