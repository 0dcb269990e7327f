"""Report step 3 of 3 (run -> CSV -> table): the per-layer table.

    python3 perfbench/table.py [RESULTS_DIR] [--workload NAME]

For each workload with traced runs in ``RESULTS_DIR/results.csv``: every
per-layer metric (median over traced runs); for ``ingest-durable`` each
layer's self time as a share of the ingest wall time and the share the
self times leave uncovered; and every end-to-end metric untraced beside
traced -- the tracing overhead -- when both kinds of run are present.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
from collections import defaultdict


def load(csv_path):
    with open(csv_path, newline="") as fh:
        return list(csv.DictReader(fh))


def _medians(rows, workload, trace, kind):
    values, units = defaultdict(list), {}
    for row in rows:
        if (row["workload"], row["trace"], row["kind"]) == (
            workload, str(trace), kind
        ):
            values[row["metric"]].append(float(row["value"]))
            units[row["metric"]] = row["unit"]
    return {
        metric: (statistics.median(v), units[metric], len(v))
        for metric, v in values.items()
    }


def render(rows, workload=None):
    names = [workload] if workload else sorted({r["workload"] for r in rows})
    lines = []
    for name in names:
        layers = _medians(rows, name, 1, "layers")
        if not layers:
            continue
        runs = max(n for _v, _u, n in layers.values())
        lines.append(
            f"== {name}: per-layer metrics, median of {runs} traced run(s) =="
        )
        for metric in sorted(layers):
            value, unit, _n = layers[metric]
            lines.append(f"  {metric:<38} {value:>14.6g}  {unit}")
        shares = _medians(rows, name, 1, "shares")
        if shares:
            lines.append("-- self time as a share of the ingest wall time --")
            for metric, (value, _unit, _n) in sorted(
                shares.items(), key=lambda item: -item[1][0]
            ):
                lines.append(f"  {metric:<38} {value:>13.1%}")
            if "ingest.uncovered_frac" in layers:
                lines.append(
                    f"  {'left uncovered by layer self times':<38} "
                    f"{layers['ingest.uncovered_frac'][0]:>13.1%}"
                )
        plain = _medians(rows, name, 0, "named")
        traced = _medians(rows, name, 1, "named")
        shared = sorted(set(plain) & set(traced))
        if shared:
            lines.append("-- tracing overhead: untraced -> traced medians --")
            for metric in shared:
                before, unit, n0 = plain[metric]
                after, _unit, n1 = traced[metric]
                change = f"{(after - before) / before:+.1%}" if before else "n/a"
                lines.append(
                    f"  {metric:<22} {before:>12.6g} -> {after:>12.6g} "
                    f"{change:>8}  {unit}  ({n0}/{n1} runs)"
                )
    return "\n".join(lines)


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description="Print the per-layer table.")
    parser.add_argument("results", nargs="?",
                        default=os.path.join(here, "results"))
    parser.add_argument("--workload")
    args = parser.parse_args(argv)
    rows = load(os.path.join(args.results, "results.csv"))
    print(render(rows, args.workload))


if __name__ == "__main__":
    main()
