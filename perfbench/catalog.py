"""What the benchmark reports: ``BENCHMARK.json`` plus each workload's names.

``BENCHMARK.json`` at the repository root is the one source of the run
length, the workloads, the end-to-end metrics (name, unit, bound) and
the per-layer metrics; :func:`load_spec` reads it.

Every workload must report every metric ``BENCHMARK.json`` lists, so
its end-to-end names are workload-neutral and ``SOURCE`` says which of
the workload's own metrics (``NAMED``) each one carries.  The named
metrics are printed with their units by every run and kept in its raw
record.  Per-layer metrics come from the traced run; a layer a workload
does not exercise reads 0 there.
"""

from __future__ import annotations

import json
import os

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)

_ALL = ("serve-fresh", "ingest-durable", "live-mixed")

#: The workloads' own end-to-end metrics: name -> (unit, workloads).
NAMED = {
    "setup_s": ("s", _ALL),
    "query_p50_ms": ("ms", ("serve-fresh", "live-mixed")),
    "query_p99_ms": ("ms", ("serve-fresh", "live-mixed")),
    "saturated_qps": ("q/s", ("serve-fresh",)),
    "sustained_qps": ("q/s", ("serve-fresh",)),
    "batch_p50_ms": ("ms", ("ingest-durable",)),
    "batch_p90_ms": ("ms", ("ingest-durable",)),
    "ingest_items_per_s": ("items/s", ("ingest-durable", "live-mixed")),
    "speed_scale": ("ratio", _ALL),
    "fresh_p50_ms": ("ms", ("live-mixed",)),
    "restore_s": ("s", ("ingest-durable",)),
    "failed_frac": ("ratio", _ALL),
    "err_aware": ("ratio", _ALL),
    "err_obliv": ("ratio", ("ingest-durable", "live-mixed")),
    "err_qdigest": ("ratio", ("serve-fresh", "ingest-durable")),
    "err_sketch": ("ratio", ("serve-fresh",)),
    "peak_rss_mb": ("MB", _ALL),
}

#: Which named metric each end-to-end name carries (the rest carry
#: their own).  ``latency_tail_ms`` is the query p99 where a run has
#: thousands of queries, but ingest-durable's p90 batch: a p99 of its
#: 116 batches is the slowest one.  ``sustained_qps`` moves in rungs
#: 2^(1/16) apart, too coarse to gate, so the saturated answer rate
#: carries serve-fresh's throughput.
SOURCE = {
    "serve-fresh": {
        "latency_p50_ms": "query_p50_ms",
        "latency_tail_ms": "query_p99_ms",
        "throughput_per_s": "saturated_qps",
    },
    "ingest-durable": {
        "latency_p50_ms": "batch_p50_ms",
        "latency_tail_ms": "batch_p90_ms",
        "throughput_per_s": "ingest_items_per_s",
    },
    "live-mixed": {
        "latency_p50_ms": "query_p50_ms",
        "latency_tail_ms": "query_p99_ms",
        "throughput_per_s": "ingest_items_per_s",
    },
}


def load_spec(path: str = SPEC_PATH) -> dict:
    """``BENCHMARK.json``: run length, workloads, metric units by name."""
    with open(path) as fh:
        spec = json.load(fh)
    return {
        "run_seconds": spec["run_seconds"],
        "workloads": [entry["name"] for entry in spec["workloads"]],
        "e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "layers": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def source(workload: str, name: str) -> str:
    """The named metric a workload reports under end-to-end ``name``."""
    return SOURCE[workload].get(name, name)
