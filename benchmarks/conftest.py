"""Shared fixtures for the benchmark suite.

Each ``bench_figNx`` file regenerates one figure of the paper's
evaluation; results are printed and also written to
``benchmarks/results/`` so the README's tables can be refreshed from a
run.

Smoke mode (``BENCH_SMOKE=1``, used by the CI smoke job) runs every
benchmark end to end at tiny sizes so the scripts cannot silently rot;
datasets shrink and performance/statistical expectations
(:func:`perf_assert`) are skipped -- only the structural assertions
remain meaningful at toy scale.
"""

import importlib.util
import json
import os
import pathlib
import platform

import numpy as np
import pytest

from repro.datagen.network import NetworkConfig, generate_network_flows
from repro.datagen.tickets import TicketConfig, generate_tickets

#: CI smoke mode: tiny data, no timing/statistical assertions.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Scale of the benchmark datasets relative to the paper's (~10%).
BENCH_NETWORK = NetworkConfig(n_pairs=20_000, n_sources=6_000, n_dests=5_000)
BENCH_TICKETS = TicketConfig(n_combinations=20_000)
if SMOKE:
    BENCH_NETWORK = NetworkConfig(n_pairs=3_000, n_sources=1_000, n_dests=800)
    BENCH_TICKETS = TicketConfig(n_combinations=3_000)


def load_oracles():
    """``tests/oracles.py`` (the paper's scalar walks), loaded by path.

    Putting ``tests/`` on ``sys.path`` instead could make a benchmark's
    ``from conftest import ...`` resolve to ``tests/conftest.py``.
    """
    root = pathlib.Path(__file__).resolve().parents[1]
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("repro_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perf_assert(condition, message=""):
    """Assert a performance/statistical expectation.

    Skipped in smoke mode: tiny sizes make timings and error shapes
    meaningless, but the code paths still have to run to completion.
    """
    if SMOKE:
        return
    assert condition, message


@pytest.fixture(scope="session")
def network_data():
    """Synthetic network-flow dataset for the benchmarks."""
    return generate_network_flows(BENCH_NETWORK, seed=42)


@pytest.fixture(scope="session")
def tickets_data():
    """Synthetic tech-ticket dataset for the benchmarks."""
    return generate_tickets(BENCH_TICKETS, seed=1234)


@pytest.fixture(scope="session")
def results_dir():
    """Directory where figure tables are written.

    ``BENCH_RESULTS_DIR`` overrides the default ``benchmarks/results``
    -- the bench-smoke CI job points fresh smoke runs at a scratch
    directory so the committed baselines stay comparable.
    """
    override = os.environ.get("BENCH_RESULTS_DIR", "")
    path = (
        pathlib.Path(override)
        if override
        else pathlib.Path(__file__).parent / "results"
    )
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit(results_dir, name, text):
    """Print a figure table and persist it under benchmarks/results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")


def emit_json(results_dir, name, records):
    """Persist machine-readable benchmark records.

    Writes ``BENCH_<name>.json`` next to the text results so the perf
    trajectory can be tracked across PRs without parsing tables.
    ``records`` is a list of flat dicts (method, size, wall time,
    throughput, ...); run context (smoke flag, cpu count, the CPUs this
    process may run on, platform) is stamped once at the top level.
    """
    payload = {
        "benchmark": name,
        "smoke": SMOKE,
        "cpus": os.cpu_count(),
        "cpus_affinity": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count()
        ),
        "platform": platform.platform(),
        "records": list(records),
    }
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def figure_records(result, value_key="value", extra=None):
    """Flatten a :class:`FigureResult` into ``emit_json`` records.

    One flat dict per (series, x) point; ``value_key`` names the y
    value (e.g. ``items_per_second`` for build figures,
    ``wall_time_s`` for query timings) so the regression checker knows
    which way is better.
    """
    records = []
    for name, points in sorted(result.series.items()):
        for x, y in points:
            record = {"series": name, "x": x, value_key: y}
            if extra:
                record.update(extra)
            records.append(record)
    return records
