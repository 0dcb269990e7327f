"""Reproductions of every figure in the paper's evaluation (Section 6).

Each ``figN`` function runs a scaled version of the corresponding
experiment and returns a :class:`~repro.experiments.report.FigureResult`
whose series mirror the plotted lines.  Scale parameters default to
laptop-friendly values; pass larger configs to approach the paper's
full scale.  Absolute numbers differ from the paper's (our substrate is
synthetic data and pure Python); the *shapes* -- who wins and by what
factor -- are what the reproduction is about.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.types import Dataset
from repro.datagen.network import NetworkConfig, generate_network_flows
from repro.datagen.queries import uniform_area_queries, uniform_weight_queries
from repro.datagen.tickets import TicketConfig, generate_tickets
from repro.experiments.harness import (
    METHODS,
    build_summary,
    evaluate_summary,
    ground_truths,
    run_grid,
)
from repro.experiments.report import FigureResult
from repro.summaries.exact import ExactSummary

ACCURACY_METHODS = ("aware", "obliv", "wavelet", "qdigest")
ALL_METHODS = ("aware", "obliv", "wavelet", "qdigest", "sketch")


def default_network(scale: float = 1.0, seed: int = 42) -> Dataset:
    """The synthetic network data set at a relative scale."""
    config = NetworkConfig(
        n_pairs=int(20_000 * scale),
        n_sources=int(6_000 * scale),
        n_dests=int(5_000 * scale),
    )
    return generate_network_flows(config, seed=seed)


def default_tickets(scale: float = 1.0, seed: int = 1234) -> Dataset:
    """The synthetic ticket data set at a relative scale."""
    config = TicketConfig(n_combinations=int(20_000 * scale))
    return generate_tickets(config, seed=seed)


# ---------------------------------------------------------------------------
# Figure 2: network data accuracy
# ---------------------------------------------------------------------------

def fig2a(
    dataset: Optional[Dataset] = None,
    sizes: Sequence[int] = (100, 300, 1000, 3000),
    n_queries: int = 30,
    ranges_per_query: int = 25,
    methods: Sequence[str] = ACCURACY_METHODS,
    seed: int = 7,
    repeats: int = 3,
) -> FigureResult:
    """Accuracy vs summary size; network data, uniform-area queries."""
    if dataset is None:
        dataset = default_network()
    rng = np.random.default_rng(seed)
    queries = uniform_area_queries(
        dataset.domain, n_queries, ranges_per_query, max_fraction=0.12,
        rng=rng,
    )
    result = FigureResult(
        figure="Figure 2(a)",
        title="Network data, uniform area queries",
        xlabel="summary size",
        ylabel="absolute error",
        notes=f"{ranges_per_query} ranges/query, {n_queries} queries",
    )
    for cell in run_grid(dataset, sizes, queries, methods, seed=seed,
                         repeats=repeats):
        result.add_point(cell.method, cell.size, cell.abs_error)
    return result


def fig2b(
    dataset: Optional[Dataset] = None,
    size: int = 2700,
    ranges_per_query: int = 10,
    cell_counts: Sequence[int] = (2000, 600, 200, 60, 20),
    n_queries: int = 30,
    methods: Sequence[str] = ACCURACY_METHODS,
    seed: int = 11,
    repeats: int = 3,
) -> FigureResult:
    """Accuracy vs query weight; network data, uniform-weight queries."""
    if dataset is None:
        dataset = default_network()
    result = FigureResult(
        figure="Figure 2(b)",
        title="Network data, uniform weight queries",
        xlabel="query weight",
        ylabel="absolute error",
        notes=f"summary size {size}, {ranges_per_query} ranges/query",
    )
    rng = np.random.default_rng(seed)
    total = dataset.total_weight
    for n_cells in cell_counts:
        queries = uniform_weight_queries(
            dataset, n_queries, ranges_per_query, n_cells, rng=rng
        )
        truths = ground_truths(dataset, queries)
        weight_fraction = float(truths.mean() / total)
        for cell in run_grid(dataset, [size], queries, methods,
                             seed=seed, repeats=repeats):
            result.add_point(cell.method, weight_fraction, cell.abs_error)
    return result


def fig2c(
    dataset: Optional[Dataset] = None,
    size: int = 2700,
    range_counts: Sequence[int] = (1, 2, 5, 10, 25, 50),
    target_weight: float = 0.12,
    n_queries: int = 30,
    methods: Sequence[str] = ACCURACY_METHODS,
    seed: int = 13,
    repeats: int = 3,
) -> FigureResult:
    """Accuracy vs #ranges/query at fixed total query weight (~0.12)."""
    if dataset is None:
        dataset = default_network()
    result = FigureResult(
        figure="Figure 2(c)",
        title="Network data, uniform weight queries",
        xlabel="ranges per query",
        ylabel="absolute error",
        notes=f"summary size {size}, query weight ~{target_weight}",
    )
    rng = np.random.default_rng(seed)
    for n_ranges in range_counts:
        n_cells = max(n_ranges + 1, int(round(n_ranges / target_weight)))
        queries = uniform_weight_queries(
            dataset, n_queries, n_ranges, n_cells, rng=rng
        )
        for cell in run_grid(dataset, [size], queries, methods,
                             seed=seed, repeats=repeats):
            result.add_point(cell.method, n_ranges, cell.abs_error)
    return result


# ---------------------------------------------------------------------------
# Figure 3: scalability
# ---------------------------------------------------------------------------

def _build_throughput(
    dataset: Dataset,
    sizes: Sequence[int],
    methods: Sequence[str],
    figure: str,
    title: str,
    seed: int,
) -> FigureResult:
    result = FigureResult(
        figure=figure,
        title=title,
        xlabel="summary size",
        ylabel="items / s (construction)",
    )
    for method in methods:
        for size in sizes:
            rng = np.random.default_rng(seed)
            _summary, seconds = build_summary(method, dataset, size, rng)
            result.add_point(method, size, dataset.n / max(seconds, 1e-9))
    return result


def fig3a(
    dataset: Optional[Dataset] = None,
    sizes: Sequence[int] = (100, 1000, 3000),
    methods: Sequence[str] = ALL_METHODS,
    seed: int = 17,
) -> FigureResult:
    """Construction throughput vs summary size; network data."""
    if dataset is None:
        dataset = default_network()
    return _build_throughput(
        dataset, sizes, methods,
        "Figure 3(a)", "Cost of building summary for Network Data", seed,
    )


def fig3b(
    dataset: Optional[Dataset] = None,
    sizes: Sequence[int] = (100, 1000, 3000),
    methods: Sequence[str] = ALL_METHODS,
    seed: int = 19,
) -> FigureResult:
    """Construction throughput vs summary size; tech-ticket data."""
    if dataset is None:
        dataset = default_tickets()
    return _build_throughput(
        dataset, sizes, methods,
        "Figure 3(b)", "Cost of building summary for Tech Ticket Data", seed,
    )


def fig3c(
    dataset: Optional[Dataset] = None,
    sizes: Sequence[int] = (100, 1000, 3000),
    n_rectangles: int = 500,
    methods: Sequence[str] = ALL_METHODS,
    include_exact: bool = True,
    seed: int = 23,
) -> FigureResult:
    """Time to answer a battery of rectangle queries vs summary size.

    The paper uses 2500 rectangles; the default here is scaled down but
    the per-rectangle cost ratios are unchanged.
    """
    if dataset is None:
        dataset = default_network()
    rng = np.random.default_rng(seed)
    queries = uniform_area_queries(
        dataset.domain, n_rectangles, 1, max_fraction=0.1, rng=rng
    )
    boxes = [q.boxes[0] for q in queries]
    result = FigureResult(
        figure="Figure 3(c)",
        title="Time to perform queries on Network Data",
        xlabel="summary size",
        ylabel=f"seconds for {n_rectangles} rectangle queries",
    )
    for method in methods:
        for size in sizes:
            summary, _build = build_summary(
                method, dataset, size, np.random.default_rng(seed)
            )
            start = time.perf_counter()
            for box in boxes:
                summary.query(box)
            result.add_point(
                method, size, time.perf_counter() - start
            )
    if include_exact:
        exact = ExactSummary(dataset)
        start = time.perf_counter()
        for box in boxes:
            exact.query(box)
        elapsed = time.perf_counter() - start
        for size in sizes:
            result.add_point("exact(full data)", size, elapsed)
    return result


# ---------------------------------------------------------------------------
# Figure 4: tech-ticket data accuracy
# ---------------------------------------------------------------------------

def fig4a(
    dataset: Optional[Dataset] = None,
    sizes: Sequence[int] = (100, 300, 1000, 3000),
    ranges_per_query: int = 10,
    n_cells: int = 100,
    n_queries: int = 30,
    methods: Sequence[str] = ACCURACY_METHODS,
    seed: int = 29,
    repeats: int = 3,
) -> FigureResult:
    """Accuracy vs summary size; ticket data, uniform-weight queries."""
    if dataset is None:
        dataset = default_tickets()
    rng = np.random.default_rng(seed)
    queries = uniform_weight_queries(
        dataset, n_queries, ranges_per_query, n_cells, rng=rng
    )
    result = FigureResult(
        figure="Figure 4(a)",
        title="Tech Ticket data, uniform weight queries",
        xlabel="summary size",
        ylabel="absolute error",
        notes=f"{ranges_per_query} ranges/query",
    )
    for cell in run_grid(dataset, sizes, queries, methods, seed=seed,
                         repeats=repeats):
        result.add_point(cell.method, cell.size, cell.abs_error)
    return result


def fig4b(
    dataset: Optional[Dataset] = None,
    size: int = 2700,
    ranges_per_query: int = 25,
    fractions: Sequence[float] = (0.005, 0.02, 0.06, 0.12),
    n_queries: int = 30,
    methods: Sequence[str] = ACCURACY_METHODS,
    seed: int = 31,
    repeats: int = 3,
) -> FigureResult:
    """Accuracy vs query weight; ticket data, uniform-area queries."""
    if dataset is None:
        dataset = default_tickets()
    result = FigureResult(
        figure="Figure 4(b)",
        title="Tech Ticket data, uniform area queries",
        xlabel="query weight",
        ylabel="absolute error",
        notes=f"summary size {size}, {ranges_per_query} ranges/query",
    )
    rng = np.random.default_rng(seed)
    total = dataset.total_weight
    for fraction in fractions:
        queries = uniform_area_queries(
            dataset.domain, n_queries, ranges_per_query,
            max_fraction=fraction, rng=rng,
        )
        truths = ground_truths(dataset, queries)
        weight_fraction = float(truths.mean() / total)
        if weight_fraction <= 0:
            continue
        for cell in run_grid(dataset, [size], queries, methods,
                             seed=seed, repeats=repeats):
            result.add_point(cell.method, weight_fraction, cell.abs_error)
    return result


def fig4c(
    dataset: Optional[Dataset] = None,
    size: int = 2700,
    ranges_per_query: int = 10,
    cell_counts: Sequence[int] = (2000, 600, 200, 60, 20),
    n_queries: int = 30,
    methods: Sequence[str] = ACCURACY_METHODS,
    seed: int = 37,
    repeats: int = 3,
) -> FigureResult:
    """Accuracy vs query weight; ticket data, uniform-weight queries."""
    if dataset is None:
        dataset = default_tickets()
    result = FigureResult(
        figure="Figure 4(c)",
        title="Tech Ticket data, uniform weight queries",
        xlabel="query weight",
        ylabel="absolute error",
        notes=f"summary size {size}, {ranges_per_query} ranges/query",
    )
    rng = np.random.default_rng(seed)
    total = dataset.total_weight
    for n_cells in cell_counts:
        queries = uniform_weight_queries(
            dataset, n_queries, ranges_per_query, n_cells, rng=rng
        )
        truths = ground_truths(dataset, queries)
        weight_fraction = float(truths.mean() / total)
        for cell in run_grid(dataset, [size], queries, methods,
                             seed=seed, repeats=repeats):
            result.add_point(cell.method, weight_fraction, cell.abs_error)
    return result


ALL_FIGURES = {
    "fig2a": fig2a,
    "fig2b": fig2b,
    "fig2c": fig2c,
    "fig3a": fig3a,
    "fig3b": fig3b,
    "fig3c": fig3c,
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig4c": fig4c,
}
