"""Tests for the experiment harness, figure functions and reporting."""

import numpy as np
import pytest

from repro.datagen.queries import uniform_area_queries
from repro.experiments.figures import (
    default_network,
    default_tickets,
    fig2a,
    fig2b,
    fig2c,
    fig3a,
    fig3c,
    fig4a,
)
from repro.experiments.harness import (
    METHODS,
    build_summary,
    evaluate_summary,
    ground_truths,
    run_cell,
    run_grid,
)
from repro.experiments.report import (
    FigureResult,
    render_comparison,
    render_figure,
)


@pytest.fixture(scope="module")
def tiny_setup(network_small=None):
    from repro.datagen.network import NetworkConfig, generate_network_flows

    data = generate_network_flows(
        NetworkConfig(n_pairs=1200, n_sources=400, n_dests=400, bits=16,
                      min_prefix=4, max_prefix=10),
        seed=11,
    )
    rng = np.random.default_rng(0)
    queries = uniform_area_queries(data.domain, 6, 5, max_fraction=0.15,
                                   rng=rng)
    return data, queries


class TestHarness:
    #: Methods restricted to 1-D domains (checked separately below).
    ONE_D_ONLY = {"qdigest-stream"}

    def test_all_methods_buildable(self, tiny_setup):
        data, _ = tiny_setup
        rng = np.random.default_rng(1)
        for method in METHODS:
            if method in self.ONE_D_ONLY:
                continue
            summary, seconds = build_summary(method, data, 60, rng)
            assert seconds >= 0
            assert summary.size > 0

    def test_one_d_methods_buildable(self):
        from repro.core.types import Dataset

        rng = np.random.default_rng(3)
        data = Dataset.one_dimensional(
            rng.integers(0, 1 << 12, size=500), rng.random(500) + 0.1,
            size=1 << 12,
        )
        for method in self.ONE_D_ONLY:
            summary, seconds = build_summary(method, data, 60,
                                             np.random.default_rng(1))
            assert seconds >= 0
            assert summary.size > 0

    def test_unknown_method_raises(self, tiny_setup):
        data, _ = tiny_setup
        with pytest.raises(KeyError):
            build_summary("nope", data, 10, np.random.default_rng(0))

    def test_evaluate_scores(self, tiny_setup):
        data, queries = tiny_setup
        truths = ground_truths(data, queries)
        summary, _ = build_summary("obliv", data, 100,
                                   np.random.default_rng(2))
        scores = evaluate_summary(summary, queries, truths,
                                  data.total_weight)
        assert scores["abs_error"] >= 0
        assert len(scores["per_query_abs"]) == len(queries)

    def test_run_cell(self, tiny_setup):
        data, queries = tiny_setup
        truths = ground_truths(data, queries)
        cell = run_cell("aware", data, 80, queries, truths, seed=3)
        assert cell.method == "aware"
        assert cell.size == 80
        assert cell.build_throughput > 0

    def test_run_grid_shape(self, tiny_setup):
        data, queries = tiny_setup
        results = run_grid(data, [50, 100], queries,
                           ["obliv", "qdigest"], repeats=2)
        assert len(results) == 4
        methods = {r.method for r in results}
        assert methods == {"obliv", "qdigest"}

    def test_sample_errors_shrink_with_size(self, tiny_setup):
        data, queries = tiny_setup
        results = run_grid(data, [30, 500], queries, ["obliv"],
                           repeats=4)
        by_size = {r.size: r.abs_error for r in results}
        assert by_size[500] < by_size[30]


class TestFigureFunctions:
    """Each figure function runs end-to-end at a tiny scale."""

    @pytest.fixture(scope="class")
    def tiny_net(self):
        from repro.datagen.network import NetworkConfig, generate_network_flows

        return generate_network_flows(
            NetworkConfig(n_pairs=1000, n_sources=300, n_dests=300,
                          bits=16, min_prefix=4, max_prefix=10),
            seed=21,
        )

    @pytest.fixture(scope="class")
    def tiny_tickets(self):
        from repro.datagen.tickets import TicketConfig, generate_tickets

        return generate_tickets(TicketConfig(n_combinations=1000), seed=22)

    def test_fig2a(self, tiny_net):
        result = fig2a(tiny_net, sizes=(50, 150), n_queries=5,
                       methods=("aware", "obliv"), repeats=1)
        assert set(result.series) == {"aware", "obliv"}
        assert len(result.series["aware"]) == 2

    def test_fig2b(self, tiny_net):
        result = fig2b(tiny_net, size=120, cell_counts=(60, 20),
                       n_queries=5, methods=("aware", "obliv"), repeats=1)
        assert len(result.series["aware"]) == 2

    def test_fig2c(self, tiny_net):
        result = fig2c(tiny_net, size=120, range_counts=(1, 4),
                       n_queries=5, methods=("obliv",), repeats=1)
        xs = [x for x, _ in result.series["obliv"]]
        assert xs == [1, 4]

    def test_fig3a(self, tiny_net):
        result = fig3a(tiny_net, sizes=(60,), methods=("aware", "obliv"))
        for series in result.series.values():
            assert all(y > 0 for _x, y in series)

    def test_fig3c(self, tiny_net):
        result = fig3c(tiny_net, sizes=(60,), n_rectangles=20,
                       methods=("obliv",))
        assert "exact(full data)" in result.series

    def test_fig4a(self, tiny_tickets):
        result = fig4a(tiny_tickets, sizes=(50, 150), n_cells=30,
                       n_queries=5, methods=("aware", "obliv"), repeats=1)
        assert len(result.series["aware"]) == 2

    def test_default_datasets(self):
        net = default_network(scale=0.05)
        tick = default_tickets(scale=0.05)
        assert net.n > 100 and tick.n > 100


class TestReport:
    def make_result(self):
        r = FigureResult("Fig X", "title", "size", "error")
        r.add_point("a", 10, 0.5)
        r.add_point("a", 20, 0.25)
        r.add_point("b", 10, 1.0)
        r.add_point("b", 20, 0.5)
        return r

    def test_render_contains_all_series(self):
        text = render_figure(self.make_result())
        assert "Fig X" in text
        assert "a" in text and "b" in text
        assert "0.5" in text

    def test_render_handles_missing_points(self):
        r = self.make_result()
        r.add_point("c", 10, 2.0)  # no point at x=20
        text = render_figure(r)
        assert "-" in text

    def test_comparison_ratio(self):
        text = render_comparison(self.make_result(), baseline="b",
                                 target="a")
        assert "2.00x" in text

    def test_comparison_leaves_out_exact_points(self):
        """Both methods exact up to rounding: no ratio, only a count.

        The values are fig2a's smoke table (network data, uniform area
        queries); at s=3000 both errors are float rounding.
        """
        r = FigureResult("fig2a", "t", "summary size", "absolute error")
        for x, aware, qdigest in [(100, 0.01458, 0.2345),
                                  (300, 0.005191, 0.06388),
                                  (1000, 0.001763, 0.00886),
                                  (3000, 4.196e-18, 4.246e-16)]:
            r.add_point("aware", x, aware)
            r.add_point("qdigest", x, qdigest)
        text = render_comparison(r, baseline="qdigest", target="aware")
        ratio = float(text.split("ratio ")[1].split("x")[0])
        assert round(ratio, 1) == 10.0
        assert "over 3 points (1 left out as exact)" in text
        r.add_point("aware", 5000, 0.0)
        r.add_point("qdigest", 5000, 1e-13)
        text = render_comparison(r, baseline="qdigest", target="aware")
        assert "over 3 points (2 left out as exact)" in text

    def test_comparison_no_overlap(self):
        r = FigureResult("f", "t", "x", "y")
        r.add_point("a", 1, 1.0)
        text = render_comparison(r, baseline="b", target="a")
        assert "no comparable" in text
