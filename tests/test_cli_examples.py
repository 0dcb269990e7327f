"""Tests for the CLI runner and the runnable examples."""

import pathlib
import runpy
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.__main__ import main as cli_main

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2a", "fig3c", "fig4b"):
            assert name in out

    def test_run_writes_output(self, tmp_path, capsys, monkeypatch):
        # Run the cheapest figure at a tiny scale.
        import repro.experiments.__main__ as cli
        import repro.experiments.figures as figures

        def tiny_fig3a(dataset):
            return figures.fig3a(dataset, sizes=(50,),
                                 methods=("obliv",))

        monkeypatch.setitem(cli.ALL_FIGURES, "fig3a", tiny_fig3a)
        assert cli_main(
            ["run", "fig3a", "--scale", "0.05", "--out", str(tmp_path)]
        ) == 0
        assert (tmp_path / "fig3a.txt").exists()
        out = capsys.readouterr().out
        assert "Figure 3(a)" in out

    def test_run_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "nope"])


class TestExamples:
    """Each example must run end to end (subprocess, real entry point)."""

    @pytest.mark.parametrize(
        "script",
        ["quickstart.py", "hierarchy_drilldown.py"],
    )
    def test_fast_examples_run(self, script):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / script)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip()

    def test_quickstart_outputs_estimates(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert "aware" in result.stdout
        assert "exact" in result.stdout

    def test_hierarchy_drilldown_validates_theorem(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "hierarchy_drilldown.py")],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert "theorem: < 1" in result.stdout

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "script",
        [
            "network_traffic_analysis.py",
            "stream_summarization.py",
            "confidence_intervals.py",
            "sharded_engine.py",
            "streaming_dashboard.py",
        ],
    )
    def test_slow_examples_run(self, script):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / script)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.slow
    def test_distributed_pipeline_runs(self):
        """The one example that builds a ``QueryFrontend`` and reads
        ``ServingFrontend.stats()``: every layer's check prints True."""
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "distributed_pipeline.py")],
            capture_output=True,
            text=True,
            timeout=900,
        )
        assert result.returncode == 0, result.stderr
        out = result.stdout
        assert "query(original) == query(decoded): True" in out
        assert "identical answers on a 100-query battery: True" in out
        assert "500 queries from 4 tenants" in out
        assert "batch-size histogram" in out
