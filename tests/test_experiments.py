"""Unit tests for the experiment harness (tables, figures, runner, report)."""

from __future__ import annotations

import pytest

from repro.anonymize.kanonymity import is_k_anonymous
from repro.exceptions import ExperimentError
from repro.experiments.figures import (
    default_setup,
    derive_thresholds,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_sweep,
)
from repro.experiments.report import (
    figure_to_markdown,
    render_report,
    sweep_shape_checks,
    table_to_markdown,
)
from repro.experiments.runner import run_all
from repro.experiments.tables import (
    run_all_tables,
    run_example_attack,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)


@pytest.fixture(scope="module")
def small_sweep():
    """A reduced sweep (small population, few levels) shared by figure tests."""
    setup = default_setup(count=30, seed=5, levels=(2, 4, 6, 8))
    return run_sweep(setup)


class TestTables:
    def test_table1(self):
        result = run_table1()
        assert result.table.num_rows == 4
        assert "Alice" in result.to_text()

    def test_table2(self):
        result = run_table2()
        assert result.table.schema.sensitive_attributes == ("income",)

    def test_table3_is_anonymized_release(self):
        result = run_table3(k=2)
        assert "income" not in result.table.schema
        assert is_k_anonymous(result.table, 2)
        assert result.table.column("name") == run_table2().table.column("name")

    def test_table4(self):
        result = run_table4()
        assert "property_holdings" in result.table.schema

    def test_run_all_tables(self):
        results = run_all_tables()
        assert set(results) == {"table1", "table2", "table3", "table4"}

    def test_example_attack_narrative(self):
        outcome = run_example_attack(k=2)
        estimates = outcome["estimates"]
        # Robert is the highest earner and must receive the highest estimate.
        assert estimates["Robert"] == max(estimates.values())
        assert set(estimates) == {"Alice", "Bob", "Christine", "Robert"}
        for value in estimates.values():
            assert 40_000 <= value <= 100_000


class TestSweepAndFigures:
    def test_sweep_series_lengths(self, small_sweep):
        assert small_sweep.levels == [2, 4, 6, 8]
        for series in (small_sweep.before, small_sweep.after, small_sweep.gain, small_sweep.utility):
            assert len(series) == 4

    def test_fusion_always_helps(self, small_sweep):
        assert all(a < b for a, b in zip(small_sweep.after, small_sweep.before))
        assert all(g > 0 for g in small_sweep.gain)

    def test_utility_decreases(self, small_sweep):
        assert small_sweep.utility[-1] < small_sweep.utility[0]

    def test_figures_4_to_7_extract_series(self, small_sweep):
        assert run_figure4(small_sweep).series["P o P' (without Q)"] == small_sweep.before
        assert run_figure5(small_sweep).series["P o P^ (with Q)"] == small_sweep.after
        assert run_figure6(small_sweep).series["Information Gain (G)"] == small_sweep.gain
        assert run_figure7(small_sweep).series["Utility (U)"] == small_sweep.utility

    def test_figure_text_rendering(self, small_sweep):
        text = run_figure4(small_sweep).to_text()
        assert "figure4" in text
        assert str(small_sweep.levels[0]) in text

    def test_derive_thresholds(self, small_sweep):
        protection_threshold, utility_threshold = derive_thresholds(small_sweep)
        assert protection_threshold in small_sweep.after
        assert utility_threshold in small_sweep.utility
        with pytest.raises(ExperimentError):
            derive_thresholds(small_sweep, lower_fraction=0.9, upper_fraction=0.5)

    def test_figure8_optimum_in_feasible_band(self, small_sweep):
        figure = run_figure8(small_sweep)
        assert len(figure.x) >= 1
        assert "optimal k=" in figure.notes
        assert all(40 >= x >= 2 for x in figure.x)

    def test_figure8_with_impossible_thresholds(self, small_sweep):
        with pytest.raises(ExperimentError):
            run_figure8(small_sweep, thresholds=(float("inf"), float("inf")))


class TestReporting:
    def test_shape_checks_structure(self, small_sweep):
        checks = sweep_shape_checks(small_sweep)
        assert len(checks) == 5
        assert all(isinstance(passed, bool) for _, passed in checks)

    def test_figure_markdown(self, small_sweep):
        text = figure_to_markdown(run_figure4(small_sweep))
        assert text.startswith("###")
        assert "|" in text

    def test_table_markdown(self):
        text = table_to_markdown(run_table2())
        assert "| name |" in text or "| name " in text

    def test_render_report_and_runner(self, small_sweep):
        setup = default_setup(count=30, seed=5, levels=(2, 4, 6, 8))
        report = run_all(setup)
        assert set(report.figures) == {"figure4", "figure5", "figure6", "figure7", "figure8"}
        assert set(report.tables) == {"table1", "table2", "table3", "table4"}
        markdown = report.to_markdown()
        assert "# Reproduced experiments" in markdown
        assert "figure8" in markdown.lower()
        standalone = render_report(report.figures, report.tables, report.sweep)
        assert "## Figures" in standalone
