"""Experiment harness: one runner per paper table and figure."""

from repro.experiments.figures import (
    ExperimentSetup,
    FigureResult,
    SweepData,
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
from repro.experiments.runner import ExperimentReport, run_all
from repro.experiments.tables import (
    TableResult,
    run_all_tables,
    run_example_attack,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)

__all__ = [
    "ExperimentSetup",
    "default_setup",
    "SweepData",
    "run_sweep",
    "derive_thresholds",
    "FigureResult",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "TableResult",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_all_tables",
    "run_example_attack",
    "ExperimentReport",
    "run_all",
    "figure_to_markdown",
    "table_to_markdown",
    "sweep_shape_checks",
    "render_report",
]
