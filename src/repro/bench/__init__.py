"""Reproduction harness: regenerate every table and figure of the paper.

:mod:`repro.bench.experiments` defines one experiment per table/figure
of the paper's Section 5, per ablation and per extension (fault
recovery and the query service included); :mod:`repro.bench.harness`
builds (and caches) the warehouses they run on;
:mod:`repro.bench.reporting` prints the rows in the paper's layout.
``python -m repro experiments`` runs them and
``scripts/generate_experiments_md.py`` writes them into EXPERIMENTS.md.
"""

from repro.bench.harness import BenchSetup, WarehouseCache, run_algorithms
from repro.bench.experiments import (
    EXPERIMENTS,
    Experiment,
    ExperimentResult,
    experiment_by_id,
)
from repro.bench.reporting import format_rows, format_series
from repro.bench.figures import render_experiment, render_grouped_bars
from repro.bench.sweep import SweepPoint, SweepResult, grid, run_sweep

__all__ = [
    "BenchSetup",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "WarehouseCache",
    "experiment_by_id",
    "format_rows",
    "format_series",
    "grid",
    "render_experiment",
    "render_grouped_bars",
    "run_sweep",
    "SweepPoint",
    "SweepResult",
    "run_algorithms",
]
