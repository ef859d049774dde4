"""Statistics and reporting helpers shared by experiments and benchmarks."""

from repro.analysis.diff import DiffReport, Tolerance, diff_resultsets
from repro.analysis.resultset import ResultSet
from repro.analysis.runstore import GcReport, RunRecord, RunStore, StoreProblem
from repro.analysis.stats import (
    bootstrap_ci,
    describe,
    mean,
    percentile,
    stdev,
)
from repro.analysis.tables import ResultTable

__all__ = [
    "bootstrap_ci",
    "describe",
    "diff_resultsets",
    "mean",
    "percentile",
    "stdev",
    "DiffReport",
    "GcReport",
    "ResultSet",
    "ResultTable",
    "RunRecord",
    "RunStore",
    "StoreProblem",
    "Tolerance",
]
