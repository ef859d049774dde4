"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one of the paper's quantitative claims (see
``repro.core.claims`` and the ``EXPERIMENTS.md`` generated from it).
Benchmarks run the underlying experiment exactly once through
``benchmark.pedantic`` (the numbers of interest are the experiment's
outputs, not the wall-clock of the harness) and print a
:class:`repro.analysis.tables.ResultTable` so that
``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's rows.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    """Fixture-style wrapper around :func:`run_once`."""

    def _run(function, *args, **kwargs):
        return run_once(benchmark, function, *args, **kwargs)

    return _run
