"""Run scenarios: resolve, override, replicate, sweep — via execution plans.

``run_scenario`` executes one concrete spec (the base configuration of a
swept spec); ``run_sweep`` expands a spec's variants/sweeps and runs every
point into a :class:`~repro.analysis.resultset.ResultSet`.  Both accept
either a registry name or a :class:`ScenarioSpec`.

Since the execution-API redesign both are thin wrappers over
:mod:`repro.scenarios.execution`: ``compile_scenario``/``compile_sweep``
turn the resolved spec into an :class:`ExecutionPlan` of seed-pinned unit
jobs, and :func:`~repro.scenarios.execution.execute_plan` runs it on a
pluggable backend.  ``backend`` accepts an
:class:`~repro.scenarios.execution.ExecutionBackend` or a ``--jobs`` style
integer (``None``/0/1 → serial, byte-identical to the historical runner);
``store`` enables :class:`~repro.analysis.runstore.RunStore` resume.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Union

from repro.analysis.resultset import ResultSet
from repro.scenarios.execution import (
    ExecutionBackend,
    ExecutionPlan,
    ResultSlot,
    execute_plan,
)
from repro.scenarios.registry import get_scenario
from repro.scenarios.result import ScenarioResult
from repro.scenarios.spec import ScenarioSpec

Backend = Optional[Union[ExecutionBackend, int]]


def resolve_spec(
    scenario: Union[str, ScenarioSpec],
    overrides: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = None,
    replicates: Optional[int] = None,
) -> ScenarioSpec:
    """Look up (or copy) a spec and apply overrides/seed/replicates."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario.copy()
    pinned = dict(overrides or {})
    if seed is not None:
        pinned["seed"] = seed
    if replicates is not None:
        pinned["replicates"] = replicates
    return spec.with_overrides(pinned)


# ----------------------------------------------------------------------
# Plan compilation
# ----------------------------------------------------------------------
def compile_scenario(
    scenario: Union[str, ScenarioSpec],
    overrides: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = None,
    replicates: Optional[int] = None,
) -> ExecutionPlan:
    """One-slot plan for the base configuration of a scenario."""
    spec = resolve_spec(scenario, overrides, seed, replicates)
    return ExecutionPlan(
        slots=[ResultSlot.for_point(replace(spec, sweeps={}, variants={}))],
        name=spec.name,
        description=spec.description,
    )


def compile_sweep(
    scenario: Union[str, ScenarioSpec],
    overrides: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = None,
    replicates: Optional[int] = None,
) -> ExecutionPlan:
    """One slot per expanded variant/sweep point, in expansion order."""
    spec = resolve_spec(scenario, overrides, seed, replicates)
    return ExecutionPlan(
        slots=[ResultSlot.for_point(point, label)
               for label, point in spec.expand()],
        name=spec.name,
        description=spec.description,
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(
    scenario: Union[str, ScenarioSpec],
    overrides: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = None,
    replicates: Optional[int] = None,
    backend: Backend = None,
    store=None,
    progress=None,
    resume: bool = True,
    policy=None,
) -> ScenarioResult:
    """Run the base configuration of a scenario and aggregate its replicates.

    ``policy`` is an optional
    :class:`~repro.scenarios.execution.JobPolicy`; since this helper
    returns a single result, a job failing past its retries raises even
    under ``keep_going`` (there is no partial result to return).
    """
    plan = compile_scenario(scenario, overrides, seed, replicates)
    results = execute_plan(plan, backend=backend, store=store,
                           progress=progress, resume=resume, policy=policy)
    if not len(results):
        from repro.scenarios.execution import JobExecutionError, JobFailure

        raise JobExecutionError(JobFailure.from_dict(results.failures[0]))
    return results[0]


def run_sweep(
    scenario: Union[str, ScenarioSpec],
    overrides: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = None,
    replicates: Optional[int] = None,
    backend: Backend = None,
    store=None,
    progress=None,
    resume: bool = True,
    policy=None,
) -> ResultSet:
    """Expand a spec's variants/sweeps and run every point, in order.

    Returns a :class:`~repro.analysis.resultset.ResultSet` (iterable and
    indexable like the list it used to be, plus the
    filter/group/aggregate/CI query surface).  ``policy`` is an optional
    :class:`~repro.scenarios.execution.JobPolicy`; under ``keep_going``
    the set may be partial, with the dropped points listed in its
    ``failures`` manifest.
    """
    plan = compile_sweep(scenario, overrides, seed, replicates)
    return execute_plan(plan, backend=backend, store=store,
                        progress=progress, resume=resume, policy=policy)
