"""ResultSet — the universal container for collections of scenario results.

Everything the framework produces more than one
:class:`~repro.scenarios.result.ScenarioResult` at a time — a ``--sweep``
expansion, a replicate fan-out, a cross-family study — lands in a
:class:`ResultSet`.  It gives sweep/study output a query surface instead of
a raw list: ``filter``/``group_by``/``aggregate`` return new ResultSets,
``to_table`` renders through
:class:`~repro.analysis.tables.ResultTable`, ``ci95`` exposes per-metric
95% bootstrap confidence intervals computed from the replicates, and
``to_json`` is deterministic (two runs of the same spec set at the same
seeds produce byte-identical output).

Axes
----
Most query methods take an *axis*: a callable ``result -> value``, one of
the result attributes (``"scenario"``, ``"family"``, ``"label"``), the
spec's ``"claim"``, a dotted path into the stored spec
(``"architecture.replicas"``, ``"workload.rate_tps"``, optionally prefixed
with ``spec.``), or — as a last resort — an aggregated metric name.

Usage::

    from repro.scenarios import run_sweep
    points = run_sweep("bft-committee-sweep")          # a ResultSet
    small = points.filter(**{"architecture.replicas": [4, 7]})
    table = points.to_table(metrics=["throughput_tps"])
    lo, hi = points.aggregate(by="scenario")[0].ci95("throughput_tps")

Rendering contract
------------------
``to_json`` is :func:`repro.analysis.jsonfmt.dumps` of :meth:`ResultSet.to_dict`:
key-sorted, two-space-indented JSON, byte-identical to what the stdlib's
``json.dumps`` writes with ``sort_keys=True`` and an ``indent`` of 2 — that
call is the oracle ``tests/test_jsonfmt.py`` holds the renderer to, and
the golden corpus, saved-object hashes and RunStore names depend on it.
The replicate rows are rendered straight from the results
(:meth:`ScenarioResult.json_tree`), never built as dicts first.
"""

from __future__ import annotations

import json
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis import jsonfmt
from repro.analysis.tables import ResultTable

#: An axis is a callable or a name resolved by :func:`axis_value`.
Axis = Union[str, Callable]

_MISSING = object()


def axis_value(result, axis: Axis):
    """Resolve an axis (see the module docstring) against one result.

    Returns ``None`` when the axis does not apply to this result, so
    heterogeneous sets can still be grouped/pivoted on family-specific
    coordinates.
    """
    if callable(axis):
        return axis(result)
    if axis in ("scenario", "family", "label"):
        return getattr(result, axis)
    spec = result.spec or {}
    if axis == "claim":
        return spec.get("claim", "")
    path = axis[len("spec."):] if axis.startswith("spec.") else axis
    node = spec
    for part in path.split("."):
        if isinstance(node, dict) and part in node:
            node = node[part]
        else:
            node = _MISSING
            break
    if node is not _MISSING:
        return node
    return result.metrics.get(axis)


class ResultSet:
    """An ordered, immutable collection of :class:`ScenarioResult` objects."""

    def __init__(self, results: Iterable = (), name: str = "",
                 description: str = "",
                 failures: Optional[Iterable[Mapping]] = None) -> None:
        self._results: List = list(results)
        self.name = name
        self.description = description
        #: Failure manifest: one plain dict per unit job that exhausted its
        #: retry budget (see ``JobFailure.to_dict``), in plan order.  Empty
        #: for a complete run — and omitted from ``to_dict`` when empty, so
        #: fault-free serialisations are unchanged.
        self.failures: List[Dict[str, object]] = [dict(entry)
                                                  for entry in failures or ()]

    # ------------------------------------------------------------------
    # Sequence behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator:
        return iter(self._results)

    def __getitem__(self, index: int):
        return self._results[index]

    def __add__(self, other: "ResultSet") -> "ResultSet":
        """Concatenate two result sets (keeps the left-hand name)."""
        return ResultSet(list(self._results) + list(other),
                         name=self.name, description=self.description,
                         failures=self.failures + getattr(other, "failures", []))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResultSet(name={self.name!r}, results={len(self._results)})"

    @property
    def results(self) -> List:
        """The contained results, as a fresh list."""
        return list(self._results)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def labels(self) -> List[str]:
        """Per-result display keys: the label where set, else the scenario."""
        return [result.label or result.scenario for result in self._results]

    def scenarios(self) -> List[str]:
        """Distinct scenario names, in first-seen order."""
        return list(dict.fromkeys(result.scenario for result in self._results))

    def families(self) -> List[str]:
        """Distinct architecture families, in first-seen order."""
        return list(dict.fromkeys(result.family for result in self._results))

    def axis_values(self, axis: Axis) -> List:
        """Distinct values of an axis, in first-seen order."""
        values: List = []
        for result in self._results:
            value = axis_value(result, axis)
            if value not in values:
                values.append(value)
        return values

    def metric_names(self, common: bool = False) -> List[str]:
        """Sorted union (default) or intersection of the metric names."""
        if not self._results:
            return []
        names = set(self._results[0].metrics)
        for result in self._results[1:]:
            if common:
                names &= set(result.metrics)
            else:
                names |= set(result.metrics)
        return sorted(names)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def filter(self, predicate: Optional[Callable] = None, **axes) -> "ResultSet":
        """Results matching a predicate and/or per-axis expected values.

        Keyword keys are axes (pass dotted paths via ``**{"a.b": v}``);
        an expected value that is a list/tuple/set/frozenset matches by
        membership, anything else by equality.
        """
        kept = []
        for result in self._results:
            if predicate is not None and not predicate(result):
                continue
            matched = True
            for axis, expected in axes.items():
                value = axis_value(result, axis)
                if isinstance(expected, (list, tuple, set, frozenset)):
                    matched = value in expected
                else:
                    matched = value == expected
                if not matched:
                    break
            if matched:
                kept.append(result)
        return ResultSet(kept, name=self.name, description=self.description)

    def only(self, predicate: Optional[Callable] = None, **axes):
        """The single result matching the query; raises otherwise."""
        matches = self.filter(predicate, **axes)
        if len(matches) != 1:
            query = ", ".join(f"{axis}={value!r}" for axis, value in axes.items())
            raise KeyError(
                f"expected exactly one result for ({query}) in "
                f"{self.name or 'result set'}, found {len(matches)} "
                f"of {self.labels()}"
            )
        return matches[0]

    def group_by(self, axis: Axis) -> Dict[object, "ResultSet"]:
        """Partition into sub-ResultSets keyed by axis value (stable order)."""
        groups: Dict[object, List] = {}
        for result in self._results:
            groups.setdefault(axis_value(result, axis), []).append(result)
        return {
            key: ResultSet(results, name=self.name, description=self.description)
            for key, results in groups.items()
        }

    def aggregate(self, by: Axis = "scenario") -> "ResultSet":
        """Merge results sharing an axis value by pooling their replicates.

        Each group becomes one :class:`ScenarioResult` whose replicates are
        the concatenation of the group's replicates — so ``ci95`` and
        ``spread`` then describe the pooled sample.  The merged result keeps
        the group's scenario/family/spec where they are unique and degrades
        to the stringified axis value / ``"mixed"`` / ``{}`` where not.
        """
        from repro.scenarios.result import ScenarioResult

        merged = []
        for key, group in self.group_by(by).items():
            scenarios = group.scenarios()
            families = group.families()
            merged.append(ScenarioResult(
                scenario=scenarios[0] if len(scenarios) == 1 else str(key),
                family=families[0] if len(families) == 1 else "mixed",
                label=str(key) if key is not None else "",
                spec=group[0].spec if len(group) == 1 else {},
                replicates=[replicate for result in group
                            for replicate in result.replicates],
            ))
        return ResultSet(merged, name=self.name, description=self.description)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def ci95(self, metric: str) -> Dict[str, Tuple[float, float]]:
        """Per-result 95% bootstrap CI of a metric, keyed by display label.

        Results whose replicates never report the metric are omitted, and
        repeated display labels are disambiguated with ``#2``, ``#3``, ...
        suffixes (in result order) so no interval is silently dropped.
        """
        intervals: Dict[str, Tuple[float, float]] = {}
        seen: Dict[str, int] = {}
        for label, result in zip(self.labels(), self._results):
            if not any(metric in replicate.metrics for replicate in result.replicates):
                continue
            seen[label] = seen.get(label, 0) + 1
            key = label if seen[label] == 1 else f"{label}#{seen[label]}"
            intervals[key] = result.ci95(metric)
        return intervals

    def rows(self, metrics: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
        """One plain dict per result: display label plus aggregated metrics."""
        rows = []
        for label, result in zip(self.labels(), self._results):
            row: Dict[str, object] = {"label": label}
            aggregated = result.metrics
            for key in (metrics if metrics is not None else sorted(aggregated)):
                if key in aggregated:
                    row[key] = aggregated[key]
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_table(self, metrics: Optional[Sequence[str]] = None,
                 axis: Axis = "label", ci: Optional[bool] = None,
                 title: Optional[str] = None) -> ResultTable:
        """One row per result: axis value plus the selected metrics.

        ``metrics`` defaults to the metrics common to every result (falling
        back to the union when the intersection is empty).  ``ci`` adds a
        95% bootstrap interval column per metric; ``None`` enables it
        automatically when any result carries more than one replicate.
        """
        if metrics is None:
            metrics = self.metric_names(common=True) or self.metric_names()
        metrics = list(metrics)
        if ci is None:
            ci = any(len(result.replicates) > 1 for result in self._results)
        columns = [axis if isinstance(axis, str) else "key"]
        for metric in metrics:
            columns.append(metric)
            if ci:
                columns.append(f"{metric} ci95")
        if title is None:
            title = self.name and f"{self.name}: {self.description}".rstrip(": ")
        table = ResultTable(columns, title=title or "")
        for label, result in zip(self.labels(), self._results):
            key = label if axis == "label" else axis_value(result, axis)
            cells: List[object] = [key if key is not None else "-"]
            aggregated = result.metrics
            for metric in metrics:
                cells.append(aggregated.get(metric, "-"))
                if ci:
                    cells.append(_format_interval(result, metric))
            table.add_row(*cells)
        return table

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-serialisable representation (deterministic ordering)."""
        return self._fields([result.to_dict() for result in self._results])

    def _fields(self, results: List[object]) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "description": self.description,
            "results": results,
        }
        if self.failures:
            payload["failures"] = [dict(entry) for entry in self.failures]
        return payload

    def to_json(self) -> str:
        """Deterministic JSON rendering of :meth:`to_dict` (see the
        rendering contract in the module docstring)."""
        # Each result sits at depth 2: the document {"results": [result]}.
        return jsonfmt.dumps(self._fields(
            [result.json_tree(2) for result in self._results]))

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ResultSet":
        """Inverse of :meth:`to_dict`."""
        from repro.scenarios.result import ScenarioResult

        return cls(
            [ScenarioResult.from_dict(entry) for entry in data.get("results", [])],
            name=str(data.get("name", "")),
            description=str(data.get("description", "")),
            failures=data.get("failures") or (),
        )

    @classmethod
    def from_json(cls, payload: str) -> "ResultSet":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(payload))


def _format_interval(result, metric: str) -> str:
    """A compact ``[lo, hi]`` cell, or ``-`` without replicate support."""
    values = [replicate.metrics[metric] for replicate in result.replicates
              if metric in replicate.metrics]
    if len(values) < 2:
        return "-"
    low, high = result.ci95(metric)
    return f"[{low:.4g}, {high:.4g}]"
