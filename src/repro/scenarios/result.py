"""Normalized scenario outcomes.

Every architecture adapter reduces its family-specific run into a flat
``Dict[str, float]`` of metrics (throughput, latency percentiles,
message/energy counters); :class:`ScenarioResult` holds one such dict per
seed replicate plus the mean aggregate, and serialises deterministically —
two runs of the same spec at the same seed produce byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analysis import jsonfmt
from repro.analysis.stats import bootstrap_ci
from repro.analysis.tables import ResultTable

_CONTAINERS = (dict, list, tuple)


@dataclass
class ReplicateResult:
    """Metrics of one seeded run of a scenario."""

    seed: int
    metrics: Dict[str, float]

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-serialisable representation."""
        return {"seed": self.seed, "metrics": dict(sorted(self.metrics.items()))}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ReplicateResult":
        """Inverse of :meth:`to_dict`."""
        return cls(seed=int(data["seed"]),
                   metrics={key: float(value)
                            for key, value in dict(data["metrics"]).items()})


@dataclass
class ScenarioResult:
    """Aggregated outcome of one scenario (all replicates).

    Results are immutable after construction (the runner never touches the
    replicate list again), so the aggregated :attr:`metrics` view is computed
    once on first access and cached for the lifetime of the object.
    """

    scenario: str
    family: str
    spec: Dict[str, object]
    replicates: List[ReplicateResult]
    label: str = ""

    @cached_property
    def metrics(self) -> Dict[str, float]:
        """Mean of every metric across replicates (computed once, cached)."""
        if not self.replicates:
            return {}
        totals: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for replicate in self.replicates:
            for key, value in replicate.metrics.items():
                totals[key] = totals.get(key, 0.0) + value
                counts[key] = counts.get(key, 0) + 1
        return {key: totals[key] / counts[key] for key in totals}

    def metric(self, key: str) -> float:
        """One aggregated metric; raises ``KeyError`` for unknown names."""
        metrics = self.metrics
        if key not in metrics:
            raise KeyError(
                f"scenario {self.scenario!r} has no metric {key!r}; "
                f"available: {sorted(metrics)}"
            )
        return metrics[key]

    def spread(self, key: str) -> Dict[str, float]:
        """Min/mean/max of one metric across replicates."""
        values = [r.metrics[key] for r in self.replicates if key in r.metrics]
        if not values:
            raise KeyError(key)
        return {
            "min": min(values),
            "mean": sum(values) / len(values),
            "max": max(values),
        }

    def ci95(self, key: str) -> Tuple[float, float]:
        """95% bootstrap confidence interval for a metric's replicate mean.

        Deterministic (fixed resampling seed); with a single replicate the
        interval degenerates to that value.
        """
        values = [r.metrics[key] for r in self.replicates if key in r.metrics]
        if not values:
            raise KeyError(key)
        return bootstrap_ci(values, confidence=0.95, seed=0)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def table(self) -> ResultTable:
        """The aggregated metrics as a :class:`ResultTable`."""
        title = f"{self.scenario} [{self.family}]"
        if self.label:
            title += f" ({self.label})"
        seeds = [r.seed for r in self.replicates]
        title += f" — seeds {seeds}" if len(seeds) > 1 else f" — seed {seeds[0]}" if seeds else ""
        if len(self.replicates) > 1:
            table = ResultTable(["metric", "mean", "ci95", "min", "max"], title=title)
            for key in sorted(self.metrics):
                stats = self.spread(key)
                low, high = self.ci95(key)
                table.add_row(key, stats["mean"], f"[{low:.4g}, {high:.4g}]",
                              stats["min"], stats["max"])
        else:
            table = ResultTable(["metric", "value"], title=title)
            for key, value in sorted(self.metrics.items()):
                table.add_row(key, value)
        return table

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-serialisable representation (deterministic ordering)."""
        return self._fields([replicate.to_dict() for replicate in self.replicates])

    def json_tree(self, depth: int) -> Dict[str, object]:
        """:meth:`to_dict` for :func:`jsonfmt.render` at ``depth``.

        The replicate rows — most of a sweep's bytes — are rendered here
        straight from the replicates into a :class:`jsonfmt.Fragment`, so
        their dicts are never built.
        """
        return self._fields(jsonfmt.Fragment(
            _replicate_rows(self.replicates, depth + 1)))

    def _fields(self, replicates: object) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "family": self.family,
            "label": self.label,
            "spec": self.spec,
            "metrics": dict(sorted(self.metrics.items())),
            "replicates": replicates,
        }

    def to_json(self) -> str:
        """Deterministic JSON rendering of :meth:`to_dict`."""
        return jsonfmt.dumps(self.json_tree(0))

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioResult":
        """Inverse of :meth:`to_dict` (the stored mean metrics are recomputed)."""
        return cls(
            scenario=str(data["scenario"]),
            family=str(data["family"]),
            label=str(data.get("label", "")),
            spec=dict(data.get("spec") or {}),
            replicates=[ReplicateResult.from_dict(entry)
                        for entry in data.get("replicates", [])],
        )


def results_to_json(results: List[ScenarioResult]) -> str:
    """One JSON document for a list of results (sweep output)."""
    return jsonfmt.dumps([result.json_tree(1) for result in results])


def _replicate_rows(replicates: Sequence[ReplicateResult], depth: int) -> str:
    """``jsonfmt.render([r.to_dict() for r in replicates], depth)``.

    The rows go through one C call, as ``[[metrics, seed], ...]`` at the
    depth of the metrics dicts, whose item separator ``sep`` then separates
    every list and dict in the text.  When each metrics dict is non-empty
    and holds only scalars (an encoded scalar holds no raw newline),
    ``"}" + sep`` occurs only where a metrics dict ends and
    ``"]" + sep + "[{"`` only where a row ends, so two replaces turn the
    text into the indented rows.  Other rows are rendered from their dicts.
    """
    if not replicates or not _scalar_rows(replicates):
        return jsonfmt.render([replicate.to_dict() for replicate in replicates],
                              depth)
    encoder, metrics_inner, metrics_outer = jsonfmt.level(depth + 2)
    _, row_inner, row_outer = jsonfmt.level(depth + 1)
    _, inner, outer = jsonfmt.level(depth)
    sep = "," + metrics_inner
    opening = "{" + row_inner + '"metrics": {' + metrics_inner
    text = "".join(encoder([[replicate.metrics, replicate.seed]
                            for replicate in replicates], 0))
    rows = text[3:-2].replace(
        "}" + sep, metrics_outer + "}," + row_inner + '"seed": ').replace(
        "]" + sep + "[{", row_outer + "}," + inner + opening)
    return "[" + inner + opening + rows + row_outer + "}" + outer + "]"


def _scalar_rows(replicates: Sequence[ReplicateResult]) -> bool:
    """Whether every row has a scalar seed and non-empty scalar metrics."""
    for replicate in replicates:
        if not replicate.metrics or isinstance(replicate.seed, _CONTAINERS):
            return False
        for value in replicate.metrics.values():
            if isinstance(value, _CONTAINERS):
                return False
    return True
