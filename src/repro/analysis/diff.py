"""Drift verification: structural + numeric comparison of two ResultSets.

The repo's product is *numbers that stay right*: every registered scenario
is deterministic at a fixed seed, so two runs of the same configuration
must agree exactly, and a longitudinal grid (the nightly ``figure1``
study) must agree within its statistical noise.  This module is the
comparison layer that makes either statement checkable:

* **Structural**: results are keyed by the content hash of their stored
  spec (:meth:`ScenarioSpec.spec_hash`), so the diff reports *added*,
  *removed* and *changed* units rather than positional noise.  Units whose
  spec changed but whose (scenario, label) identity is stable — a flipped
  seed, a retuned knob — pair up as ``changed`` with ``spec_changed`` set
  instead of degrading into an add/remove pair.
* **Numeric**: every shared metric of a matched pair is compared under a
  per-metric :class:`Tolerance` (relative + absolute, zero by default), and
  when both sides carry replicates the 95% bootstrap intervals are tested
  for overlap — the statistically honest check for noisy nightly grids.
* **Reportable**: a :class:`DiffReport` renders as a
  :class:`~repro.analysis.tables.ResultTable` for humans and serialises via
  :meth:`DiffReport.to_json` for machines (the nightly CI job parses it).

Usage::

    from repro.analysis.diff import Tolerance, diff_resultsets

    report = diff_resultsets(golden, current)          # zero tolerance
    assert report.identical, report.table().render()

    report = diff_resultsets(
        last_night, tonight,
        tolerances={"throughput_tps": Tolerance(rel=0.05), "*": Tolerance(rel=0.2)},
    )
    print(report.summary())
    print(report.to_json())

Per-metric tolerances accept ``fnmatch`` globs (``"*_latency_s"``,
``"p9?_latency_s"``), resolved most-specific-first: an exact metric name
wins over glob patterns (tried in declaration order), which win over the
``"*"`` fallback.  :data:`TOLERANCE_PROFILES` names curated tolerance
maps for recurring comparisons — ``"sketch"`` bounds the agreement
between streaming-sketch and exact metrics collection
(:mod:`repro.sim.metrics`), ``"latency"`` absorbs the sampling noise of
latency percentiles across seeds/nights while keeping everything else
tight, and ``"cross-substrate"`` compares the scalar and vectorized
(``kad-fast``) Kademlia substrates at overlapping network sizes —
ignoring fast-path-only bookkeeping metrics and (being a
:data:`SPEC_DRIFT_PROFILES` member) pairing across the deliberate
``architecture.overlay`` spec difference.

The CLI front end is ``repro-run diff A B [--profile NAME]
[--tol metric=rel]`` where A/B are RunStore names, JSON paths, or ``-``
for stdin; explicit ``--tol`` entries override the profile's.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis import jsonfmt
from repro.analysis.resultset import ResultSet
from repro.analysis.tables import ResultTable

#: Schema tag written into every serialised report.
SCHEMA = "diffreport/v1"

#: Replicate count from which CI-overlap testing switches on.
MIN_REPLICATES_FOR_CI = 2


@dataclass(frozen=True)
class Tolerance:
    """Acceptable per-metric drift: ``|a - b| <= abs + rel * |a|``.

    The reference side of the relative term is A (the baseline run), so a
    5% tolerance means "within 5% of where we started".  The default is
    exact equality — the right contract for fixed-seed golden comparisons.

    ``ignore=True`` drops the metric from the comparison entirely: it is
    neither judged numerically nor counted as a one-sided
    (``only_a``/``only_b``) asymmetry.  This is how cross-substrate
    profiles absorb bookkeeping metrics only one implementation reports
    (the fast path's ``events_processed``, for example).
    """

    rel: float = 0.0
    abs: float = 0.0
    ignore: bool = False

    def __post_init__(self) -> None:
        if self.rel < 0.0 or self.abs < 0.0:
            raise ValueError("tolerances must be non-negative")

    def allows(self, a: float, b: float) -> bool:
        """Whether a baseline value ``a`` drifting to ``b`` is acceptable."""
        if self.ignore:
            return True
        return abs(a - b) <= self.abs + self.rel * abs(a)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"rel": self.rel, "abs": self.abs}
        if self.ignore:
            data["ignore"] = True
        return data


def parse_tolerance(argument: str) -> Tuple[str, Tolerance]:
    """Parse one CLI ``--tol`` assignment into ``(metric, Tolerance)``.

    Accepted forms (``*`` as the metric applies to every metric without a
    more specific entry)::

        --tol throughput_tps=0.05          5% relative
        --tol latency_mean_s=abs:0.002     2 ms absolute
        --tol stale_rate=rel:0.1,abs:1e-6  both terms
        --tol events_processed=ignore      drop the metric entirely
    """
    metric, separator, value = argument.partition("=")
    metric = metric.strip()
    if not separator or not metric or not value.strip():
        raise ValueError(
            f"--tol expects METRIC=REL (or METRIC=abs:X / rel:X,abs:Y / "
            f"METRIC=ignore), got {argument!r}"
        )
    if value.strip().lower() == "ignore":
        return metric, Tolerance(ignore=True)
    rel = 0.0
    absolute = 0.0
    for part in value.split(","):
        kind, tagged, magnitude = part.strip().partition(":")
        if not tagged:
            kind, magnitude = "rel", part
        try:
            magnitude = float(magnitude)
        except ValueError:
            raise ValueError(
                f"--tol {argument!r}: {part.strip()!r} is not a number"
            ) from None
        if kind == "rel":
            rel = magnitude
        elif kind == "abs":
            absolute = magnitude
        else:
            raise ValueError(
                f"--tol {argument!r}: unknown term {kind!r} (use rel/abs)"
            )
    return metric, Tolerance(rel=rel, abs=absolute)


def tolerance_for(metric: str,
                  tolerances: Optional[Mapping[str, Tolerance]]) -> Tolerance:
    """The tolerance of one metric, most specific entry first.

    Resolution order: an exact metric-name entry, then glob patterns
    (``fnmatch`` syntax — ``*_latency_s``, ``p9?_latency_s``) in
    declaration order, then the ``"*"`` fallback, then zero (exact
    equality).  ``"*"`` always resolves last regardless of position, so
    profiles can list it anywhere.
    """
    if not tolerances:
        return Tolerance()
    if metric in tolerances:
        return tolerances[metric]
    for pattern, tolerance in tolerances.items():
        if pattern == "*":
            continue
        if any(ch in pattern for ch in "*?[") and fnmatchcase(metric, pattern):
            return tolerance
    return tolerances.get("*", Tolerance())


#: Named tolerance maps for recurring comparison jobs
#: (``repro-run diff --profile NAME``).  Explicit ``--tol`` entries are
#: layered on top of the chosen profile.
TOLERANCE_PROFILES: Dict[str, Dict[str, Tolerance]] = {
    # Streaming-sketch vs exact metrics collection over the *same*
    # trajectory (repro.sim.metrics).  Percentiles come from a
    # 1%-relative-error log-bucketed sketch, so they may shift by the
    # bucket width plus rank-interpolation discreteness (bounded well
    # inside 2.5% — asserted across distributions by
    # tests/test_streaming_metrics.py); threshold fractions can move by
    # the mass of one boundary bucket; everything not derived from a
    # percentile sketch (counts, means, rates) must agree exactly.
    "sketch": {
        # Means are exact in both modes (Welford vs list sum); the
        # allowance is float summation-order slack only.
        "mean_latency_s": Tolerance(rel=1e-9, abs=1e-12),
        "median_latency_s": Tolerance(rel=0.025, abs=1e-6),
        "p9?_latency_s": Tolerance(rel=0.025, abs=1e-6),
        "*_latency_s": Tolerance(rel=0.025, abs=1e-6),
        "fraction_within_*": Tolerance(abs=0.02),
        "*": Tolerance(),
    },
    # Cross-seed / night-over-night comparisons where latency order
    # statistics are legitimately noisy (tail percentiles especially)
    # but throughput-like metrics should stay put.  The carried-over
    # ROADMAP item for the nightly grid.
    "latency": {
        "p99_latency_s": Tolerance(rel=0.40),
        "p90_latency_s": Tolerance(rel=0.25),
        "*_latency_s": Tolerance(rel=0.20),
        "fraction_within_*": Tolerance(abs=0.05),
        "*": Tolerance(rel=0.05),
    },
    # Scalar (event-driven) vs vectorized (kad-fast) Kademlia at the same
    # overlay size: two *models* of the same system, not two runs of the
    # same model.  Latency and hop distributions should land in the same
    # regime but never match exactly; fast-path bookkeeping metrics with
    # no scalar counterpart are dropped outright.  Used with
    # ``spec_changed_ok`` pairing (the two sides differ in
    # ``architecture.overlay`` by construction, so spec drift is the
    # premise of the comparison, not a failure of it).
    "cross-substrate": {
        "online_fraction": Tolerance(ignore=True),
        "events_processed": Tolerance(ignore=True),
        "churn_rate_per_hour": Tolerance(ignore=True),
        "lookups": Tolerance(),  # same workload on both sides, exactly
        "p99_latency_s": Tolerance(rel=0.60, abs=0.5),
        "p90_latency_s": Tolerance(rel=0.50, abs=0.25),
        "*_latency_s": Tolerance(rel=0.50, abs=0.25),
        "fraction_within_*": Tolerance(abs=0.15),
        "failure_rate": Tolerance(abs=0.10),
        "timeouts_per_lookup": Tolerance(rel=0.75, abs=0.5),
        # The scalar path counts every parallel RPC as a hop; the fast
        # path counts iterative routing depth.  Same O(log N) shape,
        # different constant — hence the wide relative band.
        "hops_per_lookup": Tolerance(rel=0.80, abs=0.5),
        "routing_staleness": Tolerance(abs=0.20),
        "*": Tolerance(rel=0.50),
    },
}

#: Profiles whose comparison *expects* the paired specs to differ (the
#: two sides deliberately run different substrates/knobs), so a pair
#: matched by (scenario, label) identity is judged on its metrics alone
#: instead of being forced to ``changed`` by the spec divergence.  The
#: CLI passes ``spec_changed_ok=True`` to :func:`diff_resultsets` for
#: these.
SPEC_DRIFT_PROFILES = frozenset({"cross-substrate"})


def tolerance_profile(name: str) -> Dict[str, Tolerance]:
    """A copy of one named profile from :data:`TOLERANCE_PROFILES`."""
    if name not in TOLERANCE_PROFILES:
        raise ValueError(
            f"unknown tolerance profile {name!r}; "
            f"pick one of {sorted(TOLERANCE_PROFILES)}"
        )
    return dict(TOLERANCE_PROFILES[name])


# ----------------------------------------------------------------------
# Per-unit comparison records
# ----------------------------------------------------------------------
@dataclass
class MetricDelta:
    """One metric compared across a matched pair of results."""

    metric: str
    a: float
    b: float
    within: bool
    #: CI-overlap verdict: ``None`` when either side lacks replicates.
    ci_overlap: Optional[bool] = None

    @property
    def abs_delta(self) -> float:
        return self.b - self.a

    @property
    def rel_delta(self) -> Optional[float]:
        """Signed relative delta vs A; ``None`` when A is zero and B is not."""
        if self.a == 0.0:
            return 0.0 if self.b == 0.0 else None
        return (self.b - self.a) / abs(self.a)

    def to_dict(self) -> Dict[str, object]:
        return {
            "metric": self.metric,
            "a": self.a,
            "b": self.b,
            "abs_delta": self.abs_delta,
            "rel_delta": self.rel_delta,
            "within_tolerance": self.within,
            "ci_overlap": self.ci_overlap,
        }


@dataclass
class UnitDiff:
    """One result slot compared across the two sets.

    ``status`` is ``"added"`` (only in B), ``"removed"`` (only in A),
    ``"changed"`` or ``"unchanged"``.  ``spec_changed`` marks pairs that
    matched by (scenario, label) identity after their spec hashes diverged
    (a flipped seed, a retuned knob).  ``deltas`` holds every compared
    metric; :attr:`changed_metrics` filters to the out-of-tolerance ones.
    """

    key: str
    scenario: str
    label: str
    status: str
    spec_changed: bool = False
    deltas: List[MetricDelta] = field(default_factory=list)
    metrics_only_in_a: List[str] = field(default_factory=list)
    metrics_only_in_b: List[str] = field(default_factory=list)

    @property
    def display(self) -> str:
        """Human key: the label where set, else the scenario name."""
        return self.label or self.scenario

    @property
    def changed_metrics(self) -> List[MetricDelta]:
        return [delta for delta in self.deltas if not delta.within]

    @property
    def ci_failures(self) -> List[MetricDelta]:
        return [delta for delta in self.deltas if delta.ci_overlap is False]

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "scenario": self.scenario,
            "label": self.label,
            "status": self.status,
            "spec_changed": self.spec_changed,
            "metrics_only_in_a": list(self.metrics_only_in_a),
            "metrics_only_in_b": list(self.metrics_only_in_b),
            "deltas": [delta.to_dict() for delta in self.deltas],
        }


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
@dataclass
class DiffReport:
    """The full outcome of comparing two ResultSets."""

    a_label: str
    b_label: str
    units: List[UnitDiff] = field(default_factory=list)
    tolerances: Dict[str, Tolerance] = field(default_factory=dict)

    def _with_status(self, status: str) -> List[UnitDiff]:
        return [unit for unit in self.units if unit.status == status]

    @property
    def added(self) -> List[UnitDiff]:
        return self._with_status("added")

    @property
    def removed(self) -> List[UnitDiff]:
        return self._with_status("removed")

    @property
    def changed(self) -> List[UnitDiff]:
        return self._with_status("changed")

    @property
    def unchanged(self) -> List[UnitDiff]:
        return self._with_status("unchanged")

    @property
    def identical(self) -> bool:
        """No structural drift and every metric within tolerance."""
        return not (self.added or self.removed or self.changed)

    @property
    def ci_failures(self) -> List[Tuple[UnitDiff, MetricDelta]]:
        """Every (unit, delta) whose bootstrap intervals fail to overlap."""
        return [(unit, delta) for unit in self.units
                for delta in unit.ci_failures]

    def summary(self) -> str:
        """A one-line verdict suitable for CLI output and CI logs."""
        counts = (f"{len(self.unchanged)} unchanged, {len(self.changed)} "
                  f"changed, {len(self.added)} added, {len(self.removed)} "
                  f"removed")
        verdict = "identical" if self.identical else "DRIFT"
        line = f"{self.a_label} vs {self.b_label}: {verdict} ({counts})"
        failures = self.ci_failures
        if failures:
            line += f"; {len(failures)} metric(s) outside CI overlap"
        return line

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "a": self.a_label,
            "b": self.b_label,
            "identical": self.identical,
            "summary": {
                "added": len(self.added),
                "removed": len(self.removed),
                "changed": len(self.changed),
                "unchanged": len(self.unchanged),
                "ci_failures": len(self.ci_failures),
            },
            "tolerances": {metric: tolerance.to_dict()
                           for metric, tolerance in sorted(self.tolerances.items())},
            "units": [unit.to_dict() for unit in self.units],
        }

    def to_json(self) -> str:
        """Deterministic, machine-readable JSON rendering."""
        return jsonfmt.dumps(self.to_dict())

    # -- rendering -----------------------------------------------------
    def table(self, max_unchanged: int = 0) -> ResultTable:
        """The drift as a :class:`ResultTable`.

        One row per out-of-tolerance metric of every changed pair, one row
        per added/removed unit, plus (optionally) up to ``max_unchanged``
        rows confirming clean units.
        """
        table = ResultTable(
            ["unit", "status", "metric", "a", "b", "delta", "rel", "ci95"],
            title=self.summary(),
        )
        for unit in self.units:
            if unit.status in ("added", "removed"):
                table.add_row(unit.display, unit.status,
                              "-", "-", "-", "-", "-", "-")
                continue
            status = unit.status
            if unit.spec_changed:
                status += " (spec)"
            for name in unit.metrics_only_in_a:
                table.add_row(unit.display, status, name, "present", "-",
                              "-", "-", "-")
            for name in unit.metrics_only_in_b:
                table.add_row(unit.display, status, name, "-", "present",
                              "-", "-", "-")
            shown = unit.changed_metrics or (
                unit.deltas[:1] if unit.spec_changed else [])
            for delta in shown:
                rel = delta.rel_delta
                table.add_row(
                    unit.display, status, delta.metric, delta.a, delta.b,
                    delta.abs_delta,
                    f"{rel:+.2%}" if rel is not None else "-",
                    {True: "overlap", False: "DISJOINT", None: "-"}[delta.ci_overlap],
                )
        for unit in self.unchanged[:max_unchanged]:
            table.add_row(unit.display, "unchanged", "-", "-", "-", "-", "-", "-")
        return table


# ----------------------------------------------------------------------
# The comparison itself
# ----------------------------------------------------------------------
#: Spec keys that select how a run is *measured*, not what it simulates.
#: They are excluded from diff identity so an exact-metrics run and a
#: ``metrics: streaming`` rerun of the same experiment pair up as one
#: unit — the whole point of ``--profile sketch`` is to judge exactly
#: that numeric drift, which spec-level pairing would otherwise mask as
#: an unconditional "changed (spec)".
OBSERVATIONAL_SPEC_KEYS = ("metrics",)


def result_key(result) -> str:
    """The structural identity of one result: its spec's content hash.

    Uses :meth:`ScenarioSpec.spec_hash` when the stored spec round-trips
    (the normal case for framework output) and falls back to hashing the
    raw spec JSON for hand-built documents, so foreign ResultSets still
    diff structurally.  :data:`OBSERVATIONAL_SPEC_KEYS` are dropped
    before hashing.
    """
    from repro.scenarios.spec import ScenarioSpec

    spec = {key: value for key, value in (result.spec or {}).items()
            if key not in OBSERVATIONAL_SPEC_KEYS}
    try:
        return ScenarioSpec.from_dict(spec).spec_hash()
    except (TypeError, ValueError, KeyError):
        payload = jsonfmt.compact(spec)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _keyed(results: ResultSet) -> Dict[str, object]:
    """Results keyed by spec hash; duplicates disambiguated with ``#n``."""
    keyed: Dict[str, object] = {}
    seen: Dict[str, int] = {}
    for result in results:
        key = result_key(result)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key = f"{key}#{seen[key]}"
        keyed[key] = result
    return keyed


def _ci_overlap(a_result, b_result, metric: str) -> Optional[bool]:
    """Whether the 95% bootstrap intervals of a metric overlap.

    ``None`` when either side lacks enough replicates reporting the metric
    for an interval to mean anything.
    """
    def _interval(result) -> Optional[Tuple[float, float]]:
        values = [replicate.metrics[metric] for replicate in result.replicates
                  if metric in replicate.metrics]
        if len(values) < MIN_REPLICATES_FOR_CI:
            return None
        return result.ci95(metric)

    interval_a = _interval(a_result)
    interval_b = _interval(b_result)
    if interval_a is None or interval_b is None:
        return None
    return interval_a[0] <= interval_b[1] and interval_b[0] <= interval_a[1]


def _compare_pair(key: str, a_result, b_result, spec_changed: bool,
                  tolerances: Optional[Mapping[str, Tolerance]],
                  spec_changed_ok: bool = False) -> UnitDiff:
    """Numeric comparison of one matched pair of results.

    Metrics whose resolved :class:`Tolerance` has ``ignore`` set are
    excluded from both the delta list and the one-sided
    (``only_a``/``only_b``) bookkeeping.  ``spec_changed_ok`` stops a
    ``spec_changed`` pair from being forced to *changed*: the verdict
    then rests on the metrics alone (the ``spec_changed`` flag is still
    recorded and rendered).
    """
    def _ignored(metric: str) -> bool:
        return tolerance_for(metric, tolerances).ignore

    a_metrics = a_result.metrics
    b_metrics = b_result.metrics
    shared = sorted(set(a_metrics) & set(b_metrics))
    deltas = []
    for metric in shared:
        if _ignored(metric):
            continue
        a_value = a_metrics[metric]
        b_value = b_metrics[metric]
        within = tolerance_for(metric, tolerances).allows(a_value, b_value)
        if not within and (math.isnan(a_value) and math.isnan(b_value)):
            within = True  # a reproduced NaN is not drift
        deltas.append(MetricDelta(
            metric=metric, a=a_value, b=b_value, within=within,
            ci_overlap=_ci_overlap(a_result, b_result, metric),
        ))
    only_a = sorted(metric for metric in set(a_metrics) - set(b_metrics)
                    if not _ignored(metric))
    only_b = sorted(metric for metric in set(b_metrics) - set(a_metrics)
                    if not _ignored(metric))
    changed = (spec_changed and not spec_changed_ok) or only_a or only_b \
        or any(not delta.within for delta in deltas)
    return UnitDiff(
        key=key,
        scenario=b_result.scenario,
        label=b_result.label or a_result.label,
        status="changed" if changed else "unchanged",
        spec_changed=spec_changed,
        deltas=deltas,
        metrics_only_in_a=only_a,
        metrics_only_in_b=only_b,
    )


def diff_resultsets(
    a: ResultSet,
    b: ResultSet,
    tolerances: Optional[Mapping[str, Tolerance]] = None,
    a_label: str = "A",
    b_label: str = "B",
    spec_changed_ok: bool = False,
) -> DiffReport:
    """Compare two ResultSets structurally and numerically.

    Matching is two-pass: first by spec hash (exact structural identity),
    then leftover units pair by (scenario, label) so a spec change on a
    stable slot — the flipped-seed case — reports as *changed* with
    ``spec_changed`` set rather than as an add/remove pair.  Everything
    still unmatched is *removed* (A only) or *added* (B only).

    ``spec_changed_ok=True`` makes spec-divergent pairs acceptable: they
    are judged on their metrics only.  This is the pairing mode of
    :data:`SPEC_DRIFT_PROFILES` comparisons (e.g. ``cross-substrate``),
    where the two sides run *different* substrates of the same scenario
    on purpose.
    """
    a_keyed = _keyed(a)
    b_keyed = _keyed(b)
    units: List[UnitDiff] = []

    removed_leftovers: Dict[Tuple[str, str], List[Tuple[str, object]]] = {}
    for key, result in a_keyed.items():
        if key in b_keyed:
            units.append(_compare_pair(key, result, b_keyed[key],
                                       spec_changed=False,
                                       tolerances=tolerances))
        else:
            identity = (result.scenario, result.label)
            removed_leftovers.setdefault(identity, []).append((key, result))

    added_leftovers: List[Tuple[str, object]] = []
    for key, result in b_keyed.items():
        if key in a_keyed:
            continue
        identity = (result.scenario, result.label)
        candidates = removed_leftovers.get(identity)
        if candidates:
            a_key, a_result = candidates.pop(0)
            if not candidates:
                del removed_leftovers[identity]
            units.append(_compare_pair(f"{a_key}->{key}", a_result, result,
                                       spec_changed=True,
                                       tolerances=tolerances,
                                       spec_changed_ok=spec_changed_ok))
        else:
            added_leftovers.append((key, result))

    for identity, leftovers in removed_leftovers.items():
        for key, result in leftovers:
            units.append(UnitDiff(key=key, scenario=result.scenario,
                                  label=result.label, status="removed"))
    for key, result in added_leftovers:
        units.append(UnitDiff(key=key, scenario=result.scenario,
                              label=result.label, status="added"))

    return DiffReport(a_label=a_label, b_label=b_label, units=units,
                      tolerances=dict(tolerances or {}))
