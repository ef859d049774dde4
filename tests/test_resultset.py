"""ResultSet: the query surface over collections of scenario results."""

import json

import pytest

from repro.analysis.resultset import ResultSet, axis_value
from repro.scenarios.result import ReplicateResult, ScenarioResult


def make_result(scenario, family, metrics, label="", claim="", spec=None,
                replicates=None):
    """A synthetic ScenarioResult (no simulation involved)."""
    spec = dict(spec or {})
    spec.setdefault("claim", claim)
    if replicates is None:
        replicates = [ReplicateResult(seed=1, metrics=dict(metrics))]
    return ScenarioResult(scenario=scenario, family=family, label=label,
                          spec=spec, replicates=replicates)


@pytest.fixture
def sample():
    return ResultSet([
        make_result("pow-baseline", "permissionless", {"throughput_tps": 4.5},
                    label="bitcoin", claim="E7",
                    spec={"architecture": {"protocol": "bitcoin"}}),
        make_result("pow-ethereum", "permissionless", {"throughput_tps": 15.0},
                    label="ethereum", claim="E7",
                    spec={"architecture": {"protocol": "ethereum"}}),
        make_result("pbft-consortium", "consensus",
                    {"throughput_tps": 3000.0, "mean_latency_s": 0.2},
                    label="pbft", claim="E15",
                    spec={"architecture": {"replicas": 4}}),
        make_result("pbft-consortium", "consensus",
                    {"throughput_tps": 2500.0, "mean_latency_s": 0.4},
                    label="pbft-large", claim="E15",
                    spec={"architecture": {"replicas": 13}}),
    ], name="sample", description="a synthetic comparison")


class TestAxes:
    def test_attribute_spec_and_metric_axes(self, sample):
        result = sample[0]
        assert axis_value(result, "scenario") == "pow-baseline"
        assert axis_value(result, "family") == "permissionless"
        assert axis_value(result, "label") == "bitcoin"
        assert axis_value(result, "claim") == "E7"
        assert axis_value(result, "architecture.protocol") == "bitcoin"
        assert axis_value(result, "spec.architecture.protocol") == "bitcoin"
        assert axis_value(result, "throughput_tps") == 4.5
        assert axis_value(result, "no.such.axis") is None
        assert axis_value(result, lambda r: r.scenario.upper()) == "POW-BASELINE"

    def test_axis_values_unique_in_order(self, sample):
        assert sample.axis_values("family") == ["permissionless", "consensus"]
        assert sample.axis_values("architecture.replicas") == [None, 4, 13]


class TestQuerying:
    def test_filter_by_equality_membership_and_predicate(self, sample):
        assert len(sample.filter(family="consensus")) == 2
        assert sample.filter(scenario="pow-baseline").labels() == ["bitcoin"]
        assert sample.filter(family=["permissionless", "consensus"]).labels() == \
            sample.labels()
        assert sample.filter(**{"architecture.replicas": 13}).labels() == ["pbft-large"]
        fast = sample.filter(lambda r: r.metrics["throughput_tps"] > 100)
        assert fast.labels() == ["pbft", "pbft-large"]

    def test_filter_keeps_name_and_returns_resultset(self, sample):
        subset = sample.filter(family="consensus")
        assert isinstance(subset, ResultSet)
        assert subset.name == "sample"

    def test_only(self, sample):
        assert sample.only(label="bitcoin").scenario == "pow-baseline"
        with pytest.raises(KeyError, match="found 0"):
            sample.only(label="nope")
        with pytest.raises(KeyError, match="found 2"):
            sample.only(family="consensus")

    def test_group_by(self, sample):
        groups = sample.group_by("family")
        assert list(groups) == ["permissionless", "consensus"]
        assert groups["consensus"].labels() == ["pbft", "pbft-large"]
        assert all(isinstance(group, ResultSet) for group in groups.values())

    def test_concatenation(self, sample):
        doubled = sample + sample
        assert len(doubled) == 2 * len(sample)
        assert doubled.name == "sample"


class TestAggregation:
    def test_aggregate_pools_replicates(self, sample):
        merged = sample.aggregate(by="scenario")
        assert merged.scenarios() == ["pow-baseline", "pow-ethereum", "pbft-consortium"]
        pbft = merged.only(scenario="pbft-consortium")
        assert len(pbft.replicates) == 2
        assert pbft.metric("throughput_tps") == pytest.approx(2750.0)
        assert pbft.family == "consensus"

    def test_aggregate_mixed_family_group(self, sample):
        merged = sample.aggregate(by=lambda result: "all")
        assert len(merged) == 1
        combined = merged[0]
        assert combined.label == "all"
        assert combined.family == "mixed"
        assert len(combined.replicates) == 4


class TestStatistics:
    @pytest.fixture
    def replicated(self):
        replicates = [ReplicateResult(seed=s, metrics={"m": float(v)})
                      for s, v in zip(range(5), [10, 11, 9, 12, 10])]
        return ResultSet([
            ScenarioResult(scenario="x", family="consensus", label="x",
                           spec={}, replicates=replicates),
        ])

    def test_ci95_brackets_mean_and_is_deterministic(self, replicated):
        result = replicated[0]
        low, high = result.ci95("m")
        assert min(r.metrics["m"] for r in result.replicates) <= low
        assert low <= result.metric("m") <= high
        assert high <= max(r.metrics["m"] for r in result.replicates)
        assert result.ci95("m") == replicated[0].ci95("m")
        assert replicated.ci95("m") == {"x": (low, high)}

    def test_ci95_disambiguates_duplicate_labels(self):
        def result(value):
            return ScenarioResult(
                scenario="pow-baseline", family="permissionless", spec={},
                replicates=[ReplicateResult(seed=s, metrics={"m": value + s})
                            for s in range(3)])

        results = ResultSet([result(10.0), result(20.0)])
        intervals = results.ci95("m")
        assert list(intervals) == ["pow-baseline", "pow-baseline#2"]
        assert intervals["pow-baseline"] != intervals["pow-baseline#2"]

    def test_ci95_unknown_metric(self, replicated):
        with pytest.raises(KeyError):
            replicated[0].ci95("warp_factor")

    def test_metrics_property_is_cached(self, replicated):
        result = replicated[0]
        assert result.metrics is result.metrics

    def test_single_result_table_gains_ci_column(self, replicated):
        table = replicated[0].table()
        assert "ci95" in table.columns
        cell = table.rows[0][table.columns.index("ci95")]
        assert cell.startswith("[") and cell.endswith("]")


class TestRendering:
    def test_rows(self, sample):
        rows = sample.rows(metrics=["throughput_tps"])
        assert rows[0] == {"label": "bitcoin", "throughput_tps": 4.5}
        assert len(rows) == len(sample)

    def test_to_table_defaults_to_common_metrics(self, sample):
        table = sample.to_table()
        assert table.columns == ["label", "throughput_tps"]
        assert [row[0] for row in table.rows] == sample.labels()

    def test_to_table_fills_missing_metrics(self, sample):
        table = sample.to_table(metrics=["throughput_tps", "mean_latency_s"])
        assert table.rows[0][2] == "-"
        assert table.rows[2][2] != "-"

    def test_to_table_ci_columns(self):
        replicates = [ReplicateResult(seed=s, metrics={"m": float(s)})
                      for s in range(4)]
        results = ResultSet([ScenarioResult(scenario="x", family="consensus",
                                            label="x", spec={},
                                            replicates=replicates)])
        table = results.to_table(metrics=["m"])
        assert table.columns == ["label", "m", "m ci95"]
        # A single-replicate result renders the interval cell as "-".
        single = ResultSet([ScenarioResult(scenario="y", family="consensus",
                                           label="y", spec={},
                                           replicates=replicates[:1])])
        assert single.to_table(metrics=["m"], ci=True).rows[0][2] == "-"


class TestSerialisation:
    def test_json_round_trip_and_determinism(self, sample):
        payload = sample.to_json()
        assert payload == sample.to_json()
        restored = ResultSet.from_json(payload)
        assert restored.to_json() == payload
        assert restored.labels() == sample.labels()
        assert restored[0].metrics == sample[0].metrics
        data = json.loads(payload)
        assert data["name"] == "sample"
        assert len(data["results"]) == len(sample)

    def test_scenario_result_from_dict_round_trip(self, sample):
        result = sample[2]
        clone = ScenarioResult.from_dict(result.to_dict())
        assert clone == result
        assert clone.metrics == result.metrics
