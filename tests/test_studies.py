"""The Study API: registry, runner and CLI subcommand."""

import json

import pytest

from repro.run import main as run_main
from repro.scenarios import (
    STUDIES,
    ResultSet,
    StudyMember,
    StudySpec,
    get_study,
    run_study,
    study_names,
)

#: Dotted-path trims that make the figure1 study run in well under a second.
FIGURE1_TRIMS = {
    "bitcoin": {"architecture.duration_blocks": 15},
    "ethereum": {"architecture.duration_blocks": 45},
    "pbft": {"duration": 1.0},
    "fabric": {"duration": 1.0},
    "edge": {"duration": 1.0},
}

FIGURE1_TRIM_ARGS = [
    "--set", "bitcoin.architecture.duration_blocks=15",
    "--set", "ethereum.architecture.duration_blocks=45",
    "--set", "pbft.duration=1.0",
    "--set", "fabric.duration=1.0",
    "--set", "edge.duration=1.0",
]


class TestStudyRegistry:
    def test_required_studies_are_registered(self):
        assert {"figure1", "trilemma", "churn-resilience"} <= set(study_names())

    def test_get_study_returns_copies(self):
        first = get_study("figure1")
        first.members[0].overrides["workload.rate_tps"] = 1.0
        assert get_study("figure1").members[0].overrides["workload.rate_tps"] == 25.0

    def test_unknown_study_message_lists_names(self):
        with pytest.raises(KeyError, match="known studies"):
            get_study("warp-drive")

    def test_members_reference_registered_scenarios(self):
        from repro.scenarios import SCENARIOS

        for name in study_names():
            for member in STUDIES[name].members:
                assert member.scenario in SCENARIOS, (name, member.label)

    def test_figure1_pins_one_matched_workload(self):
        study = STUDIES["figure1"]
        rates = {member.overrides.get("workload.rate_tps")
                 for member in study.members}
        assert len(rates) == 1

    def test_duplicate_member_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate member labels"):
            StudySpec(name="x", members=[
                StudyMember("a", "pow-baseline"),
                StudyMember("a", "pow-ethereum"),
            ])

    def test_spec_dict_round_trip(self):
        spec = get_study("figure1")
        assert StudySpec.from_dict(spec.to_dict()) == spec


class TestRunStudy:
    def test_member_subset_and_labels(self):
        results = run_study("figure1", members=["pbft", "fabric"],
                            member_overrides={"*": {"duration": 0.5}})
        assert isinstance(results, ResultSet)
        assert results.labels() == ["pbft", "fabric"]
        assert results.name == "figure1"
        # Both consortium members saw the study's matched offered load.
        assert results.axis_values("workload.rate_tps") == [25.0]

    def test_unknown_member_and_override_labels(self):
        with pytest.raises(KeyError, match="no members"):
            run_study("figure1", members=["warp"])
        with pytest.raises(KeyError, match="unknown members"):
            run_study("figure1", member_overrides={"warp": {"seed": 1}})

    def test_deterministic_json(self):
        first = run_study("churn-resilience", member_overrides={
            "*": {"topology.size": 80, "workload.lookups": 10}})
        second = run_study("churn-resilience", member_overrides={
            "*": {"topology.size": 80, "workload.lookups": 10}})
        assert first.to_json() == second.to_json()
        assert first.labels() == ["kademlia", "one-hop", "unstructured"]
        # All three overlay substrates report the comparable latency metrics.
        for metric in ("median_latency_s", "failure_rate"):
            assert metric in first.metric_names(common=True)

    def test_sweep_member_expands_with_prefixed_labels(self):
        spec = StudySpec(name="adhoc", members=[
            StudyMember("market", "market-concentration",
                        {"architecture.steps": 30,
                         "architecture.arrivals_per_step": 40},
                        sweep=True),
        ])
        results = run_study(spec)
        assert len(results) == 3
        assert all(label.startswith("market: preferential_exponent=")
                   for label in results.labels())

    def test_replicates_fan_out(self):
        results = run_study("concentration", members=["mining-pools"],
                            replicates=2,
                            member_overrides={"mining-pools": {
                                "architecture.miners": 150,
                                "architecture.rounds": 15}})
        (pools,) = list(results)
        assert [replicate.seed for replicate in pools.replicates] == [3, 4]
        low, high = pools.ci95("top1")
        assert low <= pools.metric("top1") <= high


class TestStudyCli:
    def test_list_studies(self, capsys):
        assert run_main(["--list-studies"]) == 0
        out = capsys.readouterr().out
        for name in study_names():
            assert name in out

    def test_study_without_name_lists_and_fails(self, capsys):
        assert run_main(["study"]) == 2
        assert "figure1" in capsys.readouterr().out

    def test_unknown_study_fails(self, capsys):
        assert run_main(["study", "warp-drive"]) == 2
        assert "unknown study" in capsys.readouterr().err

    def test_unknown_member_in_set_fails(self, capsys):
        assert run_main(["study", "figure1", "--set", "warp.duration=1"]) == 2
        assert "unknown member" in capsys.readouterr().err

    def test_figure1_json_is_byte_identical_across_runs(self, capsys):
        argv = (["study", "figure1", "--quiet", "--json", "-"]
                + FIGURE1_TRIM_ARGS)
        assert run_main(argv) == 0
        first = capsys.readouterr().out
        assert run_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["name"] == "figure1"
        labels = [entry["label"] for entry in payload["results"]]
        assert labels == ["bitcoin", "ethereum", "pbft", "fabric", "edge"]
        # The CLI --set reached its member: the trim is recorded in the spec.
        bitcoin = payload["results"][0]
        assert bitcoin["spec"]["architecture"]["duration_blocks"] == 15

    def test_members_flag(self, capsys):
        argv = ["study", "figure1", "--members", "pbft,fabric", "--quiet",
                "--json", "-", "--set", "pbft.duration=0.5",
                "--set", "fabric.duration=0.5"]
        assert run_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["label"] for entry in payload["results"]] == ["pbft", "fabric"]

    def test_replicates_prints_ci_column(self, capsys):
        argv = ["pos-slashing", "--set", "architecture.rounds=150",
                "--replicates", "3"]
        assert run_main(argv) == 0
        out = capsys.readouterr().out
        assert "ci95" in out
