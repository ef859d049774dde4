"""The execution API: plans, unit jobs, backends, and parallel==serial goldens."""

import json

import pytest

from repro.run import main as run_main
from repro.scenarios import (
    ExecutionPlan,
    ProcessPoolBackend,
    SerialBackend,
    UnitJob,
    backend_for,
    compile_scenario,
    compile_study,
    compile_sweep,
    execute_plan,
    get_scenario,
    run_study,
    run_sweep,
)
from repro.scenarios import execution as execution_module

from test_cli_errors import usage_error

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


class TestSpecHash:
    def test_stable_across_copies_and_round_trips(self):
        spec = get_scenario("pow-baseline")
        assert spec.spec_hash() == spec.copy().spec_hash()
        assert spec.spec_hash() == type(spec).from_dict(spec.to_dict()).spec_hash()

    def test_sensitive_to_every_override(self):
        spec = get_scenario("pow-baseline")
        assert spec.spec_hash() != spec.with_overrides(
            {"architecture.miner_count": 11}).spec_hash()
        assert spec.spec_hash() != spec.with_overrides({"seed": 2}).spec_hash()

    def test_canonical_json_is_key_sorted_and_minimal(self):
        payload = get_scenario("pow-baseline").canonical_json()
        assert ": " not in payload
        assert json.loads(payload)["name"] == "pow-baseline"


class TestPlans:
    def test_scenario_plan_one_slot_one_job_per_replicate(self):
        plan = compile_scenario("pos-slashing", replicates=3)
        assert len(plan) == 1
        assert [job.seed for job in plan.slots[0].jobs] == [1, 2, 3]
        assert len(plan.jobs) == 3
        assert all(job.spec.replicates == 1 for job in plan.jobs)

    def test_sweep_plan_one_slot_per_point(self):
        plan = compile_sweep("market-concentration")
        assert len(plan) == 3
        assert len(plan.jobs) == 3

    def test_study_plan_labels_and_member_jobs(self):
        plan = compile_study("figure1", member_overrides=FIGURE1_TRIMS)
        assert [slot.label for slot in plan.slots] == [
            "bitcoin", "ethereum", "pbft", "fabric", "edge"]
        assert len(plan.jobs) == 5

    def test_duplicate_units_deduplicate_by_key(self):
        # Two members running the identical computation share one unit job.
        from repro.scenarios import StudyMember, StudySpec

        spec = StudySpec(name="dup", members=[
            StudyMember("a", "pos-slashing", {"architecture.rounds": 100}),
            StudyMember("b", "pos-slashing", {"architecture.rounds": 100}),
        ])
        plan = compile_study(spec)
        assert len(plan.slots) == 2
        assert len(plan.jobs) == 1
        results = execute_plan(plan)
        assert results.labels() == ["a", "b"]
        assert results[0].metrics == results[1].metrics

    def test_assemble_rejects_missing_metrics(self):
        plan = compile_scenario("pos-slashing")
        with pytest.raises(KeyError, match="missing metrics"):
            plan.assemble({})

    def test_unit_job_key_embeds_seed_and_hash(self):
        spec = get_scenario("pos-slashing")
        [job] = UnitJob.for_seeds(spec, [9])
        assert job.key.endswith("-s9")
        assert job.spec.seed == 9 and job.spec.replicates == 1


class TestBackends:
    def test_backend_for_mapping(self):
        assert isinstance(backend_for(None), SerialBackend)
        assert isinstance(backend_for(0), SerialBackend)
        assert isinstance(backend_for(1), SerialBackend)
        pool = backend_for(4)
        assert isinstance(pool, ProcessPoolBackend) and pool.jobs == 4

    def test_pool_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(-2)

    def test_parallel_sweep_equals_serial(self):
        overrides = {"architecture.steps": 30, "architecture.arrivals_per_step": 40}
        serial = run_sweep("market-concentration", overrides=overrides)
        parallel = run_sweep("market-concentration", overrides=overrides,
                             backend=ProcessPoolBackend(3))
        assert serial.to_json() == parallel.to_json()

    def test_progress_callback_sees_every_job(self):
        ticks = []
        run_sweep("market-concentration",
                  overrides={"architecture.steps": 10,
                             "architecture.arrivals_per_step": 10},
                  progress=lambda done, total, job: ticks.append((done, total)))
        assert ticks == [(1, 3), (2, 3), (3, 3)]

    def test_completed_jobs_are_skipped(self, monkeypatch):
        plan = compile_scenario("pos-slashing",
                                overrides={"architecture.rounds": 100},
                                replicates=2)
        first = execute_plan(plan)
        metrics = {job.key: dict(replicate.metrics)
                   for job, replicate in zip(plan.jobs, first[0].replicates)}

        def boom(job):
            raise AssertionError(f"unit job {job.key} should have been skipped")

        monkeypatch.setattr(execution_module, "execute_unit", boom)
        resumed = SerialBackend().execute(plan, completed=metrics)
        assert resumed == {}
        assert plan.assemble(metrics).to_json() == first.to_json()


class TestGoldenFigure1:
    def test_figure1_study_json_byte_identical_under_jobs_4(self):
        serial = run_study("figure1", replicates=2,
                           member_overrides=FIGURE1_TRIMS)
        parallel = run_study("figure1", replicates=2,
                             member_overrides=FIGURE1_TRIMS,
                             backend=ProcessPoolBackend(4))
        assert serial.to_json() == parallel.to_json()

    def test_cli_jobs_flag_byte_identical(self, capsys):
        argv = ["study", "figure1", "--quiet", "--json", "-"] + FIGURE1_TRIM_ARGS
        assert run_main(argv) == 0
        serial = capsys.readouterr().out
        assert run_main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestCliSubcommands:
    def test_run_subcommand_matches_legacy_spelling(self, capsys):
        legacy = ["pos-slashing", "--set", "architecture.rounds=150",
                  "--quiet", "--json", "-"]
        assert run_main(legacy) == 0
        first = capsys.readouterr().out
        assert run_main(["run"] + legacy) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_run_subcommand_drops_registered_sweeps(self, capsys):
        assert run_main(["run", "double-spend", "--quiet", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Base configuration only: one result object, not a 6-point list.
        assert isinstance(payload, dict)
        assert payload["scenario"] == "double-spend"
        assert payload["spec"]["sweeps"] == {}

    def test_sweep_subcommand(self, capsys):
        argv = ["sweep", "pos-slashing", "--set", "architecture.rounds=100",
                "--sweep", "architecture.multi_vote_fraction=0.5,1.0",
                "--quiet", "--json", "-"]
        assert run_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [point["label"] for point in payload] == [
            "multi_vote_fraction=0.5", "multi_vote_fraction=1.0"]

    def test_run_without_name_fails(self, capsys):
        assert "required: SCENARIO" in usage_error(capsys, ["run"])

    def test_help_documents_jobs_and_save(self, capsys):
        with pytest.raises(SystemExit):
            run_main(["study", "--help"])
        out = capsys.readouterr().out
        assert "--jobs" in out and "--save" in out
        with pytest.raises(SystemExit):
            run_main(["--help"])
        assert "repro-run study figure1 --save fig1-nightly" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("command", [[], ["run"], ["sweep"], ["study"],
                                         ["ls"], ["show"], ["diff"], ["gc"],
                                         ["verify"]])
    def test_each_command_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            run_main(command + ["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro-run")
