"""Fault tolerance: supervision, retry/timeout, degradation, fault harness.

Every failure here is *scripted* through :mod:`repro.scenarios.faults` —
a deterministic (job key, attempt) → action table — so crash/retry/
degrade scenarios replay identically on every run and both backends.
The invariant under test throughout: retried jobs re-run the same
seed-pinned unit, so any run that completes is byte-identical to the
fault-free golden.
"""

import json
import os

import pytest

from repro.analysis.runstore import RunStore
from repro.run import EXIT_OK, EXIT_PARTIAL, main as run_main
from repro.scenarios import (
    FaultPlan,
    FaultSpec,
    IncompletePlanError,
    InjectedFault,
    JobExecutionError,
    JobPolicy,
    JobTimeoutError,
    ProcessPoolBackend,
    SerialBackend,
    compile_scenario,
    compile_study,
    compile_sweep,
    execute_plan,
    run_scenario,
    run_sweep,
)
from repro.scenarios import execution as execution_module

from fault_fixtures import FaultInjectingBackend, TornWriteStore, installed
from test_cli_errors import usage_error
from test_execution import FIGURE1_TRIMS, FIGURE1_TRIM_ARGS

SWEEP_OVERRIDES = {"architecture.steps": 20, "architecture.arrivals_per_step": 20}


def sweep_plan():
    return compile_sweep("market-concentration", overrides=SWEEP_OVERRIDES)


def raise_on(match, *attempts):
    return FaultPlan([FaultSpec(match=match, action="raise",
                                attempts=tuple(attempts))])


@pytest.fixture(autouse=True)
def _no_ambient_fault_plan(monkeypatch):
    monkeypatch.delenv(execution_module.FAULT_PLAN_ENV, raising=False)


class TestJobPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            JobPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            JobPolicy(backoff_factor=0.5)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = JobPolicy(max_retries=5, backoff_base_s=0.05,
                           backoff_factor=2.0, backoff_max_s=0.4,
                           backoff_jitter=0.1)
        delays = [policy.backoff_delay("abc-s1", attempt)
                  for attempt in (1, 2, 3, 4, 5)]
        assert delays == [policy.backoff_delay("abc-s1", attempt)
                          for attempt in (1, 2, 3, 4, 5)]
        # exponential up to the cap, jitter only ever adds
        assert delays[0] >= 0.05 and delays[1] >= 0.1
        assert all(delay <= 0.4 * 1.1 for delay in delays)
        # jitter is per-(key, attempt): another key lands elsewhere
        assert policy.backoff_delay("xyz-s1", 1) != delays[0]


class TestFaultPlan:
    def test_round_trip_and_matching(self):
        plan = FaultPlan([FaultSpec(match="-s2", action="hang",
                                    attempts=(1, 3), seconds=9.0),
                          FaultSpec(match="", action="raise")])
        again = FaultPlan.from_json(plan.to_json())
        assert again.to_json() == plan.to_json()
        assert again.find("abc-s2", 1).action == "hang"
        assert again.find("abc-s2", 2).action == "raise"  # second spec
        assert again.find("abc-s1", 7).action == "raise"  # catch-all

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(match="", action="explode")

    def test_installed_sets_and_restores_env(self):
        plan = raise_on("abc")
        env = execution_module.FAULT_PLAN_ENV
        assert os.environ.get(env) is None
        with installed(plan):
            assert FaultPlan.from_json(os.environ[env]).find(
                "abc-s1", 1) is not None
        assert os.environ.get(env) is None


class TestSerialSupervision:
    def test_retry_recovers_byte_identical(self):
        plan = sweep_plan()
        golden = execute_plan(plan).to_json()
        backend = FaultInjectingBackend(
            SerialBackend(), raise_on(plan.jobs[1].key, 1, 2))
        results = execute_plan(plan, backend=backend,
                               policy=JobPolicy(max_retries=2,
                                                backoff_base_s=0.0))
        assert results.to_json() == golden
        assert results.failures == []

    def test_fail_fast_raises_after_retries(self):
        plan = sweep_plan()
        backend = FaultInjectingBackend(
            SerialBackend(), raise_on(plan.jobs[0].key))
        with pytest.raises(JobExecutionError, match="failed after 3 attempt"):
            execute_plan(plan, backend=backend,
                         policy=JobPolicy(max_retries=2, backoff_base_s=0.0))

    def test_no_policy_keeps_original_exception(self):
        plan = sweep_plan()
        backend = FaultInjectingBackend(
            SerialBackend(), raise_on(plan.jobs[0].key))
        with pytest.raises(InjectedFault):
            execute_plan(plan, backend=backend)

    def test_keep_going_names_exactly_the_failed_keys(self):
        plan = sweep_plan()
        golden = execute_plan(plan)
        victim = plan.jobs[2].key
        backend = FaultInjectingBackend(SerialBackend(), raise_on(victim))
        results = execute_plan(plan, backend=backend,
                               policy=JobPolicy(max_retries=1, keep_going=True,
                                                backoff_base_s=0.0))
        assert [entry["key"] for entry in results.failures] == [victim]
        (entry,) = results.failures
        assert entry["kind"] == "exception" and entry["attempts"] == 2
        assert "InjectedFault" in entry["error"]
        assert entry["label"] == plan.slots[2].label
        # the failed slot is omitted entirely; the survivors are unchanged
        assert results.labels() == golden.labels()[:2]
        assert [r.to_json() for r in results] == [
            r.to_json() for r in list(golden)[:2]]

    def test_timeout_kind_and_retry_recovery(self):
        plan = compile_scenario("market-concentration",
                                overrides=SWEEP_OVERRIDES)
        golden = execute_plan(plan).to_json()
        backend = FaultInjectingBackend(
            SerialBackend(),
            FaultPlan([FaultSpec(match=plan.jobs[0].key, action="hang",
                                 attempts=(1,), seconds=30.0)]))
        results = execute_plan(plan, backend=backend,
                               policy=JobPolicy(max_retries=1, timeout_s=0.5,
                                                backoff_base_s=0.0))
        assert results.to_json() == golden

    def test_timeout_exhausted_reports_timeout_kind(self):
        plan = compile_scenario("market-concentration",
                                overrides=SWEEP_OVERRIDES)
        backend = FaultInjectingBackend(
            SerialBackend(),
            FaultPlan([FaultSpec(match="", action="hang", seconds=30.0)]))
        with pytest.raises(JobExecutionError) as excinfo:
            execute_plan(plan, backend=backend,
                         policy=JobPolicy(timeout_s=0.3))
        assert excinfo.value.failure.kind == "timeout"
        assert "wall-clock budget" in excinfo.value.failure.error

    def test_run_scenario_raises_even_under_keep_going(self):
        backend = FaultInjectingBackend(SerialBackend(), raise_on(""))
        with pytest.raises(JobExecutionError):
            run_scenario("market-concentration", overrides=SWEEP_OVERRIDES,
                         backend=backend,
                         policy=JobPolicy(keep_going=True))


class TestPoolSupervision:
    def test_worker_kill_respawns_and_recovers(self):
        plan = sweep_plan()
        golden = execute_plan(plan).to_json()
        backend = FaultInjectingBackend(
            ProcessPoolBackend(2),
            FaultPlan([FaultSpec(match=plan.jobs[1].key, action="kill",
                                 attempts=(1,))]))
        results = execute_plan(plan, backend=backend,
                               policy=JobPolicy(max_retries=2,
                                                backoff_base_s=0.0))
        assert results.to_json() == golden
        assert results.failures == []

    def test_hung_worker_killed_and_job_retried(self):
        plan = sweep_plan()
        golden = execute_plan(plan).to_json()
        backend = FaultInjectingBackend(
            ProcessPoolBackend(2),
            FaultPlan([FaultSpec(match=plan.jobs[0].key, action="hang",
                                 attempts=(1,), seconds=60.0)]))
        results = execute_plan(plan, backend=backend,
                               policy=JobPolicy(max_retries=1, timeout_s=1.5,
                                                backoff_base_s=0.0))
        assert results.to_json() == golden

    def test_pool_raise_manifest_names_exact_keys(self):
        # `raise` faults attribute precisely even on a pool (the worker
        # survives, unlike `kill`, which charges every in-flight job).
        plan = sweep_plan()
        victim = plan.jobs[2].key
        backend = FaultInjectingBackend(ProcessPoolBackend(2),
                                        raise_on(victim))
        results = execute_plan(plan, backend=backend,
                               policy=JobPolicy(max_retries=1, keep_going=True,
                                                backoff_base_s=0.0))
        assert [entry["key"] for entry in results.failures] == [victim]
        assert len(results) == 2

    def test_pool_fail_fast_raises(self):
        plan = sweep_plan()
        backend = FaultInjectingBackend(ProcessPoolBackend(2),
                                        raise_on(plan.jobs[0].key))
        with pytest.raises(JobExecutionError):
            execute_plan(plan, backend=backend,
                         policy=JobPolicy(max_retries=1, backoff_base_s=0.0))

    def test_figure1_with_kill_matches_no_fault_golden(self):
        plan = compile_study("figure1", member_overrides=FIGURE1_TRIMS)
        golden = execute_plan(plan).to_json()
        backend = FaultInjectingBackend(
            ProcessPoolBackend(2),
            FaultPlan([FaultSpec(match="", action="kill", attempts=(1,))]))
        results = execute_plan(plan, backend=backend,
                               policy=JobPolicy(max_retries=2,
                                                backoff_base_s=0.0))
        assert results.to_json() == golden
        assert results.failures == []


class TestGracefulDegradationWithStore:
    def test_failed_jobs_stay_out_of_cache_and_rerun_executes_only_them(
            self, tmp_path):
        store = RunStore(tmp_path / "runs")
        plan = sweep_plan()
        victim = plan.jobs[1].key
        backend = FaultInjectingBackend(SerialBackend(), raise_on(victim))
        partial = execute_plan(plan, backend=backend, store=store,
                               policy=JobPolicy(max_retries=1, keep_going=True,
                                                backoff_base_s=0.0))
        assert [entry["key"] for entry in partial.failures] == [victim]
        assert store.get_unit(victim) is None  # failures are never cached
        cached = store.completed_units(plan.job_keys())
        assert set(cached) == set(plan.job_keys()) - {victim}

        record = store.save(partial, "partial")
        assert record.failures == 1
        reloaded = store.load("partial")
        assert reloaded.failures == partial.failures
        assert reloaded.to_json() == partial.to_json()

        # Fault cleared: the rerun resumes the cached units and executes
        # only the one that failed.
        executed = []
        real = execution_module.execute_unit

        def counting(job, attempt=1):
            executed.append(job.key)
            return real(job, attempt)

        execution_module.execute_unit, saved = counting, real
        try:
            complete = execute_plan(plan, store=store)
        finally:
            execution_module.execute_unit = saved
        assert executed == [victim]
        assert complete.to_json() == execute_plan(plan).to_json()
        assert store.save(complete, "partial").failures == 0


class TestTornWrites:
    def test_torn_tail_is_a_miss_and_verify_names_it(self, tmp_path):
        store = TornWriteStore(tmp_path / "runs", match="")
        plan = sweep_plan()
        with pytest.raises(InjectedFault, match="torn write"):
            execute_plan(plan, store=store)  # dies mid first unit write
        (segment,) = store.units_dir.iterdir()
        assert not segment.read_bytes().endswith(b"\n")
        # the torn record never reached the cache: no unit is resumable
        assert RunStore(tmp_path / "runs").completed_units(
            plan.job_keys()) == {}
        (problem,) = RunStore(tmp_path / "runs").verify()
        assert problem.kind == "unreadable-unit"
        assert problem.path == f"{segment}:2"
        # the writer abandoned that segment, as the dead process would
        # have: its retry lands whole in a fresh one
        store.put_unit(plan.jobs[0].key, {"x": 1.0})
        assert len(list(store.units_dir.iterdir())) == 2
        assert RunStore(tmp_path / "runs").get_unit(
            plan.jobs[0].key) == {"x": 1.0}

    def test_rerun_after_torn_write_repairs_the_cache(self, tmp_path):
        plan = sweep_plan()
        store = TornWriteStore(tmp_path / "runs", match=plan.jobs[0].key)
        with pytest.raises(InjectedFault):
            execute_plan(plan, store=store)
        # TornWriteStore tears each key once; the rerun's writes land.
        clean = RunStore(tmp_path / "runs")
        results = execute_plan(plan, store=store)
        assert results.to_json() == execute_plan(plan).to_json()
        assert set(clean.completed_units(plan.job_keys())) == set(
            plan.job_keys())


class TestIncompletePlan:
    def test_names_the_missing_keys(self):
        plan = sweep_plan()
        have = {job.key: {"x": 1.0} for job in plan.jobs[:1]}
        with pytest.raises(IncompletePlanError) as excinfo:
            plan.assemble(have)
        missing = [job.key for job in plan.jobs[1:]]
        assert excinfo.value.missing == missing
        for key in missing:
            assert key in str(excinfo.value)
        assert isinstance(excinfo.value, KeyError)  # compat: old contract

    def test_failed_keys_do_not_count_as_missing(self):
        plan = sweep_plan()
        backend = FaultInjectingBackend(SerialBackend(),
                                        raise_on(plan.jobs[0].key))
        results = execute_plan(plan, backend=backend,
                               policy=JobPolicy(keep_going=True))
        assert len(results) == 2 and len(results.failures) == 1


class TestCliFaultTolerance:
    BASE = ["sweep", "market-concentration", "--quiet", "--json", "-",
            "--set", "architecture.steps=20",
            "--set", "architecture.arrivals_per_step=20"]

    def test_retries_recover_and_match_unsupervised_output(
            self, monkeypatch, capsys):
        assert run_main(self.BASE) == EXIT_OK
        golden = capsys.readouterr().out
        monkeypatch.setenv(execution_module.FAULT_PLAN_ENV,
                           raise_on("", 1).to_json())
        assert run_main(self.BASE + ["--retries", "2"]) == EXIT_OK
        assert capsys.readouterr().out == golden

    def test_keep_going_partial_exits_3_with_failure_table(
            self, monkeypatch, capsys):
        monkeypatch.setenv(execution_module.FAULT_PLAN_ENV,
                           raise_on("").to_json())
        assert run_main(self.BASE + ["--retries", "1",
                                     "--keep-going"]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert json.loads(captured.out) == []  # every point failed
        assert "unit job(s) failed after retries" in captured.err
        assert "InjectedFault" in captured.err

    def test_fail_fast_exits_3_with_one_line(self, monkeypatch, capsys):
        monkeypatch.setenv(execution_module.FAULT_PLAN_ENV,
                           raise_on("").to_json())
        assert run_main(self.BASE + ["--retries", "1"]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "failed after 2 attempt(s)" in err

    def test_study_json_carries_the_manifest(self, monkeypatch, capsys,
                                             tmp_path):
        monkeypatch.setenv(execution_module.FAULT_PLAN_ENV,
                           raise_on("").to_json())
        argv = (["study", "figure1", "--quiet", "--json", "-", "--keep-going",
                 "--save", "partial-fig1", "--runs-dir", str(tmp_path),
                 "--members", "pbft,fabric"] + FIGURE1_TRIM_ARGS)
        assert run_main(argv) == EXIT_PARTIAL
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["failures"]) == 2
        assert {entry["label"] for entry in payload["failures"]} == {
            "pbft", "fabric"}
        assert RunStore(tmp_path).record("partial-fig1").failures == 2

    def test_bad_flag_values_are_usage_errors(self, capsys):
        assert "--retries" in usage_error(capsys, self.BASE + ["--retries", "-1"])
        assert "--job-timeout" in usage_error(
            capsys, self.BASE + ["--job-timeout", "0"])

    def test_help_documents_fault_flags(self, capsys):
        with pytest.raises(SystemExit):
            run_main(["study", "--help"])
        out = capsys.readouterr().out
        assert "--retries" in out and "--job-timeout" in out
        assert "--keep-going" in out

    def test_cli_jobs_with_kill_matches_serial_golden(self, monkeypatch,
                                                      capsys):
        argv = (["study", "figure1", "--quiet", "--json", "-"]
                + FIGURE1_TRIM_ARGS)
        assert run_main(argv) == EXIT_OK
        golden = capsys.readouterr().out
        monkeypatch.setenv(
            execution_module.FAULT_PLAN_ENV,
            FaultPlan([FaultSpec(match="", action="kill", attempts=(1,))
                       ]).to_json())
        assert run_main(argv + ["--jobs", "2", "--retries", "2"]) == EXIT_OK
        assert capsys.readouterr().out == golden


class TestSupervisedEqualsFastPath:
    def test_sweep_output_identical_under_inactive_and_active_policy(self):
        plan = sweep_plan()
        fast = execute_plan(plan).to_json()
        assert execute_plan(
            plan, policy=JobPolicy()).to_json() == fast  # inactive
        assert execute_plan(
            plan, policy=JobPolicy(max_retries=3, timeout_s=300.0,
                                   keep_going=True)).to_json() == fast

    def test_run_sweep_threads_policy(self):
        golden = run_sweep("market-concentration",
                           overrides=SWEEP_OVERRIDES).to_json()
        supervised = run_sweep("market-concentration",
                               overrides=SWEEP_OVERRIDES,
                               policy=JobPolicy(max_retries=1)).to_json()
        assert supervised == golden
