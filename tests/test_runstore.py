"""RunStore: persistence, unit cache, lifecycle (gc/verify/no-resume), CLI."""

import json

import pytest

from repro.analysis.runstore import RunStore, default_runs_dir, is_run_name
from repro.run import main as run_main
from repro.scenarios import compile_sweep, execute_plan, run_sweep
from repro.scenarios import execution as execution_module

SWEEP_OVERRIDES = {"architecture.steps": 20, "architecture.arrivals_per_step": 20}


def small_sweep(**kwargs):
    return run_sweep("market-concentration", overrides=SWEEP_OVERRIDES, **kwargs)


class TestSaveLoadList:
    def test_round_trip_is_identical(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        results = small_sweep()
        record = store.save(results, "market-demo")
        assert record.name == "market-demo"
        assert record.results == 3
        reloaded = store.load("market-demo")
        assert reloaded.to_json() == results.to_json()
        assert reloaded.name == results.name

    def test_content_addressing_shares_objects(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        results = small_sweep()
        first = store.save(results, "a")
        second = store.save(results, "b")
        assert first.object_hash == second.object_hash
        assert len(list(store.objects_dir.glob("*.json"))) == 1
        assert {record.name for record in store.list()} == {"a", "b"}

    def test_unknown_name_lists_saved_runs(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.save(small_sweep(), "present")
        with pytest.raises(KeyError, match="present"):
            store.load("absent")

    def test_invalid_names_rejected(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        for bad in ("../escape", "", "a/b", ".hidden"):
            with pytest.raises((ValueError, KeyError)):
                store.save(small_sweep(), bad)

    def test_corrupted_object_fails_loudly(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record = store.save(small_sweep(), "demo")
        object_path = store.objects_dir / f"{record.object_hash}.json"
        object_path.write_text(object_path.read_text().replace("market", "corrupt"))
        with pytest.raises(ValueError, match="content-hash"):
            store.load("demo")

    def test_delete_removes_pointer_keeps_object(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record = store.save(small_sweep(), "demo")
        store.delete("demo")
        assert store.list() == []
        assert (store.objects_dir / f"{record.object_hash}.json").exists()

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "elsewhere"))
        assert default_runs_dir() == tmp_path / "elsewhere"
        assert RunStore().root == tmp_path / "elsewhere"


class TestUnitCache:
    def test_put_get_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        assert store.get_unit("abc-s1") is None
        store.put_unit("abc-s1", {"throughput_tps": 3.5})
        assert store.get_unit("abc-s1") == {"throughput_tps": 3.5}
        assert store.completed_units(["abc-s1", "missing"]) == {
            "abc-s1": {"throughput_tps": 3.5}}

    def test_resume_skips_completed_jobs(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "runs")
        first = small_sweep(store=store)
        plan = compile_sweep("market-concentration", overrides=SWEEP_OVERRIDES)
        assert set(store.completed_units(plan.job_keys())) == set(plan.job_keys())

        def boom(job):
            raise AssertionError("resume should not re-execute finished jobs")

        monkeypatch.setattr(execution_module, "execute_unit", boom)
        resumed = execute_plan(plan, store=store)
        assert resumed.to_json() == first.to_json()

    def test_torn_unit_file_is_a_cache_miss(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.put_unit("abc-s1", {"x": 1.0})
        (store.units_dir / "abc-s1.json").write_text('{"key": "abc-s1", "met')
        assert store.get_unit("abc-s1") is None
        # Recomputing repairs the cache.
        store.put_unit("abc-s1", {"x": 1.0})
        assert store.get_unit("abc-s1") == {"x": 1.0}

    def test_interrupted_run_keeps_finished_units(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "runs")
        plan = compile_sweep("market-concentration", overrides=SWEEP_OVERRIDES)
        real = execution_module.execute_unit
        calls = []

        def fail_after_first(job, attempt=1):
            if calls:
                raise RuntimeError("simulated crash mid-grid")
            calls.append(job.key)
            return real(job, attempt)

        monkeypatch.setattr(execution_module, "execute_unit", fail_after_first)
        with pytest.raises(RuntimeError, match="mid-grid"):
            execute_plan(plan, store=store)
        # The job that finished before the crash is persisted and resumable.
        assert set(store.completed_units(plan.job_keys())) == set(calls)

    def test_changed_spec_invalidates_resume(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        small_sweep(store=store)
        changed = compile_sweep(
            "market-concentration",
            overrides={**SWEEP_OVERRIDES, "architecture.providers": 10})
        assert store.completed_units(changed.job_keys()) == {}


def snapshot(store):
    """Every file under the store with its content, for mutation checks."""
    return {str(path): path.read_bytes()
            for path in sorted(store.root.rglob("*")) if path.is_file()}


class TestGc:
    def test_never_deletes_reachable_objects_or_units(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        results = small_sweep(store=store)
        store.save(results, "keep-me")
        before = snapshot(store)
        report = store.gc()
        assert report.objects_removed == [] and report.units_removed == []
        assert report.objects_kept == 1 and report.units_kept == 3
        assert snapshot(store) == before

    def test_removes_unreachable_after_delete(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.save(small_sweep(store=store), "keep")
        other = run_sweep("market-concentration", store=store, seed=9,
                          overrides=SWEEP_OVERRIDES)
        record = store.save(other, "drop")
        store.delete("drop")
        report = store.gc()
        assert report.objects_removed == [record.object_hash]
        assert len(report.units_removed) == 3  # the seed-9 units
        assert store.load("keep") is not None  # survivor intact

    def test_unsaved_unit_cache_is_garbage(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        small_sweep(store=store)  # cached units, but never --save'd
        report = store.gc()
        assert len(report.units_removed) == 3
        assert not list(store.units_dir.glob("*.json"))

    def test_dry_run_mutates_nothing(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        small_sweep(store=store)  # unreachable units
        store.put_unit("stray-s0", {"x": 1.0})
        before = snapshot(store)
        report = store.gc(dry_run=True)
        assert report.dry_run and len(report.units_removed) == 4
        assert snapshot(store) == before
        assert "would remove" in report.summary()

    def test_sweeps_only_stale_tmp_files(self, tmp_path):
        import os
        import time

        store = RunStore(tmp_path / "runs")
        store.units_dir.mkdir(parents=True)
        stale = store.units_dir / "torn.json.tmp"
        stale.write_text("{")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = store.units_dir / "inflight.json.tmp"
        fresh.write_text("{")  # could be a concurrent run's atomic write
        report = store.gc()
        assert report.units_removed == ["torn.json.tmp"]
        assert not stale.exists() and fresh.exists()

    def test_stale_tmp_swept_on_store_open(self, tmp_path):
        import os
        import time

        store = RunStore(tmp_path / "runs")
        store.units_dir.mkdir(parents=True)
        stale = store.units_dir / "torn.json.tmp"
        stale.write_text("{")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = store.units_dir / "inflight.json.tmp"
        fresh.write_text("{")
        # Opening the store (not just gc) reclaims the stale orphan.
        RunStore(tmp_path / "runs")
        assert not stale.exists() and fresh.exists()

    def test_sweep_tmp_dry_run_reports_without_deleting(self, tmp_path):
        import os
        import time

        store = RunStore(tmp_path / "runs")
        store.units_dir.mkdir(parents=True)
        stale = store.units_dir / "torn.json.tmp"
        stale.write_text("{")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        assert store.sweep_tmp(dry_run=True) == ["torn.json.tmp"]
        assert stale.exists()
        assert store.sweep_tmp() == ["torn.json.tmp"]
        assert not stale.exists()


class TestVerify:
    def test_healthy_store_is_clean(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.save(small_sweep(store=store), "demo")
        assert store.verify() == []

    def test_flags_bit_flipped_object(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record = store.save(small_sweep(), "demo")
        object_path = store.objects_dir / f"{record.object_hash}.json"
        object_path.write_text(
            object_path.read_text().replace("market", "mXrket", 1))
        (problem,) = store.verify()
        assert problem.kind == "corrupt-object"
        assert record.object_hash in problem.path

    def test_flags_missing_object_and_bad_unit(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record = store.save(small_sweep(), "demo")
        (store.objects_dir / f"{record.object_hash}.json").unlink()
        store.put_unit("good-s1", {"x": 1.0})
        (store.units_dir / "good-s1.json").write_text('{"key": "good-s1", ')
        store.put_unit("liar-s1", {"x": 1.0})
        renamed = store.units_dir / "renamed-s1.json"
        (store.units_dir / "liar-s1.json").rename(renamed)
        kinds = sorted(problem.kind for problem in store.verify())
        assert kinds == ["missing-object", "unit-key-mismatch",
                         "unreadable-unit"]


class TestNoResume:
    def test_resume_false_reexecutes_and_overwrites_cache(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        plan = compile_sweep("market-concentration", overrides=SWEEP_OVERRIDES)
        for key in plan.job_keys():
            store.put_unit(key, {"hhi": -1.0})  # poison: resume would trust it
        resumed = execute_plan(plan, store=store)
        assert all(result.metrics == {"hhi": -1.0} for result in resumed)
        fresh = execute_plan(plan, store=store, resume=False)
        assert all(result.metrics["hhi"] > 0 for result in fresh)
        # the recomputed metrics replaced the poisoned cache entries
        assert all(store.get_unit(key)["hhi"] > 0 for key in plan.job_keys())

    def test_cli_no_resume_flag(self, tmp_path, capsys):
        plan = compile_sweep("market-concentration", overrides=SWEEP_OVERRIDES)
        store = RunStore(tmp_path)
        for key in plan.job_keys():
            store.put_unit(key, {"hhi": -1.0})
        argv = ["market-concentration", "--quiet", "--json", "-",
                "--runs-dir", str(tmp_path), "--save", "demo",
                "--set", "architecture.steps=20",
                "--set", "architecture.arrivals_per_step=20"]
        assert run_main(argv + ["--no-resume"]) == 0
        payload = json.loads(capsys.readouterr().out.split("\nsaved run")[0])
        assert all(entry["metrics"]["hhi"] > 0 for entry in payload)


class TestLifecycleCli:
    def test_gc_dry_run_then_real(self, tmp_path, capsys):
        store = RunStore(tmp_path)
        small_sweep(store=store)  # unreachable units
        assert run_main(["gc", "--dry-run", "--runs-dir", str(tmp_path)]) == 0
        assert "would remove" in capsys.readouterr().out
        assert len(list(store.units_dir.glob("*.json"))) == 3
        assert run_main(["gc", "--runs-dir", str(tmp_path)]) == 0
        assert "removed 0 object(s) and 3 unit(s)" in capsys.readouterr().out
        assert not list(store.units_dir.glob("*.json"))

    def test_verify_exit_codes(self, tmp_path, capsys):
        store = RunStore(tmp_path)
        record = store.save(small_sweep(), "demo")
        assert run_main(["verify", "--runs-dir", str(tmp_path)]) == 0
        assert "healthy" in capsys.readouterr().out
        object_path = store.objects_dir / f"{record.object_hash}.json"
        object_path.write_text(object_path.read_text().replace("m", "M", 1))
        assert run_main(["verify", "--runs-dir", str(tmp_path)]) == 1
        assert "corrupt-object" in capsys.readouterr().err


def test_is_run_name():
    assert is_run_name("nightly-2026-07-27")
    assert not is_run_name("runs/a.json")
    assert not is_run_name("-")
    assert not is_run_name(".hidden")


class TestCli:
    def run_and_save(self, tmp_path, capsys):
        argv = ["market-concentration", "--quiet", "--runs-dir", str(tmp_path),
                "--save", "demo",
                "--set", "architecture.steps=20",
                "--set", "architecture.arrivals_per_step=20"]
        assert run_main(argv) == 0
        capsys.readouterr()

    def test_save_ls_show_round_trip(self, tmp_path, capsys):
        self.run_and_save(tmp_path, capsys)
        assert run_main(["ls", "--runs-dir", str(tmp_path)]) == 0
        assert "demo" in capsys.readouterr().out
        assert run_main(["show", "demo", "--quiet", "--json", "-",
                         "--runs-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "market-concentration"
        assert len(payload["results"]) == 3

    def test_save_message_names_the_store(self, tmp_path, capsys):
        argv = ["market-concentration", "--runs-dir", str(tmp_path),
                "--save", "demo",
                "--set", "architecture.steps=10",
                "--set", "architecture.arrivals_per_step=10"]
        assert run_main(argv) == 0
        assert "saved run 'demo'" in capsys.readouterr().out

    def test_ls_empty_store(self, tmp_path, capsys):
        assert run_main(["ls", "--runs-dir", str(tmp_path)]) == 0
        assert "no saved runs" in capsys.readouterr().out

    def test_show_unknown_run_fails(self, tmp_path, capsys):
        assert run_main(["show", "ghost", "--runs-dir", str(tmp_path)]) == 2
        assert "no saved run" in capsys.readouterr().err

    def test_show_without_name_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="saved run name"):
            run_main(["show", "--runs-dir", str(tmp_path)])
