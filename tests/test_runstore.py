"""RunStore: persistence, unit cache, lifecycle (gc/verify/no-resume), CLI."""

import builtins
import json
import os

import pytest

from repro.analysis.runstore import RunStore, default_runs_dir, is_run_name
from repro.run import main as run_main
from repro.scenarios import compile_sweep, execute_plan, run_sweep
from repro.scenarios import execution as execution_module

from test_cli_errors import usage_error

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

    def test_torn_object_is_repaired_by_saving_the_same_results_again(
            self, tmp_path):
        # A kill mid-save used to leave a truncated object that the
        # deterministic re-run (same bytes, same hash) never rewrote.
        store = RunStore(tmp_path / "runs")
        results = small_sweep()
        record = store.save(results, "demo")
        object_path = store.objects_dir / f"{record.object_hash}.json"
        object_path.write_text(object_path.read_text()[:100])
        with pytest.raises(ValueError, match="content-hash"):
            store.load("demo")
        assert store.save(results, "demo").object_hash == record.object_hash
        assert store.load("demo").to_json() == results.to_json()
        assert store.verify() == []
        # Both files go through a temp file + rename; none is left behind.
        assert sorted(path.name for path in store.root.rglob("*.tmp")) == []

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

    def test_torn_unit_record_is_a_cache_miss(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.put_unit("abc-s1", {"x": 1.0})
        (segment,) = store.units_dir.iterdir()
        segment.write_bytes(segment.read_bytes()[:-5])  # killed mid-write
        assert RunStore(tmp_path / "runs").get_unit("abc-s1") is None
        # Recomputing repairs the cache.
        RunStore(tmp_path / "runs").put_unit("abc-s1", {"x": 1.0})
        assert RunStore(tmp_path / "runs").get_unit("abc-s1") == {"x": 1.0}

    def test_units_written_by_the_earlier_layout_just_miss(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.units_dir.mkdir(parents=True)
        (store.units_dir / "abc-s1.json").write_text(
            '{"key": "abc-s1", "metrics": {"x": 1.0}}')
        assert store.get_unit("abc-s1") is None
        assert store.completed_units(["abc-s1"]) == {}
        assert store.verify() == []

    def test_returned_metrics_are_the_callers_to_mutate(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.put_unit("abc-s1", {"x": 1.0})
        store.get_unit("abc-s1")["x"] = -1.0
        store.completed_units(["abc-s1"])["abc-s1"]["x"] = -1.0
        assert store.get_unit("abc-s1") == {"x": 1.0}

    def test_cold_sweep_leaves_one_segment_not_a_file_per_unit(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        plan = compile_sweep("pos-slashing", replicates=2, overrides={
            "architecture.rounds": 20,
            "sweeps": {"architecture.multi_vote_fraction":
                       [index / 100 for index in range(100)]}})
        assert len(plan.jobs) == 200
        execute_plan(plan, store=store)
        assert len(list(store.units_dir.iterdir())) <= 2
        assert set(RunStore(tmp_path / "runs").completed_units(
            plan.job_keys())) == set(plan.job_keys())

    def test_completed_units_costs_the_same_for_any_number_of_keys(
            self, tmp_path, monkeypatch):
        writer = RunStore(tmp_path / "runs")
        keys = [f"{index:016x}-s{index}" for index in range(200)]
        for key in keys:
            writer.put_unit(key, {"x": 1.0})
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((os, "stat"), (os, "listdir"), (os, "scandir"),
                             (os, "lstat"), (builtins, "open")):
            counted(module, name)

        def cost(wanted):
            del calls[:]
            assert len(RunStore(tmp_path / "runs").completed_units(
                wanted)) == len(wanted)
            return sorted(calls)

        assert cost(keys[:1]) == cost(keys) == ["listdir", "open", "stat"]

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
        keys = compile_sweep("market-concentration",
                             overrides=SWEEP_OVERRIDES).job_keys()
        report = store.gc()
        assert sorted(report.units_removed) == sorted(keys)
        assert store.completed_units(keys) == {}
        assert RunStore(tmp_path / "runs").completed_units(keys) == {}

    def test_dry_run_mutates_nothing(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        small_sweep(store=store)  # unreachable units
        store.put_unit("stray-s0", {"x": 1.0})
        before = snapshot(store)
        report = store.gc(dry_run=True)
        assert report.dry_run and len(report.units_removed) == 4
        assert snapshot(store) == before
        assert "would remove" in report.summary()

    def test_compacts_what_it_keeps_into_one_segment(self, tmp_path):
        root = tmp_path / "runs"
        results = small_sweep(store=RunStore(root))
        RunStore(root).save(results, "keep")
        for index in range(3):  # three more writers, three more segments
            RunStore(root).put_unit(f"stray-s{index}", {"x": float(index)})
        store = RunStore(root)
        assert len(list(store.units_dir.iterdir())) == 4
        keys = compile_sweep("market-concentration",
                             overrides=SWEEP_OVERRIDES).job_keys()
        cached = store.completed_units(keys)
        report = store.gc()
        assert report.units_removed == ["stray-s0", "stray-s1", "stray-s2"]
        assert report.units_kept == 3
        assert len(list(store.units_dir.iterdir())) == 1
        assert RunStore(root).completed_units(keys) == cached
        assert store.verify() == []
        assert store.gc().removed == 0  # nothing left to do

    def test_collects_units_of_the_earlier_layout(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.save(small_sweep(store=store), "keep")
        (store.units_dir / "old-s1.json").write_text(
            '{"key": "old-s1", "metrics": {"x": 1.0}}')
        (store.units_dir / "old-s2.json.part").write_text("{")
        assert store.gc(dry_run=True).units_removed == [
            "old-s1", "old-s2.json.part"]
        assert len(list(store.units_dir.iterdir())) == 3
        report = store.gc()
        assert report.units_removed == ["old-s1", "old-s2.json.part"]
        assert report.units_kept == 3
        assert [path.suffix for path in store.units_dir.iterdir()] == [".seg"]

    def test_writer_whose_segment_was_collected_misses_never_errs(
            self, tmp_path):
        root = tmp_path / "runs"
        writer = RunStore(root)
        writer.put_unit("early-s1", {"x": 1.0})
        assert writer.get_unit("early-s1") == {"x": 1.0}
        assert RunStore(root).gc().units_removed == ["early-s1"]
        # The live writer keeps appending to the segment gc unlinked under
        # it: no error, and what it writes there is lost to everyone else.
        writer.put_unit("late-s1", {"x": 2.0})
        assert RunStore(root).get_unit("late-s1") is None
        assert RunStore(root).completed_units(["early-s1", "late-s1"]) == {}
        # What it had already read stays a (correct) hit for it alone.
        assert writer.get_unit("early-s1") == {"x": 1.0}
        assert writer.get_unit("late-s1") is None
        assert RunStore(root).verify() == []


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
        store.put_unit("bad-s1", {"x": 1.0})
        store.put_unit("torn-s1", {"x": 1.0})
        (segment,) = store.units_dir.iterdir()
        segment.write_bytes(
            segment.read_bytes().replace(b"bad-s1", b"bAd-s1")[:-4])
        missing, *units = sorted(store.verify(), key=lambda p: p.kind)
        assert missing.kind == "missing-object"
        assert [problem.kind for problem in units] == ["unreadable-unit"] * 2
        # Each damaged record is named by segment and line.
        assert [problem.path for problem in units] == [
            f"{segment}:4", f"{segment}:6"]
        assert RunStore(tmp_path / "runs").completed_units(
            ["good-s1", "bad-s1", "bAd-s1", "torn-s1"]) == {
                "good-s1": {"x": 1.0}}


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
        keys = compile_sweep("market-concentration",
                             overrides=SWEEP_OVERRIDES).job_keys()
        assert len(RunStore(tmp_path).completed_units(keys)) == 3
        assert run_main(["gc", "--runs-dir", str(tmp_path)]) == 0
        assert "removed 0 object(s) and 3 unit(s)" in capsys.readouterr().out
        assert RunStore(tmp_path).completed_units(keys) == {}

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

    def test_show_without_name_fails(self, tmp_path, capsys):
        assert "required: RUN" in usage_error(
            capsys, ["show", "--runs-dir", str(tmp_path)])
