"""repro-run error paths: one-line nonzero exits, never a traceback.

Every usage error here returns exit 2 (``EXIT_USAGE``) with a single
explanatory line on stderr, argparse's own errors included.  An uncaught
adapter/spec exception would surface as a plain Python exception and
fail these tests, so passing means no traceback.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import run as run_module
from repro.run import EXIT_DRIFT, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE
from repro.run import main as run_main


def one_line(text: str) -> bool:
    return len(text.strip().splitlines()) == 1


def usage_error(capsys, argv) -> str:
    """Run ``repro-run argv``; assert a usage exit with one stderr line."""
    assert run_main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert one_line(err), err
    return err


class TestExitCodeMatrix:
    """The documented exit-code contract: 0 ok, 1 drift, 2 usage, 3 partial.

    One representative invocation per code, so any change to the mapping
    (or a new code colliding with an old meaning) fails here first.
    """

    ARGS = ["--quiet", "--set", "architecture.steps=20",
            "--set", "architecture.arrivals_per_step=20"]

    def test_constants_are_distinct_and_stable(self):
        assert (EXIT_OK, EXIT_DRIFT, EXIT_USAGE, EXIT_PARTIAL) == (0, 1, 2, 3)

    def test_success_is_0(self, capsys):
        assert run_main(["market-concentration"] + self.ARGS) == EXIT_OK

    def test_usage_error_is_2(self, capsys):
        assert run_main(["no-such-scenario"]) == EXIT_USAGE
        capsys.readouterr()

    def test_drift_is_1(self, tmp_path, capsys):
        base = ["market-concentration", "--runs-dir", str(tmp_path)] + self.ARGS
        assert run_main(base + ["--save", "a"]) == EXIT_OK
        assert run_main(base + ["--save", "b", "--seed", "9",
                                "--no-resume"]) == EXIT_OK
        args = ["diff", "a", "b", "--quiet", "--runs-dir", str(tmp_path)]
        assert run_main(args) == EXIT_DRIFT
        capsys.readouterr()

    def test_partial_failure_is_3(self, monkeypatch, capsys):
        from repro.scenarios.execution import FAULT_PLAN_ENV
        from repro.scenarios.faults import FaultPlan, FaultSpec

        monkeypatch.setenv(FAULT_PLAN_ENV, FaultPlan(
            [FaultSpec(match="", action="raise")]).to_json())
        assert run_main(["market-concentration", "--keep-going"]
                        + self.ARGS) == EXIT_PARTIAL
        capsys.readouterr()


class TestUnknownNames:
    def test_unknown_scenario(self, capsys):
        assert run_main(["no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and one_line(err)

    def test_unknown_scenario_via_run(self, capsys):
        assert run_main(["run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_study(self, capsys):
        assert run_main(["study", "no-such-study"]) == 2
        err = capsys.readouterr().err
        assert "unknown study" in err and one_line(err)

    def test_unknown_study_member(self, capsys):
        assert run_main(["study", "figure1", "--set", "ghost.duration=1"]) == 2
        assert "unknown member" in capsys.readouterr().err


class TestMalformedOverrides:
    def test_set_without_equals(self, capsys):
        assert "PATH=VALUE" in usage_error(
            capsys, ["kad-lookup", "--set", "topology.size"])

    def test_set_unknown_spec_field(self, capsys):
        assert run_main(["kad-lookup", "--set", "nosuch.field=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown spec field" in err and one_line(err)

    def test_set_path_through_non_dict(self, capsys):
        assert run_main(["kad-lookup", "--set", "seed.deeper=1"]) == 2
        assert "not a dict" in capsys.readouterr().err

    def test_study_set_without_member(self, capsys):
        assert "MEMBER.PATH=VALUE" in usage_error(
            capsys, ["study", "figure1", "--set", "duration=1"])

    @pytest.mark.parametrize("argv,message", [
        (["run", "pos-slashing", "--set", "architecture.validators=2.7"],
         "scenario 'pos-slashing': architecture.validators expects an integer"),
        (["pow-baseline", "--set", 'topology.network={"bandwidth_bps": -5}'],
         "scenario 'pow-baseline': NetworkParams.bandwidth_bps must be"),
        # One case per route a spec value used to take around _config:
        # values that ran truncated ...
        (["chord-lookup", "--set", "workload.lookups=2.7"],
         "scenario 'chord-lookup': workload.lookups expects an integer"),
        (["superpeer-search", "--set", "workload.lookups=10.9"],
         "scenario 'superpeer-search': workload.lookups expects an integer"),
        (["run", "double-spend", "--set", "architecture.confirmations=2.5"],
         "scenario 'double-spend': architecture.confirmations expects an integer"),
        (["pow-baseline", "--set", "architecture.duration_blocks=5.5"],
         "scenario 'pow-baseline': architecture.duration_blocks expects an integer"),
        # ... and values that ended in a traceback.
        (["run", "selfish-mining", "--set", 'architecture.alpha="abc"'],
         "scenario 'selfish-mining': architecture.alpha expects a number"),
        (["pow-baseline", "--set", "architecture.miner_count=2.7"],
         "scenario 'pow-baseline': architecture.miner_count expects an integer"),
        (["pow-baseline", "--set", "architecture.bogus=1"],
         "scenario 'pow-baseline': unknown key architecture.bogus"),
        (["edge-federation", "--set", 'architecture.islands='
          '[{"name": "trade", "domain": "supply-chain", "bogus": 1}]'],
         "scenario 'edge-federation': unknown key architecture.islands[0].bogus"),
        (["edge-federation", "--set", 'architecture.islands='
          '[{"name": "trade", "domain": "supply-chain", "seed_offset": 1.5}]'],
         "scenario 'edge-federation': architecture.islands[0].seed_offset "
         "expects an integer"),
        (["kad-lookup", "--set", 'churn={"mean_session": "x"}'],
         "scenario 'kad-lookup': churn.mean_session expects a number"),
        (["kad-lookup", "--set", 'architecture.client_overrides={"k": 2.5}'],
         "scenario 'kad-lookup': architecture.client_overrides.k expects an integer"),
    ])
    def test_a_value_the_experiment_rejects(self, capsys, argv, message):
        assert message in usage_error(capsys, argv + ["--quiet"])

    def test_a_value_error_while_running_keeps_its_traceback(
            self, monkeypatch, capsys):
        from repro.scenarios import ArchitectureAdapter, SpecError

        def broken(self, context):
            raise ValueError("a bug in the model")

        monkeypatch.setattr(ArchitectureAdapter, "run", broken)
        with pytest.raises(ValueError, match="a bug in the model") as raised:
            run_main(["run", "pos-slashing", "--quiet"])
        assert not isinstance(raised.value, SpecError)

    def test_a_value_error_while_building_the_model_keeps_its_traceback(
            self, monkeypatch):
        """Only turning spec values into configs is a usage error: a
        ValueError from the model's own construction (here the routing
        table's block kernel) is a bug and is not re-labelled."""
        from repro.scenarios import SpecError
        from repro.sim.vecstate import VecRoutingTable

        def broken(self, *args):
            raise ValueError("a shape bug in a block kernel")

        monkeypatch.setattr(VecRoutingTable, "_bootstrap", broken)
        with pytest.raises(ValueError,
                           match="a shape bug in a block kernel") as raised:
            run_main(["run", "overlay-scaling-large", "--quiet",
                      "--set", "topology.size=500"])
        assert not isinstance(raised.value, SpecError)
        assert raised.traceback[-1].name == "broken"


class TestMalformedSweeps:
    def test_sweep_without_equals(self, capsys):
        assert "PATH=VALUE" in usage_error(
            capsys, ["kad-lookup", "--sweep", "topology.size"])

    def test_sweep_with_empty_values(self, capsys):
        assert "V1,V2" in usage_error(
            capsys, ["kad-lookup", "--sweep", "topology.size="])

    def test_sweep_bad_dotted_path(self, capsys):
        assert run_main(["kad-lookup", "--sweep", "bogus.axis=1,2"]) == 2
        err = capsys.readouterr().err
        assert "unknown spec field" in err and one_line(err)

    def test_sweep_to_an_invalid_spec(self, capsys):
        # Each point is validated like a constructed spec: a replicates=0
        # point is a usage error, not a result with no replicates.
        assert run_main(["pos-slashing", "--sweep", "replicates=0,1",
                         "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "replicates must be >= 1" in err and one_line(err)

    def test_sweep_on_study_rejected(self, capsys):
        assert "unrecognized arguments: --sweep" in usage_error(
            capsys, ["study", "figure1", "--sweep", "seed=1,2"])


class TestStoreCommands:
    def test_show_missing_run(self, tmp_path, capsys):
        assert run_main(["show", "ghost", "--runs-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no saved run" in err and one_line(err)

    def test_diff_needs_two_operands(self, tmp_path, capsys):
        assert "required: B" in usage_error(
            capsys, ["diff", "only-one", "--runs-dir", str(tmp_path)])

    def test_diff_missing_run(self, tmp_path, capsys):
        assert "neither a saved run" in usage_error(
            capsys, ["diff", "ghost-a", "ghost-b",
                     "--runs-dir", str(tmp_path)])

    def test_diff_double_stdin_rejected(self, tmp_path, capsys):
        assert "stdin" in usage_error(
            capsys, ["diff", "-", "-", "--runs-dir", str(tmp_path)])

    def test_diff_non_json_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert "not valid JSON" in usage_error(
            capsys, ["diff", str(bad), str(bad), "--runs-dir", str(tmp_path)])

    def test_bad_tolerance_flag(self, tmp_path, capsys):
        assert "--tol" in usage_error(
            capsys, ["diff", "a", "b", "--tol", "tps", "--runs-dir", str(tmp_path)])

    def test_gc_rejects_positional(self, tmp_path, capsys):
        assert "unrecognized arguments: extra" in usage_error(
            capsys, ["gc", "extra", "--runs-dir", str(tmp_path)])

    def test_verify_rejects_positional(self, tmp_path, capsys):
        assert "unrecognized arguments: extra" in usage_error(
            capsys, ["verify", "extra", "--runs-dir", str(tmp_path)])


class TestArgumentShape:
    def test_extra_positional_for_non_diff(self, capsys):
        assert "unrecognized arguments: surplus" in usage_error(
            capsys, ["show", "name", "surplus"])

    def test_bare_name_takes_one_positional(self, capsys):
        assert "unrecognized arguments: extra" in usage_error(
            capsys, ["figure1", "extra"])

    def test_members_on_scenario_rejected(self, capsys):
        assert "unrecognized arguments: --members" in usage_error(
            capsys, ["kad-lookup", "--members", "a,b"])

    def test_bad_flag_value_is_one_line(self, capsys):
        # argparse's own error, without its usage block.
        err = usage_error(capsys, ["run", "pos-slashing", "--jobs", "abc"])
        assert "--jobs" in err and "'abc'" in err


def test_a_reader_that_closes_stdout_ends_the_run_quietly(tmp_path):
    """``repro-run ... --json - | head``: the reader is gone before the
    document is written.  The run ends like a tool killed by SIGPIPE, with
    no traceback on stderr."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro.run", "run", "pos-slashing",
             "--set", "architecture.rounds=50", "--quiet", "--json", "-"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
            timeout=60)
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 141


def _subparsers():
    """``{command: subparser}`` of repro-run's parser."""
    (action,) = [action for action in run_module._build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
    return action.choices


def _options(parser):
    return {option for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"}


#: Positional arguments that satisfy each command's parser.
POSITIONALS = {"run": ["pos-slashing"], "sweep": ["pos-slashing"],
               "study": ["figure1"], "ls": [], "show": ["demo"],
               "diff": ["a", "b"], "gc": [], "verify": []}

FOREIGN_FLAGS = sorted(
    (command, option)
    for command, parser in _subparsers().items()
    for option in set().union(*map(_options, _subparsers().values()))
    - _options(parser))


class TestFlagOwnership:
    """A flag is accepted only by the commands whose parser defines it."""

    def test_every_command_is_covered(self):
        assert sorted(_subparsers()) == sorted(run_module.COMMANDS) \
            == sorted(POSITIONALS)
        assert ("run", "--dry-run") in FOREIGN_FLAGS
        assert ("ls", "--quiet") in FOREIGN_FLAGS

    @staticmethod
    def rejected(tmp_path, monkeypatch, capsys, argv) -> str:
        """Run argv; assert a one-line usage error that executes and
        stores nothing."""
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        monkeypatch.chdir(tmp_path)

        def executed(*args, **kwargs):
            raise AssertionError(f"{argv} executed a plan")

        monkeypatch.setattr(run_module, "execute_plan", executed)
        assert run_main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and one_line(captured.err), captured
        assert list(tmp_path.iterdir()) == []
        return captured.err

    @pytest.mark.parametrize("command, option", FOREIGN_FLAGS,
                             ids=[" ".join(pair) for pair in FOREIGN_FLAGS])
    def test_a_flag_another_command_owns_is_rejected(
            self, tmp_path, monkeypatch, capsys, command, option):
        err = self.rejected(tmp_path, monkeypatch, capsys,
                            [command] + POSITIONALS[command] + [option])
        assert f"unrecognized arguments: {option}" in err

    def test_diff_flags_on_run(self, tmp_path, monkeypatch, capsys):
        err = self.rejected(tmp_path, monkeypatch, capsys,
                            ["run", "pos-slashing", "--dry-run",
                             "--strict-ci", "--profile", "sketch"])
        assert "--dry-run" in err

    @pytest.mark.parametrize("command", ["run", "sweep", "study"])
    def test_jobs_and_broker_exclude_each_other(
            self, tmp_path, monkeypatch, capsys, command):
        err = self.rejected(tmp_path, monkeypatch, capsys,
                            [command] + POSITIONALS[command]
                            + ["--jobs", "2", "--broker", "127.0.0.1:1"])
        assert "--broker" in err and "--jobs" in err
