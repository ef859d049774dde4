"""Self-test of the end-to-end benchmark at ``--scale tiny`` (tier-1).

Checks the contract between ``BENCHMARK.json`` and the harness — every
defined name is emitted, finite and well-formed, and no other — and that the
output checks are live: a flipped expected hash, a job executed by the
resume workload, or a hung set-up all end in a non-zero exit with every
attempted job reported failed.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import pytest

from benchmarks.e2e import cli, report
from benchmarks.e2e.workloads import SCALES, WORKLOADS, SweepResume, run_pass

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DEFINITIONS = report.Definitions()


def run_cli(capsys, tmp_path, *argv):
    """Run one tiny measurement in-process; returns (exit code, result line)."""
    workdir = tmp_path / "work"
    workdir.mkdir(exist_ok=True)
    code = cli.main(["--scale", "tiny", "--seconds", "0",
                     "--workdir", str(workdir), *argv],
                    started=perf_counter())
    lines = capsys.readouterr().out.strip().splitlines()
    assert list(workdir.iterdir()) == [], "the run left files behind"
    return code, json.loads(lines[-1])


def check_metrics(result, defined):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(defined)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == defined[name]["unit"]
        assert math.isfinite(metric["value"]), name


def test_definitions_are_well_formed():
    data = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert data["paths"] == ["benchmarks/e2e"]
    assert DEFINITIONS.workloads == list(WORKLOADS)
    names = (DEFINITIONS.workloads + list(DEFINITIONS.end_to_end)
             + list(DEFINITIONS.per_layer))
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in DEFINITIONS.end_to_end
    assert all(0 < entry["bound"] <= 0.25
               for entry in DEFINITIONS.end_to_end.values())
    assert len(DEFINITIONS.per_layer) <= 128


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_emits_the_end_to_end_metrics(capsys, tmp_path, workload):
    # broker-tcp included: its output check is byte-identity with the
    # SerialBackend run of the same plan, under the run's own watchdog.
    code, result = run_cli(capsys, tmp_path, "--workload", workload)
    assert code == 0
    check_metrics(result, DEFINITIONS.end_to_end)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(capsys, tmp_path):
    spans_file = tmp_path / "spans.json"
    code, result = run_cli(capsys, tmp_path, "--workload", "sweep-resume",
                           "--trace", "1", "--trace-out", str(spans_file))
    assert code == 0 and result["failed"] == 0
    check_metrics(result, DEFINITIONS.per_layer)
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    assert values["runstore.hit_ratio"] == 1.0
    assert values["trace.share.adapter.run"] == 0.0  # nothing executed
    assert sum(value for name, value in values.items()
               if name.startswith("trace.share.")) == pytest.approx(1, rel=0.05)
    spans = json.loads(spans_file.read_text(encoding="utf-8"))["spans"]
    assert {"name", "start", "end", "parent", "pass"} == set(spans[0])
    roots = [span for span in spans if span["parent"] is None]
    assert {span["name"] for span in roots} == {"pass"}
    assert len({span["pass"] for span in roots}) == len(roots)


def test_resume_pass_executes_no_job_and_matches_serial(tmp_path):
    workload = SweepResume(SCALES["tiny"], 5, tmp_path)
    workload.setup()
    outcome = run_pass(workload, "check")
    assert outcome.executed == 0 and outcome.cached == outcome.jobs > 0
    assert outcome.sha256 == workload.reference_sha


def test_flipped_expected_hash_fails_the_workload(capsys, tmp_path):
    expected = json.loads(cli.DEFAULT_EXPECTED.read_text(encoding="utf-8"))
    sha = expected["tiny"]["sweep-cold"]
    expected["tiny"]["sweep-cold"] = ("0" if sha[0] != "0" else "1") + sha[1:]
    copy = tmp_path / "expected-flipped.json"
    copy.write_text(json.dumps(expected), encoding="utf-8")
    code, result = run_cli(capsys, tmp_path, "--workload", "sweep-cold",
                           "--expected", str(copy))
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    # ... and only at the default seed, the one expected.json pins.
    code, result = run_cli(capsys, tmp_path, "--workload", "sweep-cold",
                           "--expected", str(copy), "--seed", "1")
    assert code == 0 and result["failed"] == 0


def test_watchdog_kills_a_hung_run(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_watchdog_seconds", lambda seconds: 1)
    monkeypatch.setattr(WORKLOADS["sweep-cold"], "start",
                        lambda self: time.sleep(30))
    started = perf_counter()
    code, result = run_cli(capsys, tmp_path, "--workload", "sweep-cold")
    assert perf_counter() - started < 10
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def _result_file(path, wall_values):
    runs = [{"workload": "sweep-cold", "seed": seed, "trace": 0,
             "correct": True, "attempted": 1, "failed": 0,
             "metrics": {"wall_s": {"value": value, "unit": "s"}}}
            for seed, value in enumerate(wall_values)]
    host = {"nproc": 2, "python": "3", "workdir_fs": "ext4",
            "git_commit": "test", "seed": 0, "scale": "tiny"}
    path.write_text(json.dumps(report.result_file(runs, host)),
                    encoding="utf-8")
    return str(path)


def test_compare_verdicts(capsys, tmp_path):
    steady = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
    base = _result_file(tmp_path / "a.json", steady)
    same = _result_file(tmp_path / "b.json", [v * 1.05 for v in steady])
    slow = _result_file(tmp_path / "c.json", [v * 1.5 for v in steady])
    noisy = _result_file(tmp_path / "d.json",
                         [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.5])
    # As noisy, but every run beats every run of the base: a clear win.
    fast = _result_file(tmp_path / "e.json",
                        [0.2, 0.5, 0.25, 0.45, 0.3, 0.4, 0.3, 0.35, 0.3, 0.5])
    for other, code, verdict in ((same, 0, "ok"), (slow, 1, "worse"),
                                 (noisy, 0, "unresolved"), (fast, 0, "ok")):
        assert report.compare(base, other, DEFINITIONS) == code
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("sweep-cold")]
        assert len(rows) == 1 and rows[0].endswith(verdict), rows


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit != 0, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
