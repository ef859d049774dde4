"""Result files: metric definitions, host fingerprint, summaries, compare.

``BENCHMARK.json`` is the only place a metric's unit, direction and bound
are written down; this module reads them from there, so the harness cannot
emit a name the definition lacks (``unit_of`` raises) and ``--compare``
judges with exactly the committed bounds.  Result files carry no absolute
gate: every comparison is between two files from the same host.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy

ROOT = Path(__file__).resolve().parents[2]

SCHEMA = "benchmarks-e2e/v1"


class Definitions:
    """The committed metric and workload definitions (``BENCHMARK.json``)."""

    def __init__(self, path: Path = ROOT / "BENCHMARK.json") -> None:
        data = json.loads(path.read_text(encoding="utf-8"))
        self.run_seconds = int(data["run_seconds"])
        self.workloads: List[str] = [entry["name"] for entry in data["workloads"]]
        self.end_to_end: Dict[str, dict] = {
            entry["name"]: entry for entry in data["end_to_end"]}
        self.per_layer: Dict[str, dict] = {
            entry["name"]: entry for entry in data["per_layer"]}

    def unit_of(self, name: str) -> str:
        entry = self.end_to_end.get(name) or self.per_layer.get(name)
        if entry is None:
            raise KeyError(f"metric {name!r} is not defined in BENCHMARK.json")
        return entry["unit"]

    def metrics(self, values: Mapping[str, float], trace: bool) -> Dict[str, dict]:
        """``values`` in the result-line shape; every defined name, no other."""
        wanted = self.per_layer if trace else self.end_to_end
        missing = sorted(set(wanted) - set(values))
        if missing:
            raise KeyError(f"run produced no value for {missing}")
        return {name: {"value": values[name], "unit": self.unit_of(name)}
                for name in values}


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """``n``, median and quartiles (as ``statistics.quantiles(n=4)``)."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"n": len(ordered), "median": statistics.median(ordered),
            "q1": q1, "q3": q3}


def filesystem_type(path: Path) -> str:
    """Filesystem type holding ``path`` (tmpfs makes every fsync free)."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                prefix = mount if mount.endswith("/") else mount + "/"
                if (target == mount or target.startswith(prefix)) \
                        and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def git_commit() -> str:
    """HEAD of this checkout; ``unknown`` where it is not a repository."""
    # The ceiling keeps git from answering for a repository further up.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(workdir: Path, seed: int, scale: str) -> Dict[str, object]:
    """Where and on what the numbers were taken; carried by every file."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workdir_fs": filesystem_type(workdir),
        "git_commit": git_commit(),
        "seed": seed,
        "scale": scale,
    }


def summarise(runs: Iterable[Mapping[str, object]]) -> Dict[str, Dict[str, dict]]:
    """``{workload: {metric: n/median/q1/q3/unit}}`` over a file's runs."""
    values: Dict[str, Dict[str, List[float]]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        per_metric = values.setdefault(str(run["workload"]), {})
        for name, metric in run["metrics"].items():  # type: ignore[union-attr]
            per_metric.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {workload: {name: {**quartiles(samples), "unit": units[name],
                              "values": samples}
                       for name, samples in per_metric.items()}
            for workload, per_metric in values.items()}


def result_file(runs: List[Mapping[str, object]],
                host: Mapping[str, object]) -> Dict[str, object]:
    return {"schema": SCHEMA, "fingerprint": dict(host), "runs": runs,
            "summary": summarise(runs)}


def print_run(run: Mapping[str, object]) -> None:
    """Every metric of one run by name, with its unit."""
    detail = run.get("detail") or {}
    print(f"workload {run['workload']}  seed {run['seed']}  "
          f"trace {int(bool(run['trace']))}  passes {detail.get('passes', '-')}"
          f"  correct {run['correct']}  failed {run['failed']}"
          f"/{run['attempted']}")
    for name, metric in run["metrics"].items():  # type: ignore[union-attr]
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")


def print_summary(summary: Mapping[str, Mapping[str, dict]]) -> None:
    print(f"{'workload':<16} {'metric':<44} {'n':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} unit")
    for workload, metrics in summary.items():
        for name, row in metrics.items():
            print(f"{workload:<16} {name:<44} {row['n']:>3} "
                  f"{row['median']:>14.6g} {row['q1']:>14.6g} "
                  f"{row['q3']:>14.6g} {row['unit']}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _spread(row: Mapping[str, float]) -> float:
    return (row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] else 0.0


def compare(a_path: str, b_path: str, definitions: Definitions) -> int:
    """One row per (end-to-end metric, workload); non-zero on any ``worse``.

    ``B`` is judged against ``A``: the ratio is ``B median / A median``
    (base: A).  A row is ``unresolved`` when either side's run-to-run
    spread (interquartile range over median) is wider than the metric's
    bound — unless every B run reads better than every A run — ``worse``
    when B's median is worse than A's by more than the bound, else ``ok``.
    A file holding one run per workload has no spread to show: it resolves
    nothing finer than the bound itself, so compare sets of >= 10 runs.
    """
    a = json.loads(Path(a_path).read_text(encoding="utf-8"))
    b = json.loads(Path(b_path).read_text(encoding="utf-8"))
    for label, data in (("A", a), ("B", b)):
        host = data["fingerprint"]
        print(f"{label}: {host['git_commit'][:12]} nproc={host['nproc']} "
              f"python={host['python']} fs={host['workdir_fs']} "
              f"scale={host['scale']} seed={host['seed']}")
    print(f"{'workload':<16} {'metric':<12} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7} verdict")
    worse = 0
    for workload in definitions.workloads:
        for name, entry in definitions.end_to_end.items():
            row_a = a["summary"].get(workload, {}).get(name)
            row_b = b["summary"].get(workload, {}).get(name)
            if row_a is None or row_b is None:
                continue
            lower = entry["better"] == "lower"
            ratio = row_b["median"] / row_a["median"]
            worse_by = ratio - 1.0 if lower else 1.0 - ratio
            spread = max(_spread(row_a), _spread(row_b))
            if lower:
                clear_win = max(row_b["values"]) < min(row_a["values"])
            else:
                clear_win = min(row_b["values"]) > max(row_a["values"])
            if spread > entry["bound"] and not clear_win:
                verdict = "unresolved"
            elif worse_by > entry["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:<16} {name:<12} {row_a['median']:>12.5g} "
                  f"{row_b['median']:>12.5g} {ratio:>7.3f} "
                  f"{entry['bound']:>6.2f} {spread:>7.3f} {verdict}")
    return 1 if worse else 0
