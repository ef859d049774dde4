"""Command line of the end-to-end benchmark.

One run = one workload in one fresh process::

    python3 benchmarks/e2e/run.py --workload sweep-cold --seed 3 \\
        --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line of stdout,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` every workload runs, each in its own subprocess (so one
workload's memory never shows in another's ``peak_rss_mb``), ``--runs``
times with consecutive seeds; ``--out`` keeps the result file that
``--compare A.json B.json`` judges.  See README.md.
"""

from __future__ import annotations

import argparse
import array
import fcntl
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from benchmarks.e2e import ledger, report
from benchmarks.e2e.procs import child_env
from benchmarks.e2e.spans import LAYERS, Tracer
from benchmarks.e2e.workloads import (
    SCALES,
    WORKLOADS,
    PassOutcome,
    Workload,
    run_pass,
)

HERE = Path(__file__).resolve().parent
DEFAULT_WORKDIR = HERE / ".work"
DEFAULT_EXPECTED = HERE / "expected.json"

#: The seed whose outputs ``expected.json`` pins.
DEFAULT_SEED = 0

#: Share of ``--seconds`` a traced run spends on plain/traced pass pairs
#: (at most ``TRACED_MIN_PAIRS`` are forced); the rest of its time is the
#: ledger, whose work is fixed.
TRACED_SHARE = 0.3
TRACED_MIN_PAIRS = 3

#: No run may outlive this (the driver allows 180 s).
WATCHDOG_CAP_S = 170


class WatchdogExpired(Exception):
    """The run outlived its watchdog; everything it started is killed."""


def _watchdog_seconds(seconds: float) -> int:
    """3x the time budget, which is the window plus as much for set-up.

    Never under 90 s: the ledger of a traced run takes a fixed 10-15 s and
    a host three times slower than this one must still finish it.
    """
    return int(min(WATCHDOG_CAP_S, max(90.0, 6.0 * seconds)))


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MB)."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _expected_sha(path: Path, scale: str, workload: str, seed: int) -> Optional[str]:
    """The committed output hash; only the default seed has one."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(path.read_text(encoding="utf-8"))[scale][workload]


class Run:
    """One workload, measured in this process."""

    def __init__(self, args: argparse.Namespace, workdir: Path,
                 started: float) -> None:
        self.args = args
        self.sizes = SCALES[args.scale]
        self.started = started
        self.workload: Workload = WORKLOADS[args.workload](
            self.sizes, args.seed, workdir)
        self.workdir = workdir
        self.expected = _expected_sha(Path(args.expected), args.scale,
                                      args.workload, args.seed)
        self.attempted = 0
        self.failed = 0
        self.plain: List[PassOutcome] = []
        self.traced: List[PassOutcome] = []
        self.tracer = Tracer()
        self.setup_samples: List[float] = []

    # -- output check --------------------------------------------------
    def account(self, outcome: PassOutcome) -> None:
        """Count a pass's jobs; a pass whose output is wrong fails them all."""
        workload = self.workload
        correct = (
            outcome.sha256 == workload.reference_sha
            and (self.expected is None or outcome.sha256 == self.expected)
            and outcome.executed == (outcome.jobs if workload.executes_jobs
                                     else 0))
        self.attempted += outcome.jobs
        self.failed += outcome.failures if correct else outcome.jobs
        if not correct:
            print(f"{workload.name}: output check FAILED: sha256 "
                  f"{outcome.sha256}, serial reference "
                  f"{workload.reference_sha}, expected {self.expected}, "
                  f"executed {outcome.executed}/{outcome.jobs} jobs",
                  file=sys.stderr)

    # -- measurement ---------------------------------------------------
    def measure(self) -> Dict[str, float]:
        args, workload = self.args, self.workload
        try:
            warmup = workload.setup()
            self.setup_samples = [perf_counter() - self.started]
            self.account(warmup)
            if args.setup_only:
                return {"setup_s": self.setup_samples[0]}
            window, minimum = args.seconds, self.sizes.min_passes
            if args.trace:
                window *= TRACED_SHARE
                minimum = min(minimum, TRACED_MIN_PAIRS)
            deadline = perf_counter() + window
            while len(self.plain) < minimum or perf_counter() < deadline:
                tag = str(len(self.plain))
                self.plain.append(run_pass(workload, tag))
                self.account(self.plain[-1])
                if args.trace:
                    self.traced.append(run_pass(workload, f"t{tag}",
                                                self.tracer))
                    self.account(self.traced[-1])
        finally:
            workload.stop()
        if args.trace:
            return self.layer_values()
        self.setup_samples += self.more_setups(self.sizes.setup_samples - 1)
        walls = [outcome.wall_s for outcome in self.plain]
        return {
            "setup_s": statistics.median(self.setup_samples),
            "wall_s": statistics.median(walls),
            # Jobs of one pass over the median pass, not all jobs over all
            # passes: one stalled pass would move that mean by its length.
            "jobs_per_s": self.plain[0].jobs / statistics.median(walls),
            # Taken last: every child is reaped by now.
            "peak_rss_mb": _peak_rss_mb(),
        }

    def more_setups(self, count: int) -> List[float]:
        """``setup_s`` of ``count`` fresh processes that only set up."""
        samples = []
        for _ in range(count):
            child = subprocess.Popen(
                _child_command(self.args, self.args.workload, self.args.seed)
                + ["--setup-only", "--workdir", str(self.workdir)],
                env=child_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
            try:
                stdout, stderr = child.communicate()
            except BaseException:
                # This run's watchdog fired: fire the child's too, so that
                # it kills the broker and workers only it knows about.
                child.send_signal(signal.SIGALRM)
                try:
                    child.communicate(timeout=10.0)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.communicate()
                raise
            if child.returncode != 0:
                raise RuntimeError(
                    f"set-up child failed ({child.returncode}): {stderr}")
            samples.append(json.loads(stdout.splitlines()[-1])
                           ["metrics"]["setup_s"]["value"])
        return samples

    def layer_values(self) -> Dict[str, float]:
        """The traced run's rows: span self-times, then the ledger."""
        plain = statistics.median(o.wall_s for o in self.plain)
        traced = statistics.median(o.wall_s for o in self.traced)
        rows = {"trace.plain_pass_ms": 1e3 * plain,
                "trace.traced_pass_ms": 1e3 * traced,
                "trace.overhead_ratio": traced / plain,
                "runstore.hit_ratio": statistics.median(
                    o.cached / o.jobs for o in self.traced)}
        # Shares, not times: a layer this workload never enters reads 0 on
        # every run, which is a fact about the workload and not a timing.
        per_pass = []
        for layers in self.tracer.self_times().values():
            whole = sum(layers.values())  # = the pass's root span
            per_pass.append({layer: seconds / whole
                             for layer, seconds in layers.items()})
        for layer in LAYERS:
            rows[f"trace.share.{layer}"] = statistics.median(
                shares.get(layer, 0.0) for shares in per_pass)
        rows.update(ledger.collect(self.sizes, self.args.seed, self.workdir))
        return rows

    def detail(self) -> Dict[str, object]:
        walls = [outcome.wall_s for outcome in self.plain]
        detail: Dict[str, object] = {
            "passes": len(self.plain),
            "jobs_per_pass": self.plain[0].jobs if self.plain else 0,
            "output_sha256": self.workload.reference_sha,
        }
        if walls:
            detail["wall_s"] = report.quartiles(walls)
        if self.setup_samples:
            detail["setup_s_samples"] = self.setup_samples
        return detail


def _child_command(args: argparse.Namespace, workload: str,
                   seed: int) -> List[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
            "--expected", str(args.expected)]


#: ``FS_IOC_GETFLAGS`` / ``FS_IOC_SETFLAGS`` and ``FS_TOPDIR_FL`` (linux/fs.h):
#: what ``chattr +T`` does.
_FS_IOC_GETFLAGS, _FS_IOC_SETFLAGS, _FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x20000


def _spread_subdirectories(path: Path) -> None:
    """``chattr +T``: each subdirectory of ``path`` gets an inode group of its own.

    ext4 puts a file in the inode group of its directory and a directory in
    the group of its parent, so every store this benchmark makes would share
    one group of 8 192 inodes with the stores it deleted before.  Without a
    journal (this host) ext4 does not hand a deleted inode out again for
    one to six minutes, and every file creation walks past all of them: 2 000
    creations cost 0.03 s in a group nothing was deleted from and 1 s in the
    group the last few runs used.  The time of a pass would then be set by
    how many stores were removed in the minutes before it, which is not
    a property of the program.  Under a directory with this flag the
    allocator starts a subdirectory in the emptiest group it finds from the
    hash of the subdirectory's name.  Other filesystems refuse the flag
    and have no such state.
    """
    descriptor = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = array.array("i", [0])  # the kernel reads and writes an int
        fcntl.ioctl(descriptor, _FS_IOC_GETFLAGS, flags)
        flags[0] |= _FS_TOPDIR_FL
        fcntl.ioctl(descriptor, _FS_IOC_SETFLAGS, flags)
    except OSError:
        pass
    finally:
        os.close(descriptor)


def _workdir(args: argparse.Namespace) -> Path:
    base = Path(args.workdir) if args.workdir else DEFAULT_WORKDIR
    base.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    _spread_subdirectories(workdir)
    return workdir


def _remove_workdir(args: argparse.Namespace, workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    if not args.workdir:
        try:
            DEFAULT_WORKDIR.rmdir()  # only when no other run is using it
        except OSError:
            pass


def run_one(args: argparse.Namespace, started: float) -> int:
    """Measure one workload here; print its metrics and the result line."""
    definitions = report.Definitions()
    workdir = _workdir(args)
    run = Run(args, workdir, started)

    def expire(signum, frame):
        raise WatchdogExpired()

    watchdog = _watchdog_seconds(args.seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(watchdog)
    try:
        values = run.measure()
        correct = run.failed == 0 and all(
            math.isfinite(value) for value in values.values())
    except WatchdogExpired:
        run.workload.abort()
        print(f"{args.workload}: watchdog expired after {watchdog} s; "
              f"killed", file=sys.stderr)
        values, correct = None, False
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        spans = run.tracer.to_dicts()
        # Taken here, not first: set-up time is not to include it.
        host = report.fingerprint(workdir, args.seed, args.scale)
        _remove_workdir(args, workdir)

    record: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "attempted": max(1, run.attempted),
        "failed": run.failed if values is not None else max(1, run.attempted),
        "metrics": {}, "detail": run.detail(),
    }
    if values is not None:
        record["metrics"] = (
            {"setup_s": {"value": values["setup_s"], "unit": "s"}}
            if args.setup_only
            else definitions.metrics(values, trace=bool(args.trace)))
    if args.trace_out:
        Path(args.trace_out).write_text(
            json.dumps({"schema": report.SCHEMA, "spans": spans}) + "\n",
            encoding="utf-8")
    if args.out:
        Path(args.out).write_text(json.dumps(
            report.result_file([record], host), indent=1) + "\n",
            encoding="utf-8")
    print(" ".join(f"{key}={value}" for key, value in host.items()))
    report.print_run(record)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload x ``--runs`` seeds, each in a fresh subprocess."""
    workdir = _workdir(args)
    host = report.fingerprint(workdir, args.seed, args.scale)
    records: List[Dict[str, object]] = []
    status = 0
    try:
        for workload in report.Definitions().workloads:
            for index in range(args.runs):
                out = workdir / f"{workload}-{index}.json"
                try:
                    done = subprocess.run(
                        _child_command(args, workload, args.seed + index)
                        + ["--out", str(out), "--workdir", str(workdir)],
                        env=child_env(), stdout=subprocess.DEVNULL,
                        timeout=WATCHDOG_CAP_S + 10, start_new_session=True)
                    code = done.returncode
                except subprocess.TimeoutExpired:
                    code = -signal.SIGKILL
                if out.exists():
                    record = json.loads(out.read_text(encoding="utf-8"))["runs"][0]
                else:
                    record = {"workload": workload, "seed": args.seed + index,
                              "trace": args.trace, "correct": False,
                              "attempted": 1, "failed": 1, "metrics": {},
                              "detail": {"exit_code": code}}
                records.append(record)
                report.print_run(record)
                if code != 0 or not record["correct"]:
                    status = 1
    finally:
        _remove_workdir(args, workdir)
    result = report.result_file(records, host)
    print()
    print(" ".join(f"{key}={value}" for key, value in host.items()))
    report.print_summary(result["summary"])  # type: ignore[arg-type]
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n",
                                  encoding="utf-8")
    return status


def main(argv: List[str], started: float) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload in this process "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="added to every spec's base seed (default 0, "
                             "the seed expected.json pins)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window of one run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced run (per-layer metrics); "
                             "0: end-to-end metrics, tracing off")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'tiny' is the self-test's")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload without --workload, at "
                             "seeds SEED, SEED+1, ...")
    parser.add_argument("--workdir", default=None,
                        help="where stores, journals and sockets live "
                             "(default: benchmarks/e2e/.work)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the result file (fingerprint, runs, "
                             "per-metric n/median/quartiles)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="with --workload and --trace 1: write the spans")
    parser.add_argument("--expected", default=str(DEFAULT_EXPECTED),
                        help="output hashes of the default seed")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge result file B against A and exit")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return report.compare(args.compare[0], args.compare[1],
                              report.Definitions())
    if args.seconds is None:
        args.seconds = float(report.Definitions().run_seconds)
    if args.workload is None:
        if args.trace_out or args.setup_only:
            parser.error("--trace-out needs --workload")
        return run_all(args)
    return run_one(args, started)
