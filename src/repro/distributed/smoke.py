"""End-to-end distributed chaos smoke: worker kills and a broker kill.

This is the executable proof behind the distributed backend's contract,
run by ``make distributed`` and the CI ``distributed`` job.  Two stages:

**Stage 1 — worker kill** (``--stage worker``):

1. start a ``repro-broker`` subprocess on an ephemeral localhost port;
2. start two ``repro-worker`` subprocesses sharing one RunStore — the
   first with a scripted ``REPRO_FAULT_PLAN`` that hard-kills it on its
   first leased job (the OOM-killer stand-in), the second clean;
3. run the trimmed fixed-seed ``figure1`` study through
   :class:`~repro.distributed.backend.DistributedBackend` and save it;
4. assert the killed worker actually died (exit 17), the saved run's
   failure manifest is empty (the lost lease was requeued *uncharged*
   and re-run by the surviving worker), and the ResultSet is
   byte-identical to the committed serial golden
   (``tests/goldens/study-figure1.json``).

**Stage 2 — broker kill + journal recovery** (``--stage broker``):

1. start a journaled ``repro-broker`` on a unix socket, plus two clean
   workers on a fresh RunStore;
2. submit the same trimmed ``figure1``; after the first completion
   streams back, ``SIGKILL`` the broker mid-run;
3. restart the broker against the same journal and socket path and
   attach two fresh workers; the client backend reconnects and
   re-attaches to the journaled run by id;
4. assert the run completes with an empty failure manifest, the output
   is byte-identical to the committed serial golden, and the retired
   run's journal file was garbage-collected.

Because unit jobs are pure functions of ``(spec, seed)``, both kills are
invisible in the output — that is the property this script exists to
keep true.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

from repro.analysis.runstore import RunStore
from repro.distributed.backend import DistributedBackend
from repro.scenarios import compile_study, get_study
from repro.scenarios.execution import JobFailure, JobPolicy, execute_plan
from repro.scenarios.goldens import STUDY_TRIMS, golden_path

#: The whole smoke must finish well inside this budget or something hangs.
WATCHDOG_S = 1500


def _spawn(args: List[str], env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m"] + args,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


def _terminate(processes: List[subprocess.Popen]) -> None:
    for process in processes:
        if process.poll() is None:
            process.terminate()
    for process in processes:
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


def _read_banner(process: subprocess.Popen, prefix: str) -> Optional[str]:
    """The address from a server's listening banner (scan a few lines)."""
    for _ in range(20):
        line = process.stdout.readline()
        if not line:
            return None
        if line.startswith(prefix):
            return line.strip().rsplit(" ", 1)[-1]
    return None


def _figure1_plan():
    return compile_study(get_study("figure1"),
                         member_overrides=STUDY_TRIMS["figure1"])


def _check_golden(results) -> bool:
    golden = golden_path("study", "figure1").read_text(encoding="utf-8")
    return results.to_json() + "\n" == golden


def worker_kill_stage(runs_dir: Optional[str], save: str) -> int:
    runs_dir = runs_dir or tempfile.mkdtemp(prefix="repro-distributed-")
    base_env = dict(os.environ)
    base_env.pop("REPRO_FAULT_PLAN", None)

    processes: List[subprocess.Popen] = []
    try:
        broker = _spawn(["repro.distributed.broker",
                         "--listen", "127.0.0.1:0", "--no-journal"],
                        base_env)
        processes.append(broker)
        address = _read_banner(broker, "repro-broker listening on ")
        if address is None:
            print("smoke: FAIL - broker never printed its address",
                  file=sys.stderr)
            return 1
        print(f"smoke: broker on {address}", flush=True)

        # Worker A inherits a fault plan killing it on its first leased
        # job; worker B is clean.  A starts first so it owns the first
        # lease when the study is submitted.
        kill_env = dict(base_env)
        kill_env["REPRO_FAULT_PLAN"] = json.dumps(
            {"faults": [{"match": "", "attempts": [1], "action": "kill"}]})
        doomed = _spawn(["repro.distributed.worker", "--broker", address,
                         "--name", "doomed", "--runs-dir", runs_dir],
                        kill_env)
        processes.append(doomed)
        time.sleep(1.0)
        survivor = _spawn(["repro.distributed.worker", "--broker", address,
                           "--name", "survivor", "--runs-dir", runs_dir],
                          base_env)
        processes.append(survivor)

        plan = _figure1_plan()
        store = RunStore(runs_dir)
        results = execute_plan(
            plan,
            backend=DistributedBackend(address, run_id="smoke-fig1"),
            store=store, progress=True,
            policy=JobPolicy(max_retries=1, keep_going=True))
        record = store.save(results, save)

        doomed_rc = doomed.wait(timeout=30)
        if doomed_rc != 17:
            print(f"smoke: FAIL - the doomed worker exited {doomed_rc}, "
                  f"expected the injected kill (17)", file=sys.stderr)
            return 1
        if record.failures != 0 or results.failures:
            print(f"smoke: FAIL - failure manifest not empty: "
                  f"{results.failures}", file=sys.stderr)
            return 1
        if not _check_golden(results):
            print("smoke: FAIL - distributed figure1 is not byte-identical "
                  "to the serial golden", file=sys.stderr)
            return 1
        print(f"smoke: OK - {len(results)} results, empty manifest, "
              f"byte-identical to the golden after a mid-run worker kill "
              f"(saved as {record.name!r} under {store.root})", flush=True)
        return 0
    finally:
        _terminate(processes)


def broker_kill_stage(runs_dir: Optional[str], save: str) -> int:
    work_dir = tempfile.mkdtemp(prefix="repro-broker-restart-")
    runs_dir = runs_dir or os.path.join(work_dir, "runs")
    journal_dir = os.path.join(runs_dir, "journal")
    # A unix socket keeps the address stable across the broker restart.
    address = f"unix:{os.path.join(work_dir, 'broker.sock')}"
    base_env = dict(os.environ)
    base_env.pop("REPRO_FAULT_PLAN", None)
    broker_args = ["repro.distributed.broker", "--listen", address,
                   "--journal", journal_dir, "--lease-ttl", "5"]
    worker_args = ["repro.distributed.worker", "--broker", address,
                   "--runs-dir", runs_dir]

    processes: List[subprocess.Popen] = []

    def _start_broker() -> Optional[subprocess.Popen]:
        broker = _spawn(broker_args, base_env)
        processes.append(broker)
        if _read_banner(broker, "repro-broker listening on ") is None:
            print("smoke: FAIL - broker never printed its address",
                  file=sys.stderr)
            return None
        return broker

    def _start_workers(generation: str) -> None:
        for index in range(2):
            worker = _spawn(worker_args
                            + ["--name", f"{generation}-{index}"], base_env)
            processes.append(worker)

    try:
        broker = _start_broker()
        if broker is None:
            return 1
        print(f"smoke: journaled broker on {address}", flush=True)
        _start_workers("gen1")

        plan = _figure1_plan()
        first_done = threading.Event()
        completed: Dict[str, Dict[str, float]] = {}

        def _on_result(key: str, metrics: Dict[str, float]) -> None:
            completed[key] = metrics
            first_done.set()

        backend = DistributedBackend(address, run_id="smoke-restart",
                                     reattach=True, reattach_timeout=300.0)
        failures: Dict[str, JobFailure] = {}
        outcome: Dict[str, object] = {}

        def _drive() -> None:
            try:
                outcome["fresh"] = backend.execute(
                    plan, on_result=_on_result,
                    policy=JobPolicy(keep_going=True), failures=failures)
            except BaseException as error:  # noqa: BLE001 - reported below
                outcome["error"] = error

        driver = threading.Thread(target=_drive, name="smoke-driver",
                                  daemon=True)
        driver.start()

        if not first_done.wait(timeout=600):
            print("smoke: FAIL - no job completed before the kill window",
                  file=sys.stderr)
            return 1
        if not driver.is_alive():
            print("smoke: FAIL - the run finished before the broker could "
                  "be killed mid-run (trims too small?)", file=sys.stderr)
            return 1
        done_at_kill = len(completed)
        broker.send_signal(signal.SIGKILL)
        broker.wait(timeout=30)
        print(f"smoke: SIGKILLed the broker after {done_at_kill} "
              f"completion(s); restarting on the same journal", flush=True)

        if _start_broker() is None:
            return 1
        _start_workers("gen2")

        driver.join(timeout=900)
        if driver.is_alive():
            print("smoke: FAIL - the run never completed after the broker "
                  "restart", file=sys.stderr)
            return 1
        if "error" in outcome:
            print(f"smoke: FAIL - client error across the restart: "
                  f"{outcome['error']!r}", file=sys.stderr)
            return 1
        if failures:
            print(f"smoke: FAIL - failure manifest not empty: "
                  f"{sorted(failures)}", file=sys.stderr)
            return 1
        results = plan.assemble(outcome["fresh"], failures=failures)
        if not _check_golden(results):
            print("smoke: FAIL - post-restart figure1 is not byte-identical "
                  "to the serial golden", file=sys.stderr)
            return 1
        store = RunStore(runs_dir)
        record = store.save(results, save)
        # Retirement garbage-collects the run's journal file; the delete
        # races the client's run-done receipt, so poll briefly.
        for _ in range(50):
            leftover = [name for name in (os.listdir(journal_dir)
                                          if os.path.isdir(journal_dir)
                                          else [])
                        if name.endswith(".jsonl")]
            if not leftover:
                break
            time.sleep(0.2)
        else:
            print(f"smoke: FAIL - journal not garbage-collected after "
                  f"retirement: {leftover}", file=sys.stderr)
            return 1
        print(f"smoke: OK - {len(results)} results, empty manifest, "
              f"byte-identical to the golden across a broker SIGKILL + "
              f"journal recovery ({done_at_kill} pre-kill completion(s); "
              f"saved as {record.name!r} under {store.root})", flush=True)
        return 0
    finally:
        _terminate(processes)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Distributed-execution chaos smoke: a mid-run worker "
                    "kill, then a mid-run broker SIGKILL + journal "
                    "recovery.")
    parser.add_argument("--runs-dir", default=None, metavar="PATH",
                        help="shared run store (default: a fresh temp dir "
                             "per stage)")
    parser.add_argument("--save", default="distributed-fig1", metavar="NAME",
                        help="run name to save the study under")
    parser.add_argument("--stage", choices=("worker", "broker", "all"),
                        default="all",
                        help="which chaos stage(s) to run (default: all)")
    args = parser.parse_args(argv)

    if hasattr(signal, "alarm"):
        signal.alarm(WATCHDOG_S)
    try:
        stages = {"worker": (worker_kill_stage, args.save),
                  "broker": (broker_kill_stage, args.save + "-restart")}
        for name, (stage, save) in stages.items():
            if args.stage not in (name, "all"):
                continue
            started = time.monotonic()
            code = stage(args.runs_dir, save)
            # A re-introduced transport or poll stall shows up here first.
            print(f"smoke: stage {name} took "
                  f"{time.monotonic() - started:.2f} s", flush=True)
            if code != 0:
                return code
        return 0
    finally:
        if hasattr(signal, "alarm"):
            signal.alarm(0)


if __name__ == "__main__":
    raise SystemExit(main())
