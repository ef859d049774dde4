"""Command-line runner for the scenario framework.

::

    python -m repro.run --list
    python -m repro.run pow-baseline
    python -m repro.run run pow-baseline --json -
    python -m repro.run kad-lookup --set topology.size=800 --seed 9 --replicates 3
    python -m repro.run sweep pbft-consortium --sweep "architecture.replicas=4,7,13"
    python -m repro.run churn-ladder --json results.json

    python -m repro.run --list-studies
    python -m repro.run study figure1 --json - --replicates 3
    python -m repro.run study figure1 --members bitcoin,fabric
    python -m repro.run study figure1 --set bitcoin.architecture.duration_blocks=20

    # Execution backends and the run store
    python -m repro.run study figure1 --replicates 3 --jobs 4 --progress
    python -m repro.run study figure1 --save fig1-nightly
    python -m repro.run ls
    python -m repro.run show fig1-nightly

    # Drift verification and store lifecycle
    python -m repro.run diff fig1-nightly fig1-tonight --tol throughput_tps=0.05
    python -m repro.run diff results-a.json results-b.json
    python -m repro.run study figure1 --save again --no-resume
    python -m repro.run gc --dry-run
    python -m repro.run verify

Installed as the ``repro-run`` console script.  The first argument is a
subcommand (``run``, ``sweep``, ``study``, ``ls``, ``show``, ``diff``,
``gc``, ``verify``) or — for backwards compatibility — a bare registered
scenario name.  ``run NAME`` executes the base configuration only
(registered sweep axes are dropped; explicit ``--sweep`` flags still
apply); ``sweep NAME`` and the bare-name form expand the scenario's
declared variants/sweeps into one result per point.

``diff A B`` compares two ResultSets through
:mod:`repro.analysis.diff` — A and B are saved run names, paths to result
JSON files, or ``-`` for stdin — and exits 0 when they match within
tolerance, 1 on drift.  ``--tol METRIC=REL`` (repeatable; fnmatch
patterns like ``*_latency_s`` and the ``*`` catch-all supported,
``abs:X``/``rel:X,abs:Y`` forms accepted) sets per-metric tolerances;
``--profile NAME`` starts from a curated tolerance map
(:data:`repro.analysis.diff.TOLERANCE_PROFILES` — ``sketch`` validates
streaming-sketch vs exact metrics collection, ``latency`` absorbs noisy
cross-seed latency percentiles, ``cross-substrate`` compares scalar vs
``kad-fast`` Kademlia runs at overlapping N across their deliberate
spec difference) with ``--tol`` entries layered on top.
CI-overlap failures of replicated runs warn by default and fail only
under ``--strict-ci``.  ``gc`` drops store objects and cached
units unreachable from any saved name (``--dry-run`` lists them without
deleting) and compacts the units it keeps into one segment, ``verify``
re-hashes every stored object, checks every cached unit's checksum and
flags corruption,
and ``--no-resume`` forces every unit job to re-execute, overwriting the
cache, instead of resuming from it.

``--jobs N`` fans the plan's unit jobs out over N worker processes; the
output is byte-identical to the serial run at the same seed (results merge
by content-addressed job key, not completion order).  ``--backend
distributed --broker ADDR`` ships the same unit jobs to ``repro-worker``
processes attached to a ``repro-broker`` (see :mod:`repro.distributed`)
with the same byte-identity guarantee; retries, backoff and timeouts
(``--retries``/``--job-timeout``/``--keep-going``) apply broker-side with
the same deterministic schedule, and a worker that dies mid-job only
costs time, never an attempt.  ``--save NAME``
persists the ResultSet into the run store (``runs/`` by default;
``--runs-dir``/``$REPRO_RUNS_DIR`` override) and enables spec-hash-based
resume: unit jobs already recorded in the store are skipped on re-run.
``repro-run ls`` lists saved runs and ``repro-run show NAME`` reloads one.

``--retries N``/``--job-timeout S``/``--keep-going`` supervise the unit
jobs: a failed or timed-out job is retried up to N extra times (with
deterministic exponential backoff), and under ``--keep-going`` a job that
exhausts its budget is recorded in the saved ResultSet's failure manifest
instead of aborting the run — the partial results are printed/saved, a
failure table goes to stderr, and the process exits 3.  Because failed
jobs never enter the unit cache, re-running the same ``--save`` command
executes only the failed units.  Exit codes: 0 success, 1 drift
(``diff``, and damage found by ``verify``), 2 usage error (one line on
stderr), 3 partial failure.

``--set``/``--sweep`` values are parsed as JSON where possible (``none`` →
null), so ``--set churn=none`` and ``--set 'churn={"mean_session": 600}'``
both work.  For studies, ``--set`` takes ``MEMBER.PATH=VALUE`` where
``MEMBER`` is a member label from ``--list-studies`` (or ``*`` for every
member).  Output at a fixed seed is deterministic: two runs of the same
command produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.analysis.diff import (
    SPEC_DRIFT_PROFILES,
    Tolerance,
    diff_resultsets,
    parse_tolerance,
    tolerance_profile,
)
from repro.analysis.resultset import ResultSet
from repro.analysis.runstore import RunStore, is_run_name
from repro.analysis.tables import ResultTable
from repro.scenarios import (
    SCENARIOS,
    STUDIES,
    JobExecutionError,
    JobPolicy,
    compile_study,
    compile_sweep,
    execute_plan,
    get_scenario,
    get_study,
    results_to_json,
    scenario_names,
    study_names,
)

#: First positional arguments that are commands rather than scenario names.
COMMANDS = ("run", "sweep", "study", "ls", "show", "diff", "gc", "verify")

#: Exit codes (documented in the module docstring and --help epilog).
EXIT_OK = 0
EXIT_DRIFT = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3

EPILOG = """\
examples:
  repro-run pow-baseline                         run one scenario
  repro-run run selfish-mining                   base configuration, sweeps dropped
  repro-run run kad-lookup --set topology.size=800 --replicates 3
  repro-run sweep bft-committee-sweep --jobs 4   fan the sweep out over 4 processes
  repro-run study figure1 --json - --replicates 3 --jobs 4
  repro-run study figure1 --save fig1-nightly    persist + resume via the run store
  repro-run ls                                   list saved runs
  repro-run show fig1-nightly                    reload a saved run
  repro-run diff fig1-nightly fig1-tonight       drift check two saved runs
  repro-run diff golden.json - --tol '*'=0.05    file vs stdin, 5% everywhere
  repro-run study figure1 --save redo --no-resume  re-execute cached unit jobs
  repro-run gc --dry-run                         list unreachable objects/units
  repro-run verify                               re-hash every stored object
  repro-run study figure1 --jobs 4 --retries 2   retry failed/crashed unit jobs
  repro-run sweep kad-lookup --job-timeout 60    kill unit jobs stuck past 60s
  repro-run study figure1 --retries 1 --keep-going --save partial
                                                 collect failures, exit 3, save
                                                 the rest; rerun retries only
                                                 the failed units

distributed execution (see repro.distributed):
  repro-broker --listen 127.0.0.1:7480           start the job broker (its
                                                 queue is journaled under
                                                 <runs>/journal and replayed
                                                 on restart; --no-journal
                                                 disables)
  repro-worker --broker 127.0.0.1:7480 --runs-dir runs   (repeat per host/core)
  repro-run study figure1 --backend distributed --broker 127.0.0.1:7480
                                                 same bytes as the serial run,
                                                 at any worker count, even if
                                                 workers die mid-run; with the
                                                 default --journal the client
                                                 also rides out a broker
                                                 kill -9 + restart by
                                                 re-attaching to the run
                                                 (--no-journal fails fast)
"""


def _parse_value(text: str):
    """Best-effort literal parsing of a command-line override value."""
    lowered = text.strip().lower()
    if lowered in ("none", "null"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return json.loads(text)
    except (ValueError, TypeError):
        return text


def _parse_assignment(argument: str, flag: str) -> (str, str):
    path, separator, value = argument.partition("=")
    if not separator or not path:
        raise SystemExit(f"{flag} expects PATH=VALUE, got {argument!r}")
    return path.strip(), value


def _list_scenarios() -> None:
    table = ResultTable(["scenario", "family", "claim", "runs", "description"],
                        title="Registered scenarios (python -m repro.run <name>)")
    for name in scenario_names():
        spec = SCENARIOS[name]
        points = len(spec.expand()) if spec.is_swept else 1
        table.add_row(name, spec.family, spec.claim or "-",
                      points if points > 1 else 1, spec.description)
    print(table.render())


def _list_studies() -> None:
    table = ResultTable(["study", "claim", "members", "description"],
                        title="Registered studies (python -m repro.run study <name>)")
    for name in study_names():
        spec = STUDIES[name]
        table.add_row(name, spec.claim or "-",
                      ", ".join(spec.member_labels()), spec.description)
    print(table.render())


def _emit_json(payload: str, destination: str, quiet: bool) -> None:
    if destination == "-":
        print(payload)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        if not quiet:
            print(f"\nwrote {destination}")


def _store_for(args, required: bool = False) -> Optional[RunStore]:
    """The run store, when the invocation needs one.

    ``--save`` (and the ``ls``/``show`` commands, via ``required``) open the
    store; a bare ``--runs-dir`` alone does not trigger persistence.
    """
    if required or args.save:
        return RunStore(args.runs_dir)
    return None


def _save_results(store: Optional[RunStore], results, args) -> None:
    if store is None or not args.save:
        return
    record = store.save(results, args.save)
    if not args.quiet:
        print(f"\nsaved run {record.name!r} "
              f"({record.results} results, object {record.object_hash[:12]}) "
              f"under {store.root}")


def _backend_from_args(args):
    """The execution backend from ``--backend``/``--broker``/``--jobs``.

    Returns whatever :func:`execute_plan` accepts: ``None``/int for the
    serial and process-pool paths, or a
    :class:`~repro.distributed.DistributedBackend` when ``--backend
    distributed`` (or a bare ``--broker ADDR``) selects the queue-backed
    path.  All three produce byte-identical output for the same plan.
    """
    choice = args.backend
    if choice is None and args.broker:
        choice = "distributed"
    if choice == "distributed":
        if not args.broker:
            raise SystemExit(
                "--backend distributed needs --broker ADDR (HOST:PORT or "
                "unix:/path) pointing at a running repro-broker with "
                "workers attached")
        from repro.distributed import DistributedBackend

        # --journal (default) rides out a broker restart: the backend
        # reconnects and re-submits the same run id, which re-attaches
        # to the journal-replayed run; --no-journal fails fast instead.
        return DistributedBackend(args.broker,
                                  reattach=args.journal is not False)
    if args.broker:
        raise SystemExit(f"--broker only applies to --backend distributed, "
                         f"not --backend {choice}")
    if args.journal is not None:
        raise SystemExit("--journal/--no-journal only apply to "
                         "--backend distributed")
    if choice == "serial":
        if args.jobs and args.jobs > 1:
            raise SystemExit("--backend serial contradicts --jobs N; drop one")
        return None
    if choice == "pool":
        return args.jobs if args.jobs and args.jobs > 1 \
            else (os.cpu_count() or 2)
    return args.jobs


def _policy_from_args(args) -> JobPolicy:
    """The run's JobPolicy from ``--retries/--job-timeout/--keep-going``."""
    if args.retries < 0:
        raise SystemExit(f"--retries expects a non-negative count, "
                         f"got {args.retries}")
    if args.job_timeout is not None and args.job_timeout <= 0:
        raise SystemExit(f"--job-timeout expects a positive number of "
                         f"seconds, got {args.job_timeout:g}")
    return JobPolicy(max_retries=args.retries, timeout_s=args.job_timeout,
                     keep_going=args.keep_going)


def _report_failures(results, args) -> int:
    """Render the failure manifest to stderr; the command's exit code."""
    if not getattr(results, "failures", None):
        return EXIT_OK
    table = ResultTable(
        ["scenario", "label", "kind", "attempts", "error"],
        title=f"{len(results.failures)} unit job(s) failed after retries")
    for entry in results.failures:
        table.add_row(entry.get("scenario", "-"), entry.get("label", "-"),
                      entry.get("kind", "-"), entry.get("attempts", "-"),
                      entry.get("error", "-"))
    print("\n" + table.render(), file=sys.stderr)
    print(f"partial run: {len(results)} result(s) assembled, "
          f"{len(results.failures)} unit job(s) failed (exit {EXIT_PARTIAL}); "
          f"a rerun re-executes only the failed units", file=sys.stderr)
    return EXIT_PARTIAL


def _print_resultset(results, compare_metrics=None, title=None) -> None:
    for result in results:
        print()
        print(result.table().render())
    if len(results) > 1 or compare_metrics:
        print()
        print(results.to_table(metrics=compare_metrics or None,
                               title=title).render())


def _parse_tolerances(args) -> Dict[str, Tolerance]:
    """Tolerances for ``diff``: the ``--profile`` base, ``--tol`` on top.

    Explicit ``--tol`` entries override same-named profile entries; new
    metric names/patterns are appended after the profile's (so the
    profile's more-specific patterns keep priority, its ``"*"`` fallback
    never does — ``tolerance_for`` resolves ``"*"`` last regardless).
    """
    tolerances: Dict[str, Tolerance] = {}
    if getattr(args, "profile", None):
        try:
            tolerances = tolerance_profile(args.profile)
        except ValueError as error:
            raise SystemExit(error.args[0])
    for assignment in args.tolerances:
        try:
            metric, tolerance = parse_tolerance(assignment)
        except ValueError as error:
            raise SystemExit(error.args[0])
        tolerances[metric] = tolerance
    return tolerances


def _load_diff_operand(operand: str, args) -> Tuple[ResultSet, str]:
    """Resolve one ``diff`` operand: saved run name, JSON path, or ``-``.

    Saved-run names win over paths (a run is addressed the way ``ls``
    printed it even if a same-named file exists); anything that is neither
    exits with a one-line error.
    """
    if operand == "-":
        payload = sys.stdin.read()
        label = "stdin"
    else:
        store = RunStore(args.runs_dir)
        if is_run_name(operand):
            try:
                return store.load(operand), operand
            except ValueError as error:  # named, but fails its hash check
                raise SystemExit(error.args[0])
            except KeyError:
                pass
        if not os.path.exists(operand):
            known = ", ".join(record.name for record in store.list()) or "(none)"
            raise SystemExit(
                f"{operand!r} is neither a saved run in {store.root} nor a "
                f"result JSON file; saved runs: {known}")
        with open(operand, "r", encoding="utf-8") as handle:
            payload = handle.read()
        label = operand
    try:
        data = json.loads(payload)
    except ValueError:
        raise SystemExit(f"{label}: not valid JSON")
    try:
        if isinstance(data, list):  # results_to_json sweep output
            return ResultSet.from_dict({"results": data}), label
        if isinstance(data, dict) and "results" not in data \
                and "metrics" in data:  # single-result scenario output
            return ResultSet.from_dict({"results": [data]}), label
        results = ResultSet.from_dict(data)
        if not len(results) and not isinstance(data.get("results"), list):
            raise ValueError("no results")
        return results, label
    except (KeyError, ValueError, TypeError, AttributeError):
        raise SystemExit(f"{label}: not a ResultSet JSON document")


def _run_diff_command(args) -> int:
    if not args.name or not args.name2:
        raise SystemExit("diff expects two runs: repro-run diff A B "
                         "(saved run names, JSON paths, or '-' for stdin)")
    if args.name == "-" and args.name2 == "-":
        raise SystemExit("only one diff operand can read stdin")
    tolerances = _parse_tolerances(args)
    results_a, label_a = _load_diff_operand(args.name, args)
    results_b, label_b = _load_diff_operand(args.name2, args)
    report = diff_resultsets(results_a, results_b, tolerances=tolerances,
                             a_label=label_a, b_label=label_b,
                             spec_changed_ok=args.profile in SPEC_DRIFT_PROFILES)
    if not args.quiet:
        table = report.table()
        print(table.render() if len(table) else report.summary())
    if args.json_out:
        _emit_json(report.to_json(), args.json_out, args.quiet)
    failures = report.ci_failures
    if failures and not args.quiet:
        for unit, delta in failures:
            print(f"ci-overlap: {unit.display}.{delta.metric} "
                  f"[{delta.a:.6g} vs {delta.b:.6g}] intervals are disjoint",
                  file=sys.stderr)
    if not report.identical or (failures and args.strict_ci):
        return EXIT_DRIFT
    return EXIT_OK


def _run_gc_command(args) -> int:
    if args.name:
        raise SystemExit(f"gc takes no positional name (got {args.name!r}); "
                         f"use --runs-dir to pick a store")
    store = _store_for(args, required=True)
    report = store.gc(dry_run=args.dry_run)
    if not args.quiet:
        removed = report.objects_removed + report.units_removed
        for name in removed:
            print(("would remove " if args.dry_run else "removed ") + name)
        print(f"gc {store.root}: {report.summary()}")
    return EXIT_OK


def _run_verify_command(args) -> int:
    if args.name:
        raise SystemExit(f"verify takes no positional name (got {args.name!r}); "
                         f"use --runs-dir to pick a store")
    store = _store_for(args, required=True)
    problems = store.verify()
    if not problems:
        if not args.quiet:
            print(f"verify {store.root}: all objects, records and units healthy")
        return EXIT_OK
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"verify {store.root}: {len(problems)} problem(s) found",
          file=sys.stderr)
    return EXIT_DRIFT


def _run_ls_command(args) -> int:
    store = _store_for(args, required=True)
    records = store.list()
    if not records:
        print(f"no saved runs under {store.root} "
              f"(save one with: repro-run study figure1 --save NAME)")
        return EXIT_OK
    table = ResultTable(["name", "results", "failures", "labels", "saved at",
                         "object"],
                        title=f"Saved runs in {store.root} (repro-run show <name>)")
    for record in records:
        labels = ", ".join(record.labels[:4])
        if len(record.labels) > 4:
            labels += f", ... ({len(record.labels)})"
        table.add_row(record.name, record.results,
                      record.failures or "-", labels,
                      record.saved_at, record.object_hash[:12])
    print(table.render())
    return EXIT_OK


def _run_show_command(args) -> int:
    if not args.name:
        raise SystemExit("show expects a saved run name (see: repro-run ls)")
    store = _store_for(args, required=True)
    try:
        results = store.load(args.name)
    except (KeyError, ValueError) as error:
        raise SystemExit(error.args[0])
    if not args.quiet:
        _print_resultset(results, title=f"saved run {args.name}: "
                                        f"{results.name or 'result set'}")
    if args.json_out:
        _emit_json(results.to_json(), args.json_out, args.quiet)
    return EXIT_OK


def _run_study_command(args) -> int:
    if not args.name:
        _list_studies()
        return EXIT_USAGE
    try:
        study = get_study(args.name)
    except KeyError as error:
        raise SystemExit(error.args[0])
    if args.sweeps:
        raise SystemExit("--sweep applies to scenarios; studies declare their "
                         "sweeps on swept members")

    member_overrides: Dict[str, Dict[str, object]] = {}
    for assignment in args.overrides:
        path, value = _parse_assignment(assignment, "--set")
        member, separator, rest = path.partition(".")
        if not separator or not rest:
            raise SystemExit(
                f"--set for studies expects MEMBER.PATH=VALUE (members: "
                f"{study.member_labels()}, or '*'), got {assignment!r}"
            )
        if member != "*" and member not in study.member_labels():
            raise SystemExit(f"unknown member {member!r} of study "
                             f"{study.name!r}; members: {study.member_labels()}")
        member_overrides.setdefault(member, {})[rest] = _parse_value(value)

    members = [label.strip() for label in args.members.split(",")] \
        if args.members else None
    store = _store_for(args)
    # Only *compilation* (name lookup, member selection, dotted-path
    # overrides) is a usage error worth a one-line exit; once the plan
    # exists, an exception is a real bug and keeps its traceback.
    try:
        plan = compile_study(study, seed=args.seed,
                             replicates=args.replicates, members=members,
                             member_overrides=member_overrides)
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0] if error.args else error))
    try:
        results = execute_plan(plan, backend=_backend_from_args(args),
                               store=store, progress=args.progress,
                               resume=not args.no_resume,
                               policy=_policy_from_args(args))
    except JobExecutionError as error:
        print(error.args[0], file=sys.stderr)
        return EXIT_PARTIAL

    if not args.quiet:
        _print_resultset(results, compare_metrics=study.compare_metrics,
                         title=f"study {study.name}: {study.description}")
    _save_results(store, results, args)
    if args.json_out:
        _emit_json(results.to_json(), args.json_out, args.quiet)
    return _report_failures(results, args)


def _run_scenario_command(args, name: str, base_only: bool = False) -> int:
    if args.members:
        raise SystemExit("--members applies to studies (repro-run study <name>)")
    try:
        spec = get_scenario(name)
    except KeyError as error:
        raise SystemExit(error.args[0])

    if base_only:
        # `repro-run run NAME`: the base configuration only — registered
        # expansion axes are dropped (explicit --sweep flags still apply).
        spec.sweeps = {}
        spec.variants = {}
    overrides: Dict[str, object] = {}
    for assignment in args.overrides:
        path, value = _parse_assignment(assignment, "--set")
        overrides[path] = _parse_value(value)
    for assignment in args.sweeps:
        path, values = _parse_assignment(assignment, "--sweep")
        if not values.strip():
            raise SystemExit(f"--sweep expects PATH=V1,V2,..., got {assignment!r}")
        spec.sweeps[path] = [_parse_value(value) for value in values.split(",")]

    store = _store_for(args)
    # A bad --set/--sweep dotted path (unknown spec field, path through a
    # non-dict) surfaces at plan compilation: one line on stderr, not a
    # traceback.  Execution stays outside the try so a genuine adapter or
    # engine failure is never masked as a usage error.
    try:
        plan = compile_sweep(spec, overrides=overrides, seed=args.seed,
                             replicates=args.replicates)
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0] if error.args else error))
    try:
        results = execute_plan(plan, backend=_backend_from_args(args),
                               store=store, progress=args.progress,
                               resume=not args.no_resume,
                               policy=_policy_from_args(args))
    except JobExecutionError as error:
        print(error.args[0], file=sys.stderr)
        return EXIT_PARTIAL

    if not args.quiet:
        for result in results:
            print()
            print(result.table().render())
    _save_results(store, results, args)

    if args.json_out:
        # NOTE: the scenario-path JSON shapes (single result object /
        # bare result list) predate the failure manifest and cannot
        # carry it; study output (a full ResultSet document) does.
        if len(results) == 1:
            payload = results[0].to_json()
        else:
            payload = results_to_json(results.results)
        _emit_json(payload, args.json_out, args.quiet)
    return _report_failures(results, args)


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-run``: a usage error is one line on stderr and exit 2.

    Every usage error is raised as ``SystemExit("message")``; this maps it
    to :data:`EXIT_USAGE`.  argparse's own exits (``--help``, a bad
    flag) carry their code and pass through.
    """
    try:
        return _main(argv)
    except SystemExit as error:
        if error.code is None or isinstance(error.code, int):
            raise
        print(error.code, file=sys.stderr)
        return EXIT_USAGE


def _main(argv: Optional[List[str]]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Run a named scenario (or study) through the architecture adapters.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", nargs="?", metavar="COMMAND",
                        help="run (base config) | sweep (expand axes) | "
                             "study | ls | show, or a bare registered "
                             "scenario name (implies 'sweep')")
    parser.add_argument("name", nargs="?", metavar="NAME",
                        help="scenario name (run/sweep), study name (study), "
                             "saved run name (show), or diff's A side")
    parser.add_argument("name2", nargs="?", metavar="B",
                        help="diff's B side: saved run name, JSON path, or '-'")
    parser.add_argument("--list", action="store_true", help="list registered scenarios")
    parser.add_argument("--list-studies", action="store_true",
                        help="list registered cross-family studies")
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    parser.add_argument("--replicates", type=int, default=None,
                        help="seeds per point (seed, seed+1, ...)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="PATH=VALUE",
                        help="override a spec field by dotted path (repeatable); "
                             "for studies the first segment is the member label")
    parser.add_argument("--sweep", dest="sweeps", action="append", default=[],
                        metavar="PATH=V1,V2,...",
                        help="add a sweep axis over comma-separated values (repeatable)")
    parser.add_argument("--members", metavar="L1,L2,...",
                        help="run only these members of a study")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="execute unit jobs on a process pool of N workers "
                             "(default: serial; output is byte-identical)")
    parser.add_argument("--backend", choices=("serial", "pool", "distributed"),
                        default=None,
                        help="execution backend (default: serial, or pool "
                             "when --jobs N is given); 'distributed' ships "
                             "unit jobs to repro-worker processes via a "
                             "repro-broker (needs --broker)")
    parser.add_argument("--broker", metavar="ADDR", default=None,
                        help="broker address for --backend distributed "
                             "(HOST:PORT or unix:/path); implies the "
                             "distributed backend when given alone")
    journal_group = parser.add_mutually_exclusive_group()
    journal_group.add_argument("--journal", dest="journal",
                               action="store_true", default=None,
                               help="ride out a broker restart (default): on "
                                    "a lost connection, reconnect and "
                                    "re-attach to the journaled run by id")
    journal_group.add_argument("--no-journal", dest="journal",
                               action="store_false",
                               help="fail fast when the broker connection "
                                    "drops instead of re-attaching")
    parser.add_argument("--save", metavar="NAME",
                        help="persist the ResultSet under NAME in the run "
                             "store and resume finished unit jobs from it")
    parser.add_argument("--no-resume", action="store_true",
                        help="re-execute every unit job even when cached in "
                             "the run store (fresh results overwrite the cache)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry a failed/crashed unit job up to N extra "
                             "times with deterministic exponential backoff "
                             "(default: 0, fail fast)")
    parser.add_argument("--job-timeout", type=float, default=None, metavar="S",
                        help="per-unit-job wall-clock budget in seconds; a "
                             "job past it counts as failed (and is retried "
                             "under --retries)")
    parser.add_argument("--keep-going", action="store_true",
                        help="do not abort when a unit job exhausts its "
                             "retries: assemble the remaining results, list "
                             "the failures, and exit 3")
    parser.add_argument("--tol", dest="tolerances", action="append", default=[],
                        metavar="METRIC=REL",
                        help="diff tolerance for one metric or fnmatch "
                             "pattern ('*_latency_s'; '*' for all; abs:X and "
                             "rel:X,abs:Y forms; default exact)")
    parser.add_argument("--profile", metavar="NAME", default=None,
                        help="named diff tolerance profile ('sketch' for "
                             "streaming-vs-exact metrics, 'latency' for "
                             "noisy cross-seed percentiles, "
                             "'cross-substrate' for scalar-vs-kad-fast "
                             "Kademlia runs at overlapping N); --tol "
                             "entries override the profile's")
    parser.add_argument("--strict-ci", action="store_true",
                        help="make diff fail (exit 1) on CI-overlap failures "
                             "instead of warning")
    parser.add_argument("--dry-run", action="store_true",
                        help="gc: list unreachable objects/units without "
                             "deleting anything")
    parser.add_argument("--runs-dir", metavar="PATH", default=None,
                        help="run-store directory (default: ./runs or "
                             "$REPRO_RUNS_DIR)")
    parser.add_argument("--progress", action="store_true",
                        help="print one stderr line per finished unit job")
    parser.add_argument("--json", dest="json_out", metavar="PATH",
                        help="write the result JSON to PATH ('-' for stdout)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the metric tables")
    args = parser.parse_args(argv)
    if args.broker:
        from repro.distributed.protocol import parse_address

        try:
            parse_address(args.broker)
        except ValueError as error:
            raise SystemExit(f"--broker: {error}")

    if args.list_studies:
        _list_studies()
        return EXIT_OK
    if args.list or not args.command:
        _list_scenarios()
        return EXIT_OK if args.list else EXIT_USAGE

    if args.command != "diff" and args.name2:
        raise SystemExit(
            f"unexpected extra argument {args.name2!r}; only diff takes two "
            f"positional names"
        )

    if args.command in COMMANDS:
        if args.command == "ls":
            return _run_ls_command(args)
        if args.command == "show":
            return _run_show_command(args)
        if args.command == "diff":
            return _run_diff_command(args)
        if args.command == "gc":
            return _run_gc_command(args)
        if args.command == "verify":
            return _run_verify_command(args)
        if args.command == "study":
            return _run_study_command(args)
        # run (base configuration only) / sweep (expand registered axes).
        if not args.name:
            raise SystemExit(f"{args.command} expects a registered scenario "
                             f"name (see: repro-run --list)")
        return _run_scenario_command(args, args.name,
                                     base_only=args.command == "run")

    # Legacy spelling: a bare scenario name expands its registered
    # sweeps/variants, like `sweep <name>` always did.
    if args.name:
        raise SystemExit(
            f"unexpected extra argument {args.name!r}; did you mean "
            f"'study {args.command}'?"
        )
    return _run_scenario_command(args, args.command)


if __name__ == "__main__":
    sys.exit(main())
