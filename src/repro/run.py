"""Command-line runner for the scenario framework (``repro-run``).

Each command has its own parser and takes only the flags it reads; a
flag that another command owns is a usage error (``repro-run COMMAND
--help`` lists them)::

    repro-run --list | --list-studies
    repro-run run NAME   [EXECUTION] [--sweep PATH=V1,V2,...] [OUTPUT]
    repro-run sweep NAME [EXECUTION] [--sweep PATH=V1,V2,...] [OUTPUT]
    repro-run NAME ...   (the same as: sweep NAME ...)
    repro-run study NAME [EXECUTION] [--members L1,L2,...] [OUTPUT]
    repro-run ls         [--runs-dir PATH]
    repro-run show RUN   [OUTPUT]
    repro-run diff A B   [--tol METRIC=REL]... [--profile NAME] [--strict-ci] [OUTPUT]
    repro-run gc         [--dry-run] [--runs-dir PATH] [--quiet]
    repro-run verify     [--runs-dir PATH] [--quiet]

    EXECUTION  [--seed N] [--replicates N] [--set PATH=VALUE]... [--save NAME]
               [--no-resume] [--retries N] [--job-timeout S] [--keep-going]
               [--progress] [--jobs N | --broker ADDR]
    OUTPUT     [--runs-dir PATH] [--json PATH] [--quiet]

``run NAME`` executes the base configuration only (registered sweep axes
are dropped; explicit ``--sweep`` flags still apply); ``sweep NAME`` and
the bare-name form expand the scenario's declared variants/sweeps into
one result per point.

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
under ``--strict-ci``.  ``gc`` drops store objects and cached units
unreachable from any saved name (``--dry-run`` lists them without
deleting) and compacts the units it keeps into one segment; ``verify``
re-hashes every stored object, checks every cached unit's checksum and
flags corruption.

Without ``--jobs``/``--broker`` the unit jobs run serially.  ``--jobs N``
fans them out over N worker processes, and ``--broker ADDR`` ships them
to ``repro-worker`` processes attached to a ``repro-broker`` (see
:mod:`repro.distributed`), re-attaching to the journaled run if the
connection drops.  Both merge results by content-addressed job key, so
the output is byte-identical to the serial run at the same seed.
``--save NAME`` persists the ResultSet into the run store (``runs/`` by
default; ``--runs-dir``/``$REPRO_RUNS_DIR`` override) and enables
spec-hash-based resume: unit jobs already recorded in the store are
skipped on re-run, unless ``--no-resume`` forces them to re-execute.

``--retries N``/``--job-timeout S``/``--keep-going`` supervise the unit
jobs on every backend: a failed or timed-out job is retried up to N
extra times (with deterministic exponential backoff), and under
``--keep-going`` a job that exhausts its budget is recorded in the saved
ResultSet's failure manifest instead of aborting the run — the partial
results are printed/saved, a failure table goes to stderr, and the
process exits 3.  Because failed jobs never enter the unit cache,
re-running the same ``--save`` command executes only the failed units.
Exit codes: 0 success, 1 drift (``diff``, and damage found by
``verify``), 2 usage error (one line on stderr), 3 partial failure, 141
stdout closed by its reader (as for a tool killed by ``SIGPIPE``).

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
import signal
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
    SpecError,
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
flags by command (repro-run COMMAND --help describes them):
  run|sweep NAME  EXECUTION --sweep OUTPUT   (repro-run NAME = sweep NAME)
  study NAME      EXECUTION --members OUTPUT
  ls              --runs-dir
  show RUN        OUTPUT
  diff A B        --tol --profile --strict-ci OUTPUT
  gc              --dry-run --runs-dir --quiet
  verify          --runs-dir --quiet
  EXECUTION       --seed --replicates --set --save --no-resume --retries
                  --job-timeout --keep-going --progress, and --jobs N
                  (process pool) or --broker ADDR (repro-broker), not both;
                  neither runs the unit jobs serially
  OUTPUT          --runs-dir --json --quiet

examples:
  repro-run pow-baseline                         run one scenario
  repro-run run selfish-mining                   base configuration, sweeps dropped
  repro-run run kad-lookup --set topology.size=800 --replicates 3
  repro-run sweep bft-committee-sweep --jobs 4   fan the sweep out over 4 processes
  repro-run study figure1 --json - --replicates 3 --jobs 4
  repro-run study figure1 --save fig1-nightly    persist + resume via the run store
  repro-run diff fig1-nightly fig1-tonight       drift check two saved runs
  repro-run diff golden.json - --tol '*'=0.05    file vs stdin, 5% everywhere
  repro-run study figure1 --save redo --no-resume  re-execute cached unit jobs
  repro-run study figure1 --jobs 4 --retries 2   retry failed/crashed unit jobs
  repro-run sweep kad-lookup --job-timeout 60    kill unit jobs stuck past 60s
  repro-run study figure1 --retries 1 --keep-going --save partial
                                                 collect failures, exit 3, save
                                                 the rest; rerun retries only
                                                 the failed units

distributed execution (see repro.distributed):
  repro-broker --listen 127.0.0.1:7480           start the job broker (queue
                                                 journaled under <runs>/journal)
  repro-worker --broker 127.0.0.1:7480 --runs-dir runs   (repeat per host/core)
  repro-run study figure1 --broker 127.0.0.1:7480
                                                 same bytes as the serial run,
                                                 even if workers die or the
                                                 broker is killed and restarted
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


def _backend_from_args(args):
    """``--broker`` is the distributed backend, ``--jobs N`` the pool,
    neither the serial path; all three give byte-identical output."""
    if args.broker:
        from repro.distributed import DistributedBackend

        return DistributedBackend(args.broker)
    return args.jobs


def _report_failures(results) -> int:
    """Render the failure manifest to stderr; the command's exit code."""
    if not results.failures:
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


def _execute(args, plan, render, payload) -> int:
    """Execute a compiled plan, then print, save and emit its results.

    ``render`` prints the tables and ``payload`` makes the ``--json``
    document.  A spec value the experiment cannot be built from
    (:class:`SpecError`) is a usage error, like a failed compilation;
    any other exception raised here is a real bug and keeps its
    traceback.
    """
    store = RunStore(args.runs_dir) if args.save else None
    try:
        results = execute_plan(plan, backend=_backend_from_args(args),
                               store=store, progress=args.progress,
                               resume=not args.no_resume,
                               policy=_policy_from_args(args))
    except JobExecutionError as error:
        print(error.args[0], file=sys.stderr)
        return EXIT_PARTIAL
    except SpecError as error:
        print(error.args[0], file=sys.stderr)
        return EXIT_USAGE
    if not args.quiet:
        render(results)
    if store is not None:
        record = store.save(results, args.save)
        if not args.quiet:
            print(f"\nsaved run {record.name!r} "
                  f"({record.results} results, object {record.object_hash[:12]}) "
                  f"under {store.root}")
    if args.json_out:
        _emit_json(payload(results), args.json_out, args.quiet)
    return _report_failures(results)


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
    if args.profile:
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
    if args.a == "-" and args.b == "-":
        raise SystemExit("only one diff operand can read stdin")
    tolerances = _parse_tolerances(args)
    results_a, label_a = _load_diff_operand(args.a, args)
    results_b, label_b = _load_diff_operand(args.b, args)
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
    store = RunStore(args.runs_dir)
    report = store.gc(dry_run=args.dry_run)
    if not args.quiet:
        removed = report.objects_removed + report.units_removed
        for name in removed:
            print(("would remove " if args.dry_run else "removed ") + name)
        print(f"gc {store.root}: {report.summary()}")
    return EXIT_OK


def _run_verify_command(args) -> int:
    store = RunStore(args.runs_dir)
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
    store = RunStore(args.runs_dir)
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
    store = RunStore(args.runs_dir)
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
    # Only *compilation* (name lookup, member selection, dotted-path
    # overrides) is a usage error worth a one-line exit.
    try:
        plan = compile_study(study, seed=args.seed,
                             replicates=args.replicates, members=members,
                             member_overrides=member_overrides)
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0] if error.args else error))
    return _execute(
        args, plan,
        render=lambda results: _print_resultset(
            results, compare_metrics=study.compare_metrics,
            title=f"study {study.name}: {study.description}"),
        payload=lambda results: results.to_json())


def _run_scenario_command(args) -> int:
    try:
        spec = get_scenario(args.name)
    except KeyError as error:
        raise SystemExit(error.args[0])

    if args.base_only:
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

    # A bad --set/--sweep dotted path (unknown spec field, path through a
    # non-dict) surfaces at plan compilation: one line on stderr, not a
    # traceback.
    try:
        plan = compile_sweep(spec, overrides=overrides, seed=args.seed,
                             replicates=args.replicates)
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0] if error.args else error))

    def render(results) -> None:
        for result in results:
            print()
            print(result.table().render())

    # NOTE: the scenario-path JSON shapes (single result object / bare
    # result list) predate the failure manifest and cannot carry it;
    # study output (a full ResultSet document) does.
    return _execute(
        args, plan, render,
        payload=lambda results: results[0].to_json() if len(results) == 1
        else results_to_json(results.results))


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors keep the one-line usage contract."""

    def error(self, message: str):
        raise SystemExit(f"{self.prog}: error: {message}")


def _broker_address(text: str) -> str:
    from repro.distributed.protocol import parse_address

    try:
        parse_address(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))
    return text


def _build_parser() -> argparse.ArgumentParser:
    """``repro-run``'s parser: one subparser per command.

    A command's flags come from the shared parent parsers it names, so a
    flag another command owns is a usage error, not silently ignored.
    """
    execution = _Parser(add_help=False)
    execution.add_argument("--seed", type=int, default=None,
                           help="override the base seed")
    execution.add_argument("--replicates", type=int, default=None,
                           help="seeds per point (seed, seed+1, ...)")
    execution.add_argument("--set", dest="overrides", action="append",
                           default=[], metavar="PATH=VALUE",
                           help="override a spec field by dotted path "
                                "(repeatable); for studies the first "
                                "segment is the member label")
    execution.add_argument("--save", metavar="NAME",
                           help="persist the ResultSet under NAME in the run "
                                "store and resume finished unit jobs from it")
    execution.add_argument("--no-resume", action="store_true",
                           help="re-execute every unit job even when cached "
                                "in the run store (fresh results overwrite "
                                "the cache)")
    execution.add_argument("--retries", type=int, default=0, metavar="N",
                           help="retry a failed/crashed unit job up to N "
                                "extra times with deterministic exponential "
                                "backoff (default: 0, fail fast)")
    execution.add_argument("--job-timeout", type=float, default=None,
                           metavar="S",
                           help="per-unit-job wall-clock budget in seconds; a "
                                "job past it counts as failed (and is "
                                "retried under --retries)")
    execution.add_argument("--keep-going", action="store_true",
                           help="do not abort when a unit job exhausts its "
                                "retries: assemble the remaining results, "
                                "list the failures, and exit 3")
    execution.add_argument("--progress", action="store_true",
                           help="print one stderr line per finished unit job")
    backend = execution.add_mutually_exclusive_group()
    backend.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="execute unit jobs on a process pool of N "
                              "workers (default: serial; output is "
                              "byte-identical)")
    backend.add_argument("--broker", type=_broker_address, default=None,
                         metavar="ADDR",
                         help="ship unit jobs to repro-worker processes via "
                              "the repro-broker at ADDR (HOST:PORT or "
                              "unix:/path); output is byte-identical, and a "
                              "lost connection re-attaches to the run")

    # --runs-dir < --quiet < --json: each command takes the prefix it reads.
    store = _Parser(add_help=False)
    store.add_argument("--runs-dir", metavar="PATH", default=None,
                       help="run-store directory (default: ./runs or "
                            "$REPRO_RUNS_DIR)")
    quiet = _Parser(add_help=False, parents=[store])
    quiet.add_argument("--quiet", action="store_true",
                       help="suppress the metric tables")
    output = _Parser(add_help=False, parents=[quiet])
    output.add_argument("--json", dest="json_out", metavar="PATH",
                        help="write the result JSON to PATH ('-' for stdout)")

    parser = _Parser(
        prog="repro-run",
        description="Run a named scenario (or study) through the architecture adapters.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--list", action="store_true", help="list registered scenarios")
    parser.add_argument("--list-studies", action="store_true",
                        help="list registered cross-family studies")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, handler, parents, text, **defaults):
        sub = commands.add_parser(name, parents=parents, help=text,
                                  description=text)
        sub.set_defaults(handler=handler, **defaults)
        return sub

    for name, text in (("run", "run a scenario's base configuration "
                               "(registered sweep axes dropped)"),
                       ("sweep", "run every declared variant/sweep point of "
                                 "a scenario (also: repro-run NAME)")):
        sub = command(name, _run_scenario_command, [execution, output], text,
                      base_only=name == "run")
        sub.add_argument("name", metavar="SCENARIO",
                         help="registered scenario name (see --list)")
        sub.add_argument("--sweep", dest="sweeps", action="append",
                         default=[], metavar="PATH=V1,V2,...",
                         help="add a sweep axis over comma-separated values "
                              "(repeatable)")
    sub = command("study", _run_study_command, [execution, output],
                  "run a registered cross-family study")
    sub.add_argument("name", nargs="?", metavar="STUDY",
                     help="registered study name (omitted: list them)")
    sub.add_argument("--members", metavar="L1,L2,...",
                     help="run only these members of the study")
    command("ls", _run_ls_command, [store], "list saved runs")
    sub = command("show", _run_show_command, [output], "reload a saved run")
    sub.add_argument("name", metavar="RUN", help="saved run name (see ls)")
    sub = command("diff", _run_diff_command, [output],
                  "compare two ResultSets; exit 1 on drift")
    for side in ("A", "B"):
        sub.add_argument(side.lower(), metavar=side,
                         help="saved run name, result JSON path, or '-' "
                              "for stdin")
    sub.add_argument("--tol", dest="tolerances", action="append", default=[],
                     metavar="METRIC=REL",
                     help="tolerance for one metric or fnmatch pattern "
                          "('*_latency_s'; '*' for all; abs:X and "
                          "rel:X,abs:Y forms; default exact)")
    sub.add_argument("--profile", metavar="NAME", default=None,
                     help="named tolerance profile (sketch, latency, "
                          "cross-substrate); --tol entries override it")
    sub.add_argument("--strict-ci", action="store_true",
                     help="fail (exit 1) on CI-overlap failures instead of "
                          "warning")
    sub = command("gc", _run_gc_command, [quiet],
                  "drop store objects and cached units no saved run "
                  "reaches, and compact the units kept")
    sub.add_argument("--dry-run", action="store_true",
                     help="list unreachable objects/units without deleting "
                          "anything")
    command("verify", _run_verify_command, [quiet],
            "re-hash every stored object and check every cached unit; "
            "exit 1 on damage")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-run``: a usage error is one line on stderr and exit 2.

    Every usage error — ours and argparse's, through :class:`_Parser` —
    is raised as ``SystemExit("message")``; this maps it to
    :data:`EXIT_USAGE`.  ``--help`` exits 0 and passes through.

    A reader that closes stdout early (``repro-run ... | head``) ends the
    run without a traceback and with the exit status of a tool killed by
    ``SIGPIPE`` (141); stdout is pointed at ``os.devnull`` so the
    interpreter's final flush cannot fail again.
    """
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except SystemExit as error:
        if error.code is None or isinstance(error.code, int):
            raise
        print(error.code, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + signal.SIGPIPE


def _main(argv: Optional[List[str]]) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # The bare-name spelling: `repro-run NAME ...` is `sweep NAME ...`.
    if argv and argv[0] not in COMMANDS and not argv[0].startswith("-"):
        argv.insert(0, "sweep")
    args = _build_parser().parse_args(argv)
    if args.list_studies:
        _list_studies()
        return EXIT_OK
    if args.list or not args.command:
        _list_scenarios()
        return EXIT_OK if args.list else EXIT_USAGE
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
