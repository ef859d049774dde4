"""The ``repro-lint`` command line.

Usage::

    repro-lint                      # lint the installed repro package
    repro-lint src/repro tests      # lint explicit paths
    repro-lint --json -             # machine-readable report on stdout
    repro-lint --explain RL001      # why a rule exists + how to fix it
    repro-lint --list-rules         # one line per registered rule
    repro-lint --config zones.json  # override per-rule zones

Exit codes follow the repo convention: **0** clean (suppressed findings
are allowed — they are the contract's documented exceptions), **1** at
least one unsuppressed finding, **2** usage error (unknown rule code,
missing path, bad config).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import jsonfmt
from repro.analysis.lint.config import LintConfig, default_config, load_config
from repro.analysis.lint.framework import Finding, lint_paths
from repro.analysis.lint.rules import ALL_RULES, RULES_BY_CODE

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

JSON_VERSION = "reprolint/v1"


def _default_target() -> Path:
    """The installed ``repro`` package source tree."""
    import repro

    return Path(repro.__file__).resolve().parent


def _source_root(target: Path) -> Path:
    """The directory module names are computed relative to.

    For the default target this is the ``src`` directory containing the
    ``repro`` package; for explicit paths, the nearest ancestor whose name
    is not a package (no ``__init__.py``).
    """
    candidate = target if target.is_dir() else target.parent
    while (candidate / "__init__.py").is_file():
        candidate = candidate.parent
    return candidate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism & purity linter for the repro stack "
            "(the rules are the repo's determinism contract)"
        ),
        epilog=__doc__.split("Usage::", 1)[-1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--json", metavar="FILE", dest="json_out",
        help="write the JSON report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--explain", metavar="CODE",
        help="print a rule's rationale, fix-it and suppression policy",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every registered rule code with its summary",
    )
    parser.add_argument(
        "--config", metavar="FILE", type=Path,
        help="JSON zone overrides layered over the built-in contract",
    )
    parser.add_argument(
        "--root", metavar="DIR", type=Path,
        help="source root for module naming (default: inferred)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the human report (exit code + --json only)",
    )
    return parser


def _explain(code: str) -> int:
    rule = RULES_BY_CODE.get(code)
    if rule is None:
        print(
            f"error: unknown rule code {code!r}; known: "
            + ", ".join(sorted(RULES_BY_CODE)),
            file=sys.stderr,
        )
        return EXIT_USAGE
    print(f"{rule.code} [{rule.name}] — {rule.summary}")
    print()
    print(rule.rationale)
    print()
    print(f"Fix: {rule.fixit}.")
    print(
        "Suppress (only with a real justification): append\n"
        f"  # reprolint: ok {rule.code} (reason)\n"
        "to the offending line; reasonless suppressions are themselves "
        "findings (RL000)."
    )
    return EXIT_OK


def _list_rules() -> int:
    for rule in ALL_RULES:
        print(f"{rule.code}  {rule.name:<22} {rule.summary}")
    return EXIT_OK


def _report_json(findings: List[Finding], files: int, clean: bool) -> str:
    by_code: dict = {}
    for finding in findings:
        entry = by_code.setdefault(
            finding.code, {"total": 0, "suppressed": 0}
        )
        entry["total"] += 1
        if finding.suppressed:
            entry["suppressed"] += 1
    payload = {
        "version": JSON_VERSION,
        "files": files,
        "clean": clean,
        "counts": {
            "total": len(findings),
            "suppressed": sum(1 for f in findings if f.suppressed),
            "unsuppressed": sum(1 for f in findings if not f.suppressed),
            "by_code": {code: by_code[code] for code in sorted(by_code)},
        },
        "findings": [f.to_dict() for f in findings],
    }
    return jsonfmt.dumps(payload)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        return _list_rules()

    config: LintConfig = default_config()
    if args.config is not None:
        if not args.config.is_file():
            print(f"error: config file not found: {args.config}",
                  file=sys.stderr)
            return EXIT_USAGE
        try:
            config = load_config(args.config, config)
        except (ValueError, json.JSONDecodeError) as error:
            print(f"error: bad lint config: {error}", file=sys.stderr)
            return EXIT_USAGE

    paths = list(args.paths) or [_default_target()]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return EXIT_USAGE
    root = args.root if args.root is not None else _source_root(paths[0])

    findings, files = lint_paths(paths, ALL_RULES, config, root)
    unsuppressed = [f for f in findings if not f.suppressed]
    clean = not unsuppressed

    if not args.quiet:
        for finding in findings:
            print(finding.render())
        suppressed = len(findings) - len(unsuppressed)
        print(
            f"reprolint: {files} file(s), {len(unsuppressed)} finding(s)"
            + (f", {suppressed} suppressed exception(s)" if suppressed else "")
            + (" — clean" if clean else "")
        )
    if args.json_out:
        text = _report_json(findings, files, clean)
        if args.json_out == "-":
            print(text)
        else:
            Path(args.json_out).write_text(text + "\n", encoding="utf-8")

    return EXIT_OK if clean else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
