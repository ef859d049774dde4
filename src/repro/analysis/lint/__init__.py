"""reprolint — AST-based determinism & purity analysis for the repro stack.

Every guarantee this reproduction makes — byte-identical goldens,
spec-hash resume, retry-safe fault recovery — rests on a determinism
contract: results are a pure function of ``(spec, seed)``.  This package
enforces that contract mechanically instead of by review vigilance.  The
rules (each with a stable ``RLxxx`` code, ``--explain`` rationale and
fix-it):

* **RL001** builtin ``hash()`` anywhere (per-process salted — the
  historical ``SeededRNG.fork`` bug).
* **RL002** wall-clock reads inside simulation-semantics modules
  (supervision/runstore zones are allowlisted by config).
* **RL003** module-global or unseeded RNG outside ``SeededRNG`` /
  ``vecstate``.
* **RL004** order-sensitive iteration over sets (require ``sorted()``).
* **RL005** environment/platform reads inside unit-job execution paths.
* **RL006** ``ScenarioSpec`` serialized-form discipline (new fields must
  conditional-emit or be registered observational).

Run it as ``repro-lint`` (console script), ``python -m
repro.analysis.lint`` or ``make lint``.  Exit codes: 0 clean / 1 findings
/ 2 usage.  Line-level exceptions need a reasoned inline suppression::

    value = time.time()  # reprolint: ok RL002 (reason it cannot feed results)
"""

from repro.analysis.lint.config import (
    LintConfig,
    ZoneConfig,
    default_config,
    load_config,
)
from repro.analysis.lint.framework import (
    Finding,
    ModuleSource,
    Rule,
    lint_paths,
    lint_sources,
    load_source,
)
from repro.analysis.lint.rules import ALL_RULES, RULES_BY_CODE
from repro.analysis.lint.cli import main

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintConfig",
    "ModuleSource",
    "Rule",
    "RULES_BY_CODE",
    "ZoneConfig",
    "default_config",
    "lint_paths",
    "lint_sources",
    "load_config",
    "load_source",
    "main",
]
