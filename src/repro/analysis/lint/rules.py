"""The reprolint rule set: the determinism contract, one rule per clause.

Every rule has a stable code (``RL001``...), a one-line ``summary``, the
long ``rationale`` shown by ``repro-lint --explain``, and a ``fixit``
appended to each finding.  Codes are append-only: a retired rule keeps its
number so old suppression comments never silently re-target a new rule.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.lint.config import LintConfig
from repro.analysis.lint.framework import Finding, ModuleSource, Rule

__all__ = ["ALL_RULES", "RULES_BY_CODE", "rule_for"]


# ----------------------------------------------------------------------
# RL001 — builtin hash()
# ----------------------------------------------------------------------
class RuleBuiltinHash(Rule):
    code = "RL001"
    name = "builtin-hash"
    summary = "builtin hash() feeds a value that must be process-stable"
    fixit = (
        "derive digests with hashlib (sha256/blake2b) or "
        "repro.sim.vecstate.stream_key"
    )
    rationale = (
        "Builtin hash() is salted per interpreter process (PYTHONHASHSEED):\n"
        "hash('a') differs between two runs of the same fixed-seed\n"
        "experiment.  Any value derived from it — child RNG seeds, spec\n"
        "hashes, cache keys that feed draw streams — silently varies across\n"
        "processes, which is exactly the PR 2 bug: SeededRNG.fork derived\n"
        "child seeds from hash((seed, label)), so 'fixed-seed' runs\n"
        "disagreed between hosts.  The contract bans builtin hash()\n"
        "package-wide; use a content hash (hashlib.sha256/blake2b) or the\n"
        "splitmix64 stream keys in repro.sim.vecstate instead.  There is no\n"
        "legitimate use in this codebase, so suppressions should be rare\n"
        "and well argued."
    )

    def check(self, src: ModuleSource, config: LintConfig) -> Iterator[Finding]:
        if "hash" in src.imports:  # locally rebound: not the builtin
            return
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    src, node,
                    "builtin hash() is per-process salted (PYTHONHASHSEED); "
                    "the result is not stable across runs",
                )


# ----------------------------------------------------------------------
# RL002 — wall-clock reads in simulation semantics
# ----------------------------------------------------------------------
#: Qualified names whose value depends on the host's wall clock.
WALL_CLOCK_READS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class RuleWallClock(Rule):
    code = "RL002"
    name = "wall-clock"
    summary = "wall-clock read inside a simulation-semantics module"
    fixit = (
        "derive time from Simulator.now (virtual clock) or thread it in as "
        "data; wall clocks belong to the supervision/runstore allowlist"
    )
    rationale = (
        "Simulation results must be a pure function of (spec, seed).  A\n"
        "wall-clock read (time.time/monotonic/perf_counter, datetime.now)\n"
        "inside the simulated world couples metrics to host speed and run\n"
        "scheduling, breaking byte-identical goldens and spec-hash resume.\n"
        "Simulation code gets time from the virtual clock (Simulator.now).\n"
        "Supervision timers (retry backoff budgets, hung-worker watchdogs\n"
        "in repro.scenarios.execution) and run-store bookkeeping (gc age\n"
        "cutoff, saved_at stamps in repro.analysis.runstore) legitimately\n"
        "read wall clocks — those modules are allowlisted by config because\n"
        "their clocks decide when to retry or how to label a run, never\n"
        "what a metric is worth."
    )

    def check(self, src: ModuleSource, config: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            qualname = src.resolve(node)
            if qualname in WALL_CLOCK_READS:
                yield self.finding(
                    src, node,
                    f"wall-clock read {qualname}() in simulation-semantics "
                    f"module {src.module}",
                )


# ----------------------------------------------------------------------
# RL003 — global / module-level RNG
# ----------------------------------------------------------------------
#: Draw/seed functions of the stdlib ``random`` module's hidden global.
STDLIB_GLOBAL_RNG = frozenset({
    "random." + name for name in (
        "random", "uniform", "randint", "randrange", "getrandbits",
        "randbytes", "choice", "choices", "sample", "shuffle", "seed",
        "gauss", "normalvariate", "lognormvariate", "expovariate",
        "paretovariate", "weibullvariate", "betavariate", "gammavariate",
        "triangular", "vonmisesvariate", "binomialvariate",
    )
})

#: Module-global numpy RNG functions (legacy np.random.* API).
NUMPY_GLOBAL_RNG = frozenset({
    "numpy.random." + name for name in (
        "seed", "random", "rand", "randn", "randint", "random_sample",
        "random_integers", "ranf", "sample", "bytes", "choice", "shuffle",
        "permutation", "uniform", "normal", "standard_normal",
        "exponential", "poisson", "pareto", "weibull", "lognormal",
        "binomial", "beta", "gamma", "zipf", "get_state", "set_state",
    )
})

#: Constructors that are only deterministic when given an explicit seed.
SEED_REQUIRED_CTORS = frozenset({
    "random.Random", "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.SeedSequence",
})


class RuleGlobalRNG(Rule):
    code = "RL003"
    name = "global-rng"
    summary = "module-global or unseeded RNG outside the seeded substrate"
    fixit = (
        "draw from a SeededRNG (fork a labelled child stream) or the "
        "counter-based repro.sim.vecstate hashes"
    )
    rationale = (
        "random.random()/np.random.*() draw from a hidden module-global\n"
        "generator: any consumer anywhere in the process perturbs every\n"
        "other consumer's stream, and an unseeded default_rng()/Random()\n"
        "seeds itself from the OS.  Either way the draw order is not a\n"
        "function of the experiment's seed, so fixed-seed runs diverge.\n"
        "All randomness flows from repro.sim.rng.SeededRNG (fork labelled\n"
        "child streams so new consumers never perturb existing ones) or,\n"
        "on the vectorized fast path, from the counter-based splitmix64\n"
        "hashes in repro.sim.vecstate — both modules are the rule's only\n"
        "allowlisted implementations."
    )

    def check(self, src: ModuleSource, config: LintConfig) -> Iterator[Finding]:
        reported: Set[Tuple[int, int]] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                qualname = src.resolve(node.func)
                if qualname in SEED_REQUIRED_CTORS and not (
                    node.args or node.keywords
                ):
                    key = (node.lineno, node.col_offset)
                    if key not in reported:
                        reported.add(key)
                        yield self.finding(
                            src, node,
                            f"unseeded {qualname}() self-seeds from the OS; "
                            "fixed-seed runs will differ",
                        )
                    continue
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            qualname = src.resolve(node)
            if qualname in STDLIB_GLOBAL_RNG or qualname in NUMPY_GLOBAL_RNG:
                key = (node.lineno, node.col_offset)
                if key in reported:
                    continue
                reported.add(key)
                yield self.finding(
                    src, node,
                    f"{qualname} draws from the process-global generator, "
                    "not from the experiment seed",
                )


# ----------------------------------------------------------------------
# RL004 — iteration over sets where order matters
# ----------------------------------------------------------------------
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})


def _is_set_expr(node: ast.AST, set_names: Set[str], src: ModuleSource) -> bool:
    """Whether ``node`` is statically certain to evaluate to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset") and \
                    node.func.id not in src.imports:
                return True
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _SET_METHODS:
            return _is_set_expr(node.func.value, set_names, src)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return (
            _is_set_expr(node.left, set_names, src)
            or _is_set_expr(node.right, set_names, src)
        )
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


def _builds_output(body: List[ast.stmt]) -> bool:
    """Whether a loop body does anything order-sensitive.

    Heuristic on the conservative side: any call (could schedule events or
    draw randomness), yield, or store into a container counts.  A body that
    only, say, sets flags on loop variables escapes — and can be suppressed
    back in if it ever matters.
    """
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Call, ast.Yield, ast.YieldFrom,
                                 ast.Await, ast.AugAssign)):
                return True
            if isinstance(node, ast.Assign) and any(
                isinstance(t, (ast.Subscript, ast.Attribute))
                for t in node.targets
            ):
                return True
    return False


class _SetIterVisitor(ast.NodeVisitor):
    """Per-scope tracking of set-valued locals + set-iteration findings."""

    def __init__(self, rule: "RuleSetIteration", src: ModuleSource) -> None:
        self.rule = rule
        self.src = src
        self.findings: List[Finding] = []
        self._scopes: List[Set[str]] = [set()]

    @property
    def set_names(self) -> Set[str]:
        return self._scopes[-1]

    # -- scope handling -------------------------------------------------
    def _visit_scope(self, node: ast.AST) -> None:
        self._scopes.append(set())
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node)

    # -- assignment tracking --------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = _is_set_expr(node.value, self.set_names, self.src)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self.set_names.add(target.id)
                else:
                    self.set_names.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if _is_set_expr(node.value, self.set_names, self.src):
                self.set_names.add(node.target.id)
            else:
                self.set_names.discard(node.target.id)
        self.generic_visit(node)

    # -- the actual checks ----------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter, self.set_names, self.src) and \
                _builds_output(node.body):
            self.findings.append(self.rule.finding(
                self.src, node.iter,
                "loop over a set: iteration order is unspecified and the "
                "body is order-sensitive",
            ))
        self.generic_visit(node)

    def _check_comprehension(
        self, node: ast.AST, generators: List[ast.comprehension]
    ) -> None:
        for gen in generators:
            if _is_set_expr(gen.iter, self.set_names, self.src):
                self.findings.append(self.rule.finding(
                    self.src, gen.iter,
                    "comprehension over a set builds ordered output from "
                    "unspecified iteration order",
                ))

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        # A generator feeding sorted()/min()/max()/sum()/any()/all()/len()
        # or a set/frozenset constructor is order-insensitive by nature;
        # everything else (join, list(...), direct iteration) is not.  The
        # parent is not reachable from here, so stay conservative and only
        # flag when the generator is somebody's direct iterable — handled
        # by visit_For/visit_Call below.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # list(<set>) / tuple(<set>) materialize unspecified order into
        # ordered output.  sorted(<set>) is the fix, so it passes.
        if isinstance(node.func, ast.Name) and \
                node.func.id in ("list", "tuple") and \
                node.func.id not in self.src.imports and \
                len(node.args) == 1 and not node.keywords and \
                _is_set_expr(node.args[0], self.set_names, self.src):
            self.findings.append(self.rule.finding(
                self.src, node,
                f"{node.func.id}(<set>) materializes unspecified set order "
                "into ordered output",
            ))
        self.generic_visit(node)


class RuleSetIteration(Rule):
    code = "RL004"
    name = "set-iteration"
    summary = "order-sensitive iteration over a set/frozenset"
    fixit = "wrap the iterable in sorted(...) to pin a total order"
    rationale = (
        "Set iteration order is unspecified: it depends on insertion\n"
        "history and element hashes — for str/bytes/object elements that\n"
        "means PYTHONHASHSEED, i.e. it changes across processes.  A loop\n"
        "over a set whose body schedules events, draws randomness or\n"
        "appends to output therefore produces different event/draw orders\n"
        "per run even at a fixed seed.  The rule flags statically-certain\n"
        "set iterables (set literals, set()/frozenset() calls, set\n"
        "operators, locals assigned from them) in for-loops with\n"
        "order-sensitive bodies, comprehensions building ordered output,\n"
        "and list()/tuple() materialization.  sorted(<set>) pins a total\n"
        "order and passes; int-only sets iterated for pure membership\n"
        "tallies can be suppressed with a reason."
    )

    def check(self, src: ModuleSource, config: LintConfig) -> Iterator[Finding]:
        visitor = _SetIterVisitor(self, src)
        visitor.visit(src.tree)
        yield from visitor.findings


# ----------------------------------------------------------------------
# RL005 — environment / platform reads in unit-job execution paths
# ----------------------------------------------------------------------
ENV_READS = frozenset({
    "os.environ", "os.environb", "os.getenv", "os.getenvb", "os.putenv",
    "os.uname", "socket.gethostname", "getpass.getuser",
})

PLATFORM_PREFIX = "platform."


class RuleEnvRead(Rule):
    code = "RL005"
    name = "env-read"
    summary = "environment/platform read inside a unit-job execution path"
    fixit = (
        "thread the value through ScenarioSpec (so it is hashed) or read "
        "it at the CLI boundary and pass it down"
    )
    rationale = (
        "A unit job is content-addressed by ScenarioSpec.spec_hash: the\n"
        "cache, resume and golden machinery all assume the same (spec,\n"
        "seed) computes the same metrics on every host.  Reading\n"
        "os.environ/platform inside the execution path smuggles host state\n"
        "past the hash — two hosts disagree about a 'cached' unit and the\n"
        "diff layer reports phantom drift.  Configuration belongs in the\n"
        "spec (hashed) or at the CLI boundary (explicitly outside the\n"
        "job).  The fault-injection hook (REPRO_FAULT_PLAN) and run-store\n"
        "location (REPRO_RUNS_DIR) are the two sanctioned exceptions, each\n"
        "carrying an inline suppression with its reason."
    )

    def check(self, src: ModuleSource, config: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            qualname = src.resolve(node)
            if qualname is None:
                continue
            if qualname in ENV_READS or qualname.startswith(PLATFORM_PREFIX):
                yield self.finding(
                    src, node,
                    f"host-state read {qualname} inside the unit-job "
                    "execution zone breaks spec-hash purity",
                )


# ----------------------------------------------------------------------
# RL006 — ScenarioSpec serialized-form discipline
# ----------------------------------------------------------------------
class RuleSpecFields(Rule):
    code = "RL006"
    name = "spec-field-discipline"
    summary = "ScenarioSpec field breaks the frozen serialized form"
    fixit = (
        "emit the field conditionally in to_dict (only when != default) or "
        "register it in OBSERVATIONAL_SPEC_KEYS"
    )
    rationale = (
        "Every golden, unit-cache entry and RunStore object is keyed by\n"
        "ScenarioSpec.spec_hash — a hash of to_dict().  Adding a field\n"
        "that to_dict always emits changes the serialized form of every\n"
        "pre-existing spec, silently invalidating all recorded hashes (the\n"
        "cache would re-run everything; diffs would pair nothing).  New\n"
        "fields must either follow the conditional-emit pattern — emitted\n"
        "only when the value differs from its default, the way `metrics`\n"
        "is — or be registered in OBSERVATIONAL_SPEC_KEYS so the diff\n"
        "layer knows to drop them when pairing units.  Removing or\n"
        "conditionalising one of the original baseline fields shifts\n"
        "hashes just the same, so that direction is flagged too."
    )

    def check(self, src: ModuleSource, config: LintConfig) -> Iterator[Finding]:
        klass = next(
            (node for node in src.tree.body
             if isinstance(node, ast.ClassDef)
             and node.name == config.spec_class),
            None,
        )
        if klass is None:
            return
        fields: Dict[str, ast.AnnAssign] = {}
        for stmt in klass.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name) and \
                    not stmt.target.id.startswith("_"):
                fields[stmt.target.id] = stmt

        to_dict = next(
            (stmt for stmt in klass.body
             if isinstance(stmt, ast.FunctionDef) and stmt.name == "to_dict"),
            None,
        )
        if to_dict is None:
            yield self.finding(
                src, klass,
                f"{config.spec_class} has no to_dict — the serialized form "
                "(and so every spec hash) is undefined",
            )
            return

        unconditional: Dict[str, ast.AST] = {}
        conditional: Dict[str, ast.AST] = {}

        def collect(stmts: List[ast.stmt], in_branch: bool) -> None:
            for stmt in stmts:
                bucket = conditional if in_branch else unconditional
                if isinstance(stmt, (ast.Assign, ast.Return)):
                    value = stmt.value
                    if isinstance(value, ast.Dict):
                        for key in value.keys:
                            if isinstance(key, ast.Constant) and \
                                    isinstance(key.value, str):
                                bucket.setdefault(key.value, key)
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Subscript) and \
                                isinstance(target.slice, ast.Constant) and \
                                isinstance(target.slice.value, str):
                            bucket.setdefault(target.slice.value, target)
                for child_body, branch in _branches(stmt):
                    collect(child_body, in_branch or branch)

        def _branches(stmt: ast.stmt) -> List[Tuple[List[ast.stmt], bool]]:
            if isinstance(stmt, ast.If):
                return [(stmt.body, True), (stmt.orelse, True)]
            if isinstance(stmt, (ast.For, ast.While)):
                return [(stmt.body, True), (stmt.orelse, True)]
            if isinstance(stmt, ast.Try):
                out = [(stmt.body, True), (stmt.orelse, True),
                       (stmt.finalbody, True)]
                out.extend((h.body, True) for h in stmt.handlers)
                return out
            if isinstance(stmt, ast.With):
                return [(stmt.body, False)]
            return []

        collect(to_dict.body, False)

        observational = _observational_keys(src, config)
        baseline = set(config.baseline_spec_fields)

        for name, node in sorted(fields.items()):
            if name in baseline:
                if name not in unconditional:
                    yield self.finding(
                        src, to_dict,
                        f"baseline spec field {name!r} is no longer emitted "
                        "unconditionally by to_dict — every pre-existing "
                        "spec hash shifts",
                    )
                continue
            if name in unconditional:
                yield self.finding(
                    src, unconditional[name],
                    f"new spec field {name!r} is emitted unconditionally by "
                    "to_dict — every pre-existing spec hash shifts",
                )
            elif name not in conditional and name not in observational:
                yield self.finding(
                    src, node,
                    f"new spec field {name!r} is neither conditionally "
                    "emitted by to_dict nor registered in "
                    f"{config.observational_keys_name}",
                )


def _observational_keys(src: ModuleSource, config: LintConfig) -> Set[str]:
    """Statically read OBSERVATIONAL_SPEC_KEYS from its home module."""
    rel = Path(*config.observational_keys_module.split(".")).with_suffix(".py")
    # Walk up from the linted file to find the source root that contains
    # the observational-keys module (handles both the real tree and test
    # fixture trees).
    base = src.path.resolve().parent
    for _ in range(len(src.module.split(".")) + 1):
        candidate = base / rel
        if candidate.is_file():
            break
        base = base.parent
    else:
        return set()
    if not candidate.is_file():
        return set()
    try:
        tree = ast.parse(candidate.read_text(encoding="utf-8"))
    except SyntaxError:
        return set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and \
                        target.id == config.observational_keys_name and \
                        isinstance(node.value, (ast.Tuple, ast.List, ast.Set)):
                    return {
                        elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    }
    return set()


#: Every rule, in code order.  Append-only.
ALL_RULES: Tuple[Rule, ...] = (
    RuleBuiltinHash(),
    RuleWallClock(),
    RuleGlobalRNG(),
    RuleSetIteration(),
    RuleEnvRead(),
    RuleSpecFields(),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}
