"""Every module and every public name under ``src/repro`` is used by
something registered.

The roots are what a user can actually run: the registered experiments
(plus the scenario and study registries that select them), the claim
benchmarks (``benchmarks/test_[ea]*.py``), the ``setup.py`` console
scripts and ``python -m`` entry points, and ``examples/``.

*Modules.*  From the roots an AST import graph is followed —
function-level imports included, because the experiments import their
models lazily.  A package ``__init__`` is *not* a licence: ``from
repro.p2p import X`` reaches only the module ``X`` is defined in, never
everything the ``__init__`` happens to re-export, so a module kept alive
by nothing but its package's re-export (and its own unit test) shows up
here as unreached.

*Names.*  The same rule holds one level down, in every non-``__init__``
module: a public class, function, constant, method or property must be
mentioned (an AST ``Name``, ``Attribute`` or ``from … import``) somewhere
in ``src/repro`` outside its own definition, in a claim benchmark, in
``examples/`` or in ``benchmarks/e2e``.  A package's re-export is not a
mention, and neither is a test.  A mention inside a definition that is
itself unreferenced does not count, so a mechanism that only feeds itself
(a class used by nothing but the factory method nothing calls) is named
whole.  Three kinds of definition are live without a mention, because
they are called by registry or by ``getattr``: the ``@experiment``
classes (and their methods), the ``on_<msg_type>`` handlers that
``Node.receive`` and ``CpuBoundNode.receive`` dispatch to, and the
console scripts' ``main``s.  A name only tests reach is deleted with its
tests, or moved to ``tests/`` when it is a test fixture.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.framework import iter_python_files, module_name

REPO = Path(__file__).resolve().parents[1]

#: Modules allowed to be unreached.  Empty on purpose: register an
#: experiment (or claim, or entry point) that reaches the module, or
#: delete it.
ALLOWED_UNREACHED: Set[str] = set()


#: Public names allowed to have no reference, each with its reason.
ALLOWED_UNREFERENCED_NAMES: Dict[str, str] = {
    "repro.sim.engine.Simulator.processed":
        "with `pending`, the engine counters ROADMAP item 6(d) builds on; "
        "the determinism fingerprints in tests/test_sim_determinism.py "
        "read it",
    "repro.analysis.runstore.RunStore.delete":
        "the nightly CI job trims the run store to its last 14 nights with "
        "it (.github/workflows/ci.yml), and no CLI command deletes a run",
    "repro.scenarios.execution.unit_spec":
        "the plain definition of a unit job's identity: "
        "tests/test_unit_identity.py hashes every registered job against "
        "it, and UnitJob.for_seeds' fast path must agree byte for byte",
}


class _Graph:
    def __init__(self, src: Path) -> None:
        #: Dotted name -> file for every module under ``src/repro``.
        self.files: Dict[str, Path] = {
            module_name(path, src): path
            for path in iter_python_files([src / "repro"])}
        self._trees: Dict[str, ast.Module] = {}

    def tree(self, module: str) -> ast.Module:
        if module not in self._trees:
            self._trees[module] = ast.parse(
                self.files[module].read_text(encoding="utf-8"))
        return self._trees[module]

    def _is_package(self, module: str) -> bool:
        return self.files[module].name == "__init__.py"

    def imports(self, tree: ast.Module, module: Optional[str]) -> Iterator[str]:
        """Modules under ``repro`` that ``tree`` imports, at any depth.

        ``module`` is the importing module's own dotted name (``None``
        for a file outside the package), needed for relative imports.
        """
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.files:
                        yield alias.name
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    assert module is not None
                    package = module.split(".")
                    if not self._is_package(module):
                        package.pop()
                    package = package[:len(package) - (node.level - 1)]
                    base = ".".join(package + ([base] if base else []))
                if base not in self.files:
                    continue
                for alias in node.names:
                    yield from self.resolve(base, alias.name)

    def resolve(self, module: str, name: str) -> Iterator[str]:
        """Where ``from module import name`` really lands.

        A submodule is itself; a name a package ``__init__`` re-exports is
        followed to the module that defines it; anything else is defined
        in ``module``.
        """
        if f"{module}.{name}" in self.files:
            yield f"{module}.{name}"
            return
        if self._is_package(module):
            for node in self.tree(module).body:
                if not isinstance(node, ast.ImportFrom) or node.level:
                    continue
                for alias in node.names:
                    if (alias.asname or alias.name) == name \
                            and node.module in self.files:
                        yield from self.resolve(node.module, alias.name)
                        return
        yield module

    def reached_from(self, roots: Iterable[str]) -> Set[str]:
        reached: Set[str] = set()
        queue: List[str] = list(roots)
        while queue:
            module = queue.pop()
            if module in reached:
                continue
            reached.add(module)
            # Importing a.b.c runs a/__init__ and a.b/__init__ too — they
            # are reached, but their re-exports are not followed.
            parent = module.rpartition(".")[0]
            while parent:
                reached.add(parent)
                parent = parent.rpartition(".")[0]
            if not self._is_package(module):
                queue.extend(self.imports(self.tree(module), module))
        return reached


def _roots(repo: Path, graph: _Graph) -> Set[str]:
    from repro.scenarios.adapters import EXPERIMENTS

    roots = {type(registered).__module__ for registered in EXPERIMENTS.values()}
    roots |= {"repro.scenarios.registry", "repro.scenarios.study"}
    # Console scripts (``name = module:function``) and ``python -m`` targets.
    roots |= set(re.findall(r'"[\w-]+ = ([\w.]+):\w+"',
                            (repo / "setup.py").read_text(encoding="utf-8")))
    for module, path in graph.files.items():
        if path.name == "__main__.py" or any(
                isinstance(node, ast.If) and "__main__" in ast.dump(node.test)
                for node in graph.tree(module).body):
            roots.add(module)
    for path in _outside_roots(repo):
        roots.update(graph.imports(
            ast.parse(path.read_text(encoding="utf-8")), None))
    return roots


def _outside_roots(repo: Path) -> List[Path]:
    """The claim benchmarks and the examples."""
    return (sorted((repo / "benchmarks").glob("test_[ea]*.py"))
            + sorted((repo / "examples").glob("*.py")))


def unreached_modules(repo: Path) -> List[str]:
    graph = _Graph(repo / "src")
    reached = graph.reached_from(_roots(repo, graph))
    return sorted(set(graph.files) - reached)


#: One definition: (qualified name, the mentions that reference it,
#: defining module, first line, last line).
_Definition = Tuple[str, Set[str], str, int, int]


def _public_definitions(module: str, tree: ast.Module) -> Iterator[_Definition]:
    """Public module-level names of ``module`` and public members of its
    public classes.  A member is referenced only by an attribute access."""
    def names(node: ast.stmt) -> List[str]:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name]
        if isinstance(node, ast.Assign):
            return [target.id for target in node.targets
                    if isinstance(target, ast.Name)]
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            return [node.target.id]
        return []

    for node in tree.body:
        for name in names(node):
            if not name.startswith("_"):
                yield (f"{module}.{name}", {name, "." + name}, module,
                       node.lineno, node.end_lineno)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and not member.name.startswith("_"):
                    yield (f"{module}.{node.name}.{member.name}",
                           {"." + member.name}, module,
                           member.lineno, member.end_lineno)


def _mentions(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of every name a file mentions; an attribute access
    is spelled ``.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield "." + node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _name_roots(repo: Path) -> Set[str]:
    """Qualified names that are live without a mention: the registered
    experiment classes (and their methods), and the console-script
    ``main``s.  The ``on_<msg_type>`` handlers are roots by their name,
    see :func:`_is_root`."""
    from repro.scenarios.adapters import EXPERIMENTS

    roots = {f"{type(registered).__module__}.{type(registered).__qualname__}"
             for registered in EXPERIMENTS.values()}
    roots |= {f"{module}.{function}" for module, function in re.findall(
        r'"[\w-]+ = ([\w.]+):(\w+)"',
        (repo / "setup.py").read_text(encoding="utf-8"))}
    return roots


def _is_root(definition: "_Definition", roots: Set[str]) -> bool:
    qualified = definition[0]
    # ``Node.receive`` and ``CpuBoundNode.receive`` dispatch a message to
    # ``on_<msg_type>`` through ``getattr``: a handler has no mention.
    return (qualified in roots or qualified.rpartition(".")[0] in roots
            or qualified.rpartition(".")[2].startswith("on_"))


def unreferenced_names(repo: Path,
                       roots: Optional[Set[str]] = None) -> List[str]:
    """Public names of ``repo/src/repro`` nothing live mentions.

    ``roots`` are the qualified names live without a mention (default:
    :func:`_name_roots` of ``repo``).
    """
    graph = _Graph(repo / "src")
    if roots is None:
        roots = _name_roots(repo)
    definitions: List[_Definition] = []
    mentions: List[Tuple[str, str, int]] = []  # (name, file, line)
    for module in graph.files:
        if graph._is_package(module):
            continue  # a package's re-exports are not a licence
        mentions += [(name, module, line)
                     for name, line in _mentions(graph.tree(module))]
        definitions += [definition for definition in
                        _public_definitions(module, graph.tree(module))
                        if not _is_root(definition, roots)]
    outside = _outside_roots(repo) + sorted(
        (repo / "benchmarks" / "e2e").glob("*.py"))
    for path in outside:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mentions += [(name, str(path), line) for name, line in _mentions(tree)]

    def inside(mention: Tuple[str, str, int], definition: _Definition) -> bool:
        _, where, line = mention
        _, _, module, first, last = definition
        return where == module and first <= line <= last

    dead: List[_Definition] = []
    while True:
        alive = [mention for mention in mentions
                 if not any(inside(mention, definition) for definition in dead)]
        newly = []
        for definition in definitions:
            if definition in dead:
                continue
            if not any(mention[0] in definition[1]
                       and not inside(mention, definition)
                       for mention in alive):
                newly.append(definition)
        if not newly:
            return sorted(definition[0] for definition in dead)
        dead += newly


def test_every_module_is_reached_by_something_registered():
    unreached = set(unreached_modules(REPO))
    assert unreached - ALLOWED_UNREACHED == set(), (
        "modules nothing registered reaches (register an experiment, claim "
        "or entry point that uses them, or delete them)")
    assert ALLOWED_UNREACHED <= unreached, "stale allowlist entries"


def test_every_public_name_is_referenced():
    unreferenced = set(unreferenced_names(REPO))
    assert unreferenced - set(ALLOWED_UNREFERENCED_NAMES) == set(), (
        "public names that no registered experiment, handler, entry point, "
        "claim benchmark, example or benchmarks/e2e file mentions (use them, "
        "move a test fixture to tests/, or delete them)")
    assert set(ALLOWED_UNREFERENCED_NAMES) <= unreferenced, \
        "stale allowlist entries"
    assert len(ALLOWED_UNREFERENCED_NAMES) <= 5


def test_name_rule_roots_and_dead_definitions(tmp_path):
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (package.parent / "__init__.py").write_text("")
    (package / "__init__.py").write_text(
        "from repro.pkg.models import reexported\n")
    (package / "models.py").write_text(
        "class Node:\n"
        "    def on_ping(self, message):\n"
        "        return message\n"
        "\n"
        "class Registered:\n"
        "    def run(self):\n"
        "        return helper(), Node()\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
        "\n"
        "def dead():\n"
        "    return fed_by_dead()\n"
        "\n"
        "def fed_by_dead():\n"
        "    return 2\n"
        "\n"
        "def reexported():\n"
        "    return 3\n"
        "\n"
        "TABLE: dict = {'a': 1}\n")
    # The registered class and its method, and the handler nothing names,
    # are roots; a name mentioned only inside a dead definition is dead
    # too; the package re-export is not a reference; an annotated constant
    # counts like a plain one.
    assert unreferenced_names(tmp_path, roots={"repro.pkg.models.Registered"}) == [
        "repro.pkg.models.TABLE",
        "repro.pkg.models.dead",
        "repro.pkg.models.fed_by_dead",
        "repro.pkg.models.reexported",
    ]


def test_relative_and_reexported_imports_resolve():
    graph = _Graph(REPO / "src")
    # A package re-export is followed to the defining module only.
    assert list(graph.resolve("repro.scenarios", "run_scenario")) == [
        "repro.scenarios.runner"]
    assert list(graph.resolve("repro", "scenarios")) == ["repro.scenarios"]
    assert "repro.scenarios.adapters" in set(graph.imports(
        ast.parse("from .adapters import adapter_for"),
        "repro.scenarios.execution"))


def test_import_repro_imports_only_repro():
    # Every CLI, broker and worker start pays for what the package root
    # imports, so it imports nothing: a fresh interpreter after
    # ``import repro`` holds exactly one ``repro*`` module.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import repro, sys; "
         "print(*sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'repro'))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert loaded.stdout.split() == ["repro"]
