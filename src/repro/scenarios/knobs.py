"""How an experiment reads a spec: its knob table, and one route to its model.

Each registered experiment (:mod:`repro.scenarios.adapters`) declares a
:class:`Knobs` table naming every spec key it reads and the model parameter
each one sets.  ``setup`` reads the spec only through that table, and a
value reaches its model by one route: :func:`_config` (a config dataclass)
or :func:`_arguments` (a model function, method or class) coerces it to the
type the model declares, and :func:`_resolve` turns a preset name or field
dict into a config.  :meth:`Knobs.check` holds every compiled point to its
table before anything runs, and ``make experiments`` renders the tables
into ``EXPERIMENTS.md``.  :func:`mode_of` reads the one thing no table can:
which experiment a spec selects.
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple)

from repro.scenarios.spec import ScenarioSpec

#: What a spec sets for a model: ``{field or parameter: (spec key, value)}``.
Picked = Dict[str, Tuple[str, object]]


class SpecError(ValueError):
    """A spec value the scenario's experiment cannot be built from.

    A usage error (``repro-run`` exits 2 with one line), not a bug in the
    model.  Only the steps that turn spec values into model inputs raise
    it, and the caller adds the scenario's name.  A ``ValueError`` from
    building or running the model itself stays a plain ``ValueError``
    with its traceback.
    """


@contextmanager
def _spec_values() -> Iterator[None]:
    """Re-raise an error from turning spec values into model inputs
    (coercion, a config's own validation) as :class:`SpecError`."""
    try:
        yield
    except (TypeError, ValueError) as error:
        raise SpecError(str(error)) from error


def _every(data: object, where: str) -> Picked:
    """Every key of the spec dict at ``where`` as a pick: each must be a
    field of the model it builds, so a key that is not one is an error
    rather than ignored."""
    if not isinstance(data, dict):
        raise SpecError(f"{where} expects a dict of fields, got {data!r}")
    return {name: (f"{where}.{name}", value) for name, value in data.items()}


_EXPECTS = {bool: "true or false", int: "an integer", float: "a number",
            str: "a string"}
_SCALARS = {kind.__name__: kind for kind in _EXPECTS}


@lru_cache(maxsize=None)
def _declared(target: Callable) -> Dict[str, Tuple[object, Optional[type]]]:
    """``{parameter: (default, type)}`` of a dataclass, class, function
    or method (``self`` aside), looked up once per target: a sweep builds
    the same configs thousands of times.  The type is a scalar default's,
    else a scalar annotation's (``Optional[int]``), else ``None``."""
    declared: Dict[str, Tuple[object, Optional[type]]] = {}
    for name, parameter in inspect.signature(target).parameters.items():
        if name == "self":
            continue
        default, annotation = parameter.default, parameter.annotation
        text = str(getattr(annotation, "__name__", annotation))
        declared[name] = (default, type(default) if isinstance(default, tuple(_EXPECTS))
                          else _SCALARS.get(text.replace("Optional[", "").rstrip("]")))
    return declared


def _coerce(declared: Tuple[object, Optional[type]], key: str,
            value: object) -> object:
    """``value`` as the declared type (a JSON ``3`` for a float field
    arrives as ``3.0``).  A value the conversion would change or cannot
    convert — ``2.7`` for an int, a bool for a number or the reverse,
    ``"abc"`` for a number — is a ``ValueError`` naming the spec ``key``.
    """
    default, kind = declared
    if kind is None or (value is None and default is None):
        return value
    lossy = kind is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) == (kind is bool) and not lossy:
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{key} expects {_EXPECTS[kind]}, got {value!r}")


def _coerced(target: Callable, picked: Iterable[Picked]) -> Dict[str, object]:
    """The ``picked`` values (later picks win), coerced to what ``target``
    declares; a name it does not declare is an error naming the key."""
    declared = _declared(target)
    values: Dict[str, object] = {}
    for pick in picked:
        for name, (key, value) in pick.items():
            if name not in declared:
                raise ValueError(
                    f"unknown key {key}: {target.__name__} takes no {name!r}")
            values[name] = _coerce(declared[name], key, value)
    return values


def _config(cls, *picked: Picked, **fixed):
    """A model's config dataclass from the coerced ``picked`` values
    (fields nothing picks keep their default) and ``fixed``, the fields
    the experiment owns (replicate seed, nested configs), which win.  Its
    own validation runs here, so its ``ValueError`` is a SpecError."""
    with _spec_values():
        values = _coerced(cls, picked)
        values.update(fixed)
        return cls(**values)


def _arguments(target: Callable, *picked: Picked, **fixed) -> Dict[str, object]:
    """The keyword arguments to call a model's ``target`` with: its
    defaults, then the coerced ``picked`` values, then ``fixed``.  The
    call is the caller's, so the model's ``ValueError`` keeps its
    traceback."""
    with _spec_values():
        values = {name: default for name, (default, _) in _declared(target).items()
                  if default is not inspect.Parameter.empty}
        values.update(_coerced(target, picked))
    values.update(fixed)
    return values


def _resolve(value: object, key: str, cls, presets: Mapping[str, object]):
    """The config one spec value names (``None`` names none): a preset
    (any case, ``_`` for ``-``; a factory or a shared instance) or a dict
    of ``cls`` fields."""
    if value is None:
        return None
    if isinstance(value, dict):
        return _config(cls, _every(value, key))
    name = str(value).replace("_", "-").lower()
    if not isinstance(value, str) or name not in presets:
        raise SpecError(f"{key} expects a preset name ({', '.join(sorted(presets))}) "
                        f"or a dict of {cls.__name__} fields, got {value!r}")
    found = presets[name]
    return found() if callable(found) else found


@lru_cache(maxsize=None)
def _model(path: str):
    """The model object ``"package.module:Name.attribute"`` names,
    imported on first use: experiments load their models lazily."""
    module, _, name = path.partition(":")
    found = importlib.import_module(module)
    for part in name.split("."):
        found = getattr(found, part)
    return found


#: The top-level spec fields an experiment may read, at their unset value.
_TOP_LEVEL = {"duration": 0.0, "churn": None}


def _lookup(spec: ScenarioSpec, head: str, keys: Iterable[str]) -> Tuple[bool, object]:
    """Whether the spec sets field ``head``'s entry at ``keys``, and its value."""
    value = getattr(spec, head)
    found = value != _TOP_LEVEL[head] if head in _TOP_LEVEL else True
    for key in keys:
        found = found and isinstance(value, dict) and key in value
        value = value[key] if found else None
    return found, value


#: Per family: the ``architecture`` keys that name the experiment, in
#: precedence order (an attack harness replaces the plain substrate), and
#: the mode a spec naming none of them runs.
MODE_KEYS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "permissionless": (("attack", "consensus"), "pow"),
    "consensus": ((), "cluster"),
    "permissioned": ((), "fabric"),
    "overlay": (("attack", "overlay"), "kad"),
    "edge": (("mode",), "placement"),
}


def mode_of(spec: ScenarioSpec) -> object:
    """The ``architecture`` value naming the experiment a spec asks for."""
    keys, default = MODE_KEYS[spec.family]
    for key in keys:
        if key in spec.architecture:
            named = spec.architecture[key]
            # A dict-valued overlay is a KademliaConfig field dict: the
            # client of the default experiment, not the name of another.
            return default if key == "overlay" and isinstance(named, dict) else named
    return default


class Knobs:
    """An experiment's interface: every spec value it reads, and where.

    ``roles`` maps a role to ``(target, *keys)``: the model config, class,
    function or method the keys set (``"module:name"``; ``""`` for values
    the experiment reads itself), and dotted spec paths (``duration`` and
    ``churn`` count as set when not at their spec default), written
    ``"path=parameter"`` when the names differ.  A path ending in ``.*``
    reads a section, dict or list of dicts whole: each key no other path
    names sets the target's parameter of that name, bar those the role's
    other keys set and those ``"=parameter"`` keeps from the spec.
    ``kinds`` are the workload kinds accepted, the first the default, and
    ``only_for`` maps a role to the one kind it is read for.  ``presets``
    maps a path to a function returning the ``(presets, config class)``
    whose entry its value names or whose fields its dict sets (``None``
    leaves the model's default), ``choices`` to the table whose entry it
    must name.
    """

    def __init__(self, kinds: Tuple[str, ...] = (),
                 presets: Optional[Mapping[str, Callable[[], tuple]]] = None,
                 choices: Optional[Mapping[str, str]] = None,
                 only_for: Optional[Mapping[str, str]] = None,
                 **roles: Tuple[str, ...]) -> None:
        self.kinds, self.presets, self.choices = kinds, presets or {}, choices or {}
        self.only_for = only_for or {}
        self.roles: Dict[str, Tuple[str, List[Tuple[str, str]], set]] = {}
        for role, (target, *keys) in roles.items():
            entries = [(path, parameter or path.rsplit(".", 1)[-1]) for path, _, parameter
                       in (key.partition("=") for key in keys)]
            self.roles[role] = (target, [entry for entry in entries if entry[0]],
                                {parameter for path, parameter in entries
                                 if not path.endswith(".*")})
        self.paths = {path for _, entries, _ in self.roles.values() for path, _ in entries}
        # ``(path, parameter, whole-read prefix or "", spec field, keys)``:
        # each path split once, here, as ``picks`` runs once per unit job and
        # splitting on every call cost ``sweep-cold`` ~15 % of its wall time.
        self._reads: Dict[str, List[tuple]] = {role: [] for role in self.roles}
        for role, (_, entries, _) in self.roles.items():
            for path, parameter in entries:
                whole = path[:-2] if path.endswith(".*") else ""
                head, *keys = (whole or path).split(".")
                self._reads[role].append((path, parameter, whole, head, keys))

    def keys(self) -> Iterator[Tuple[str, str, str]]:
        """``(key, role, parameter)`` per knob, each whole read expanded."""
        for role, (_, entries, _) in self.roles.items():
            for path, parameter in entries:
                if path.endswith(".*"):
                    yield from ((path[:-1] + name, role, name) for name in self._fields(role))
                else:
                    yield path, role, parameter

    # -- what ``setup`` reads the spec with ---------------------------------
    def kind(self, spec: ScenarioSpec) -> str:
        """``workload["kind"]`` (the first accepted one when unset)."""
        kind = spec.workload.get("kind")
        kind = self.kinds[0] if kind is None else str(kind)
        if kind not in self.kinds:
            raise SpecError(f"a {spec.family} scenario cannot run a {kind!r} "
                            f"workload; supported kinds: {sorted(self.kinds)}")
        return kind

    def value(self, spec: ScenarioSpec, path: str) -> object:
        """The value at ``path`` (a preset resolved), or ``None`` if unset."""
        found, value = self._at(spec, path)
        return self._resolved(path, value) if found else None

    def picks(self, spec: ScenarioSpec, role: str) -> Picked:
        """What the spec sets for ``role``'s target, later keys winning."""
        picked: Picked = {}
        for path, parameter, whole, head, keys in self._reads[role]:
            found, value = _lookup(spec, head, keys)
            if found and whole:
                named, _, passive = self._layout(spec, whole)
                picked.update((name, (key, self._resolved(key, item))) for name, (key, item)
                              in _every(value, whole).items()
                              if name not in named and name not in passive)
            elif found and not (value is None and path in self.presets):
                picked[parameter] = (path, self._resolved(path, value))
        return picked

    def each(self, spec: ScenarioSpec, role: str) -> List[Picked]:
        """What each dict of the list ``role`` reads whole sets for its
        target, a ``"path.key=parameter"`` key renamed."""
        entries = self.roles[role][1]
        whole = next(path[:-2] for path, _ in entries if path.endswith(".*"))
        renamed = {path[len(whole) + 1:]: parameter for path, parameter in entries}
        return [{renamed.get(name, name): pick
                 for name, pick in _every(item, f"{whole}[{index}]").items()}
                for index, item in enumerate(self.value(spec, whole) or [])]

    def config(self, spec: ScenarioSpec, role: str, **fixed):
        """``role``'s config dataclass (see :func:`_config`)."""
        return _config(_model(self.roles[role][0]), self.picks(spec, role), **fixed)

    def arguments(self, spec: ScenarioSpec, role: str, **fixed) -> Dict[str, object]:
        """The keyword arguments of ``role``'s target (see :func:`_arguments`)."""
        return _arguments(_model(self.roles[role][0]), self.picks(spec, role), **fixed)

    def update(self, spec: ScenarioSpec, role: str, instance):
        """``instance`` with the fields the spec sets for ``role`` replaced."""
        with _spec_values():
            return replace(instance, **_coerced(_model(self.roles[role][0]),
                                                [self.picks(spec, role)]))

    @staticmethod
    def _at(spec: ScenarioSpec, path: str) -> Tuple[bool, object]:
        """Whether the spec sets ``path``, and the value it sets."""
        head, *keys = path.split(".")
        return _lookup(spec, head, keys)

    def _resolved(self, path: str, value: object) -> object:
        """``value`` held to its declared table, a preset resolved."""
        if path in self.presets:
            presets, cls = self.presets[path]()
            return _resolve(value, path, cls, presets)
        if path in self.choices:
            table = _model(self.choices[path])
            if not isinstance(value, str) or value not in table:
                raise SpecError(f"{path} expects one of {', '.join(table)}, got {value!r}")
        return value

    # -- what compiling holds a spec to --------------------------------------
    def _fields(self, role: str) -> List[str]:
        """The parameters ``role``'s whole read may set."""
        target, _, owned = self.roles[role]
        return [name for name in _declared(_model(target)) if name not in owned]

    def _layout(self, spec: ScenarioSpec, prefix: str) -> Tuple[set, set, tuple]:
        """What the dict at ``prefix`` may hold: names paths go on below,
        parameters its whole reads set, and names that pick the experiment
        (``architecture``'s mode keys, ``workload.kind``)."""
        kind = self.kind(spec) if self.kinds else None
        named = {path[len(prefix) + 1:].split(".")[0] for path in self.paths
                 if path.startswith(prefix + ".")} - {"*"}
        fields = {name for role, (_, entries, _) in self.roles.items()
                  if (prefix + ".*", "*") in entries
                  and self.only_for.get(role, kind) == kind
                  for name in self._fields(role)}
        passive = {"architecture": MODE_KEYS[spec.family][0],
                   "workload": ("kind",) if self.kinds else ()}.get(prefix, ())
        return named, fields, passive

    def check(self, spec: ScenarioSpec) -> None:
        """Raise :class:`SpecError` for a key the table does not read (with
        a near-miss hint), a top-level ``duration`` or ``churn`` the
        experiment ignores, or a value outside its declared table."""
        if self.kinds:
            self.kind(spec)
        for name, unset in _TOP_LEVEL.items():
            value = getattr(spec, name)
            if value != unset and name not in self.paths:
                raise SpecError(f"{name}={value!r} is ignored by this "
                                f"experiment; leave {name} unset")
            elif value != unset:
                self._resolved(name, value)
        for section in ("architecture", "topology", "workload"):
            if getattr(spec, section):
                self._check(spec, section, section, getattr(spec, section))

    def _check(self, spec: ScenarioSpec, prefix: str, shown: str,
               data: Mapping[str, object]) -> None:
        named, fields, passive = self._layout(spec, prefix)
        for name, value in data.items():
            path = f"{prefix}.{name}"
            if path in self.paths or name in fields:
                self._resolved(path, value)
            elif name in named:
                listed = isinstance(value, list)
                for index, item in enumerate(value if listed else [value]):
                    where = f"{shown}.{name}" + (f"[{index}]" if listed else "")
                    if not isinstance(item, dict):
                        raise SpecError(f"{where} expects a dict of fields, got {item!r}")
                    self._check(spec, path, where, item)
            elif name not in passive:
                import difflib

                known = sorted({*named, *fields, *passive})
                hint = difflib.get_close_matches(name, known, n=1)
                raise SpecError(f"unknown key {shown}.{name}; " + (
                    f"did you mean {shown}.{hint[0]}?" if hint
                    else f"{shown} takes {', '.join(known) or 'no keys'}"))
