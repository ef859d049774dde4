"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes one experiment — which architecture family
runs it, how the topology is built, how membership churns, what workload is
offered, for how long and under which seeds — as plain JSON-serialisable
data.  The :mod:`repro.scenarios.adapters` turn a spec into an actual
simulation run; nothing in a spec ever holds a live object, so specs can be
registered, copied, overridden from the command line and swept.

Two expansion mechanisms produce families of runs from one spec:

* ``sweeps`` maps a dotted override path to a list of values and expands as
  a cartesian product (``{"architecture.replicas": [4, 7, 13]}``);
* ``variants`` maps a variant label to a dict of several simultaneous
  overrides, for rungs that differ in more than one coordinate (a "stable
  membership" rung needs both ``churn: none`` and a fresh routing table).

``variants`` expand in declaration order as the outer loop, ``sweeps`` as
the inner cartesian product.
"""

from __future__ import annotations

import copy as _copy
import hashlib
import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.jsonfmt import compact

#: The five architecture families the paper compares.
FAMILIES = ("permissionless", "consensus", "permissioned", "overlay", "edge")


@dataclass
class ScenarioSpec:
    """One declarative experiment description.

    Attributes
    ----------
    name:
        Registry name (``pow-baseline``, ``kad-lookup``, ...).
    family:
        One of :data:`FAMILIES`; selects the architecture adapter.
    architecture:
        Family-specific architecture knobs (protocol preset, replica count,
        organizations, overlay client, placement mode, ...).
    topology:
        How the network/topology is built (overlay size, edge regions, ...).
    churn:
        Membership dynamics: ``None``/``"none"``, a
        :data:`repro.sim.churn.CHURN_PRESETS` name, or a dict of
        :class:`~repro.sim.churn.ChurnModel` fields.
    workload:
        Offered load, understood by the family adapter; ``kind`` selects a
        :mod:`repro.workloads` generator where per-request objects are
        simulated (``rate_tps``, ``lookups``, ``requests``, ...).
    duration:
        Virtual-time length of the measured run in seconds, where the
        family measures in time (PoW networks measure in
        ``architecture["duration_blocks"]`` instead).
    seed:
        Base seed; replicate ``i`` runs at ``seed + i``.
    replicates:
        Number of per-seed replicates aggregated into one result.
    metrics:
        Sample collection mode: ``"exact"`` (default, list-backed) or
        ``"streaming"`` (O(1)-memory Welford + percentile-sketch
        accumulators, see :class:`repro.sim.metrics.StreamingSample`).
        Large-N / long-horizon scenarios opt into streaming so metric
        memory stays flat; sketch percentiles agree with exact within
        the declared relative error (``repro-run diff --profile
        sketch`` carries matching tolerances).
    sweeps / variants:
        Expansion axes, see the module docstring.
    claim:
        Claim id (``E1``-``E16``) from :mod:`repro.core.claims` this
        scenario regenerates, if any.
    """

    name: str
    family: str
    description: str = ""
    claim: str = ""
    architecture: Dict[str, object] = field(default_factory=dict)
    topology: Dict[str, object] = field(default_factory=dict)
    churn: object = None
    workload: Dict[str, object] = field(default_factory=dict)
    duration: float = 0.0
    seed: int = 0
    replicates: int = 1
    metrics: str = "exact"
    sweeps: Dict[str, List[object]] = field(default_factory=dict)
    variants: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; pick one of {FAMILIES}"
            )
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        from repro.sim.metrics import SAMPLE_MODES

        if self.metrics not in SAMPLE_MODES:
            raise ValueError(
                f"unknown metrics mode {self.metrics!r}; "
                f"pick one of {SAMPLE_MODES}"
            )

    # ------------------------------------------------------------------
    # Copies and overrides
    # ------------------------------------------------------------------
    def copy(self) -> "ScenarioSpec":
        """An independent deep copy."""
        return _copy.deepcopy(self)

    def with_overrides(self, overrides: Mapping[str, object]) -> "ScenarioSpec":
        """A copy with dotted-path overrides applied, validated like a
        constructed spec.

        The first path segment names a spec field (``architecture.replicas``,
        ``workload.rate_tps``, ``seed``); deeper segments index into nested
        dicts, created on demand.  Only the sections an override touches are
        deep-copied; the rest are shared with ``self``, so neither spec may
        be written into afterwards (specs are data: nothing that runs one
        writes into it).
        """
        field_names = {f.name for f in fields(self)}
        changes: Dict[str, Any] = {}
        for path, value in overrides.items():
            head, _, rest = path.partition(".")
            if head not in field_names:
                raise KeyError(f"unknown spec field {head!r} in override {path!r}")
            if not rest:
                changes[head] = _copy.deepcopy(value)
                continue
            if head not in changes:
                changes[head] = _copy.deepcopy(getattr(self, head))
            container = changes[head]
            if not isinstance(container, dict):
                raise KeyError(
                    f"cannot apply nested override {path!r}: field {head!r} "
                    f"is {type(container).__name__}, not a dict"
                )
            keys = rest.split(".")
            for key in keys[:-1]:
                container = container.setdefault(key, {})
                if not isinstance(container, dict):
                    raise KeyError(f"override path {path!r} crosses a non-dict value")
            container[keys[-1]] = _copy.deepcopy(value)
        return replace(self, **changes)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A shallow copy at another seed, sharing every section with
        ``self``.

        Skips :meth:`__post_init__`: ``self`` passed it and no seed is
        invalid.  The execution layer builds one per unit job.
        """
        clone = object.__new__(type(self))
        # Every field, in the order ``__init__`` assigns them: the clone then
        # keeps CPython's compact attribute layout, on which ``spec_hash``
        # (it reads every field) is faster than on a copied ``__dict__``.
        clone.name = self.name
        clone.family = self.family
        clone.description = self.description
        clone.claim = self.claim
        clone.architecture = self.architecture
        clone.topology = self.topology
        clone.churn = self.churn
        clone.workload = self.workload
        clone.duration = self.duration
        clone.seed = seed
        clone.replicates = self.replicates
        clone.metrics = self.metrics
        clone.sweeps = self.sweeps
        clone.variants = self.variants
        return clone

    # ------------------------------------------------------------------
    # Sweep expansion
    # ------------------------------------------------------------------
    @property
    def is_swept(self) -> bool:
        """Whether the spec describes a family of runs rather than one."""
        return bool(self.sweeps) or bool(self.variants)

    def expand(self) -> List[Tuple[str, "ScenarioSpec"]]:
        """All (label, concrete spec) pairs this spec describes.

        Expanded specs have ``sweeps``/``variants`` cleared; a spec with
        neither expands to itself with an empty label.
        """
        variant_items: List[Tuple[str, Dict[str, object]]] = (
            list(self.variants.items()) if self.variants else [("", {})]
        )
        sweep_axes = list(self.sweeps.items())
        # The axes are dropped once, here; points share every section that
        # their overrides do not touch with ``base`` (and ``self``).
        base = replace(self, sweeps={}, variants={})
        expanded: List[Tuple[str, ScenarioSpec]] = []
        for variant_label, variant_overrides in variant_items:
            value_lists = [values for _, values in sweep_axes]
            for combo in itertools.product(*value_lists) if sweep_axes else [()]:
                overrides = dict(variant_overrides)
                parts = [variant_label] if variant_label else []
                for (axis, _), value in zip(sweep_axes, combo):
                    overrides[axis] = value
                    parts.append(f"{axis.rsplit('.', 1)[-1]}={value}")
                spec = base.with_overrides(overrides)
                spec.sweeps = {}
                spec.variants = {}
                expanded.append((", ".join(parts), spec))
        return expanded

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self, _value: Callable[[Any], Any] = _copy.deepcopy,
                ) -> Dict[str, object]:
        """Plain JSON-serialisable representation.

        ``metrics`` is emitted only when it differs from the default, so
        every pre-existing spec keeps its exact serialized form — and
        therefore its :meth:`spec_hash`, the key under which goldens,
        unit-job caches and RunStore entries were recorded.  (Same
        convention as the ResultSet ``failures`` manifest: absent means
        default.)  ``_value`` is private to this class: the hashing path
        passes the identity to read the live fields without copying them.
        """
        data = {
            "name": self.name,
            "family": self.family,
            "description": self.description,
            "claim": self.claim,
            "architecture": _value(self.architecture),
            "topology": _value(self.topology),
            "churn": _value(self.churn),
            "workload": _value(self.workload),
            "duration": self.duration,
            "seed": self.seed,
            "replicates": self.replicates,
            "sweeps": _value(self.sweeps),
            "variants": _value(self.variants),
        }
        if self.metrics != "exact":
            data["metrics"] = self.metrics
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        payload: Dict[str, Any] = _copy.deepcopy(dict(data))
        return cls(**payload)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def canonical_json(self) -> str:
        """The minimal, key-sorted JSON form used for hashing and caching."""
        return compact(self.to_dict(_value=_live))

    def canonical_around_seed(self) -> Tuple[str, str]:
        """``(head, tail)`` with ``canonical_json() == head + str(seed) +
        tail``: everything about the spec but its seed.

        Replicates of one point differ in nothing else, so the execution
        layer hashes ``head`` once per point.  Key-sorted JSON is the
        concatenation of its sorted items, so the split is taken where the
        keys sort around ``"seed"`` — the text is never searched.
        """
        live = self.to_dict(_value=_live)
        head = compact({key: value for key, value in live.items()
                         if key < "seed"})
        tail = compact({key: value for key, value in live.items()
                         if key > "seed"})
        # ``name`` and ``workload`` are baseline fields: neither is empty.
        return head[:-1] + ',"seed":', "," + tail[1:]

    def spec_hash(self) -> str:
        """A stable content hash of the spec (16 hex chars of sha256).

        Two specs hash equal iff :meth:`to_dict` is equal, independent of
        how they were built (registry lookup, overrides, ``from_dict``);
        the :mod:`repro.scenarios.execution` layer keys unit-job caching
        and :class:`~repro.analysis.runstore.RunStore` resume on it.
        """
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:16]


def _live(value: Any) -> Any:
    return value
