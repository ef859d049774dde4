"""Registered experiments: one declarative spec, five simulation substrates.

Every runnable experiment is an :class:`Experiment` registered under a
``(family, mode)`` key in :data:`EXPERIMENTS`.  It owns its life cycle —
``setup`` (build the simulated system from a :class:`ScenarioSpec` and a
seed), ``run`` (drive the configured workload) and ``collect`` (reduce the
outcome to a flat ``Dict[str, float]`` of metrics) — and its docstring
documents the spec keys it reads.  :func:`experiment_for` is the single
place a spec is resolved to its experiment, so adding one is one decorated
class.  :class:`ArchitectureAdapter` is the per-family handle the
execution layer holds (:func:`repro.scenarios.execution.execute_plan`
calls ``run_replicate`` once per unit job); it looks up and delegates.

A spec value reaches its model by one route: :func:`_pick` or
:func:`_every` names it and :func:`_config` (a config dataclass) or
:func:`_arguments` (a model function, method or class) coerces it to the
type the model declares; :func:`_resolve` turns a preset name or field
dict into a config.  The model is the one home of its defaults, so a
scenario parametrized like a pre-framework benchmark reproduces its
numbers bit-for-bit.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple, Type)

from repro.scenarios.spec import FAMILIES, ScenarioSpec


#: Energy per transaction for a consortium of a few commodity servers per
#: organization (kWh) — shared by the consensus, permissioned and
#: edge-federation experiments so the cross-family comparison stays consistent.
CONSORTIUM_ENERGY_PER_TX_KWH = 2e-6

#: What a spec sets for a model: ``{field or parameter: (spec key, value)}``.
Picked = Dict[str, Tuple[str, object]]


class SpecError(ValueError):
    """A spec value the scenario's experiment cannot be built from.

    A usage error (``repro-run`` exits 2 with one line), not a bug in the
    model.  Only the steps that turn spec values into model inputs raise
    it; :meth:`ArchitectureAdapter.setup` adds the scenario's name.  A
    ``ValueError`` from building or running the model itself stays a
    plain ``ValueError`` with its traceback.
    """


@contextmanager
def _spec_values() -> Iterator[None]:
    """Re-raise an error from turning spec values into model inputs
    (coercion, a config's own validation) as :class:`SpecError`."""
    try:
        yield
    except (TypeError, ValueError) as error:
        raise SpecError(str(error)) from error


def _float_metrics(raw: Dict[str, object], prefix: str = "") -> Dict[str, float]:
    """Keep the numeric entries of a summary dict, as floats."""
    return {
        prefix + key: float(value)
        for key, value in raw.items()
        if isinstance(value, (int, float))
    }


def _expect_workload_kind(spec: ScenarioSpec, *allowed: str) -> str:
    """``workload["kind"]`` (the first ``allowed`` one when unset),
    validated so a nonsensical override fails loudly."""
    kind = spec.workload.get("kind")
    kind = allowed[0] if kind is None else str(kind)
    if kind not in allowed:
        raise SpecError(
            f"a {spec.family} scenario cannot run a {kind!r} workload; "
            f"supported kinds: {sorted(allowed)}"
        )
    return kind


def _pick(spec: ScenarioSpec, section: str, *names: str,
          **renamed: str) -> Picked:
    """The model inputs one spec ``section`` sets: ``names`` are spelled
    like their spec key, ``renamed`` maps ``field=spec_key``.  A key the
    spec leaves out is left out, so the model's own default applies."""
    source = getattr(spec, section)
    picked = {name: (f"{section}.{name}", source[name])
              for name in names if name in source}
    for name, key in renamed.items():
        if key in source:
            picked[name] = (f"{section}.{key}", source[key])
    return picked


def _every(data: object, where: str, skip: Tuple[str, ...] = ()) -> Picked:
    """Every key of the spec dict at ``where`` (bar the experiment's own
    ``skip`` keys) as a pick: each must be a field of the model it builds,
    so a key that is not one is an error rather than ignored."""
    if not isinstance(data, dict):
        raise SpecError(f"{where} expects a dict of fields, got {data!r}")
    return {name: (f"{where}.{name}", value)
            for name, value in data.items() if name not in skip}


def _duration(spec: ScenarioSpec) -> Picked:
    """``spec.duration`` as a pick of the model's ``duration`` (0, the
    spec's unset value, keeps the model's default)."""
    return {"duration": ("duration", spec.duration)} if spec.duration else {}


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


def _default_of(cls, name: str) -> object:
    """A fresh copy of the default a config dataclass declares for ``name``."""
    field = cls.__dataclass_fields__[name]
    return field.default_factory() if callable(field.default_factory) else field.default


def _client(spec: ScenarioSpec, key: str, target):
    """The Kademlia client ``architecture[key]`` names, or ``target``'s."""
    from repro.p2p.kademlia import KADEMLIA_PRESETS, KademliaConfig

    return _resolve(spec.architecture.get(key), f"architecture.{key}",
                    KademliaConfig, KADEMLIA_PRESETS) or _default_of(target, "kademlia")


def _lookup_environment(spec: ScenarioSpec, seed: int, client: str,
                        target) -> Dict[str, object]:
    """The config fields both Kademlia substrates fill alike: the client
    with ``architecture.client_overrides`` on top, churn, network, seed
    and metrics mode."""
    from repro.p2p.kademlia import KademliaConfig

    kademlia = _client(spec, client, target)
    overrides = spec.architecture.get("client_overrides")
    if overrides:
        picked = _every(overrides, "architecture.client_overrides")
        with _spec_values():
            kademlia = replace(kademlia, **_coerced(KademliaConfig, [picked]))
    return {
        "kademlia": kademlia,
        "churn": _churn(spec),
        "network_params": _network(spec),
        "seed": seed,
        "metrics": spec.metrics,
    }


def _churn(spec: ScenarioSpec):
    """The spec's churn model (``None``, "none" or "off": stable)."""
    from repro.sim.churn import CHURN_PRESETS, ChurnModel

    return _resolve(spec.churn, "churn", ChurnModel,
                    {**CHURN_PRESETS, "none": None, "off": None})


def _network(spec: ScenarioSpec):
    """The spec's ``topology.network`` as ``NetworkParams`` (or ``None``)."""
    from repro.sim.network import NETWORK_PRESETS, NetworkParams

    return _resolve(spec.topology.get("network"), "topology.network",
                    NetworkParams, NETWORK_PRESETS)


def _workload(spec: ScenarioSpec, seed: int):
    """The generator ``spec.workload`` describes: ``kind`` names its class
    (:data:`~repro.workloads.WORKLOAD_KINDS`), every other key is one of
    its parameters, and the replicate seed owns ``seed``."""
    from repro.workloads import WORKLOAD_KINDS

    generator = WORKLOAD_KINDS[_expect_workload_kind(spec, *WORKLOAD_KINDS)]
    return generator(**_arguments(
        generator, _every(spec.workload, "workload", skip=("kind",)), seed=seed))


def _latency_metrics(latencies: List[float]) -> Dict[str, float]:
    """The latency columns every overlay experiment reports alike, so
    cross-substrate studies can pivot on them directly."""
    from repro.analysis.stats import mean, percentile

    return {
        "median_latency_s": percentile(latencies, 50),
        "p90_latency_s": percentile(latencies, 90),
        "mean_latency_s": mean(latencies),
    }


def _equal_weight_trust(entities: Iterable[object]) -> float:
    """Nakamoto coefficient of a consortium whose members weigh the same."""
    from repro.economics.concentration import nakamoto_coefficient

    return float(nakamoto_coefficient({str(entity): 1.0 for entity in entities}))


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class Experiment:
    """One registered experiment: what a ``(family, mode)`` pair runs.

    Subclasses implement :meth:`setup` (spec + seed → a dict context
    holding the live system), :meth:`collect` (outcome → flat float
    metrics) and, unless the context names what drives the workload,
    :meth:`run` (drive it, return the outcome).  All state of a run
    travels in its context, so one instance serves them all.
    """

    def setup(self, spec: ScenarioSpec, seed: int) -> Dict[str, object]:
        raise NotImplementedError

    def run(self, context):
        """``context["run"](**context["arguments"])``, or else the
        ``context["model"]``'s own ``run()``."""
        if "run" in context:
            return context["run"](**context["arguments"])
        return context["model"].run()

    def collect(self, context, outcome) -> Dict[str, float]:
        raise NotImplementedError


#: Every runnable experiment, by ``(family, mode)``.
EXPERIMENTS: Dict[Tuple[str, str], Experiment] = {}

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


def experiment(family: str, *modes: str) -> Callable[[Type[Experiment]], Type[Experiment]]:
    """Class decorator: register one instance under each ``(family, mode)``."""
    def register(cls: Type[Experiment]) -> Type[Experiment]:
        instance = cls()
        for mode in modes:
            if (family, mode) in EXPERIMENTS:
                raise ValueError(f"experiment {(family, mode)} already registered")
            EXPERIMENTS[(family, mode)] = instance
        return cls
    return register


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


def experiment_for(spec: ScenarioSpec) -> Experiment:
    """The registered experiment a spec selects.

    A mode nothing registered raises ``ValueError`` naming the registered
    ones — a typo must never fall through to some default substrate and
    report its numbers.
    """
    mode = mode_of(spec)
    found = EXPERIMENTS.get((spec.family, mode)) if isinstance(mode, str) else None
    if found is None:
        registered = sorted(m for family, m in EXPERIMENTS if family == spec.family)
        raise SpecError(
            f"unknown {spec.family} experiment {mode!r}; "
            f"registered: {registered}"
        )
    return found


class ArchitectureAdapter:
    """The handle for running one architecture family: ``setup`` resolves
    the spec's experiment and records it in the context it returns, ``run``
    and ``collect`` delegate to it."""

    def __init__(self, family: str) -> None:
        self.family = family

    def setup(self, spec: ScenarioSpec, seed: int) -> Dict[str, object]:
        """Build the spec's experiment; a :class:`SpecError` (a bad spec
        value) is re-raised naming the scenario.  Any other exception is a
        bug in the model and passes through with its traceback."""
        try:
            found = experiment_for(spec)
            context = found.setup(spec, seed)
        except SpecError as error:
            raise SpecError(f"scenario {spec.name!r}: {error}") from error
        context["experiment"] = found
        return context

    def run(self, context):
        return context["experiment"].run(context)

    def collect(self, context, outcome) -> Dict[str, float]:
        return context["experiment"].collect(context, outcome)

    def run_replicate(self, spec: ScenarioSpec, seed: int) -> Dict[str, float]:
        """One seeded run: setup → run → collect."""
        context = self.setup(spec, seed)
        outcome = self.run(context)
        return self.collect(context, outcome)


# ----------------------------------------------------------------------
# Permissionless blockchains (proof-of-work networks, proof-of-stake model)
# and the open-ecosystem economics and attacks measured on them.  The two
# economics experiments model the *decentralization* axis of the same
# open/permissionless ecosystems the PoW/PoS ones measure, which is why
# they live in this family.
# ----------------------------------------------------------------------
@experiment("permissionless", "pow")
class ProofOfWorkNetwork(Experiment):
    """A live PoW network (``consensus: "pow"``, the family default).

    ``architecture`` keys: ``protocol`` (preset name or dict) and every
    other key a :class:`~repro.blockchain.network.PoWNetworkConfig` field
    (``miner_count``, ``duration_blocks``, ...; ``seed`` is the replicate
    seed's).  ``workload["rate_tps"]`` is the offered load unless
    ``tx_arrival_rate`` is set; ``topology["network"]`` the network.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.blockchain.network import (
            PROTOCOLS,
            PoWNetwork,
            PoWNetworkConfig,
            ProtocolParams,
        )

        _expect_workload_kind(spec, "payment")
        protocol = _resolve(spec.architecture.get("protocol"),
                            "architecture.protocol", ProtocolParams, PROTOCOLS)
        config = _config(
            PoWNetworkConfig,
            _pick(spec, "workload", tx_arrival_rate="rate_tps"),
            _every(spec.architecture, "architecture",
                   skip=("consensus", "protocol", "seed")),
            protocol=protocol or _default_of(PoWNetworkConfig, "protocol"),
            network_params=_network(spec),
            seed=seed,
        )
        return {"model": PoWNetwork(config), "protocol": config.protocol}

    def collect(self, context, outcome) -> Dict[str, float]:
        from repro.blockchain.energy import EnergyModel
        from repro.economics.concentration import nakamoto_coefficient

        protocol = context["protocol"]
        network = context["model"]
        energy = EnergyModel().energy_per_transaction_kwh()
        if protocol.name == "ethereum":
            # PoW-era Ethereum burned roughly a third of Bitcoin's power at a
            # few times its transaction rate (same scaling as repro.core).
            energy /= 10.0
        miner_blocks = outcome.blocks_by_miner
        return {
            "trust_nakamoto": float(nakamoto_coefficient(miner_blocks))
            if miner_blocks else 1.0,
            "throughput_tps": outcome.throughput_tps,
            "offered_load_tps": outcome.offered_load_tps,
            "capacity_tps": outcome.capacity_tps,
            "latency_mean_s": outcome.mean_confirmation_latency,
            "latency_p90_s": outcome.p90_confirmation_latency,
            "finality_mean_s": outcome.mean_finality_latency,
            "finality_nominal_s": (
                protocol.confirmations_for_finality * protocol.target_block_interval
            ),
            "mean_block_interval_s": outcome.mean_block_interval,
            "stale_rate": outcome.stale_rate,
            "max_reorg_depth": float(outcome.chain.max_reorg_depth),
            "main_chain_blocks": float(outcome.chain.main_chain_length),
            "mean_propagation_delay_s": outcome.mean_propagation_delay,
            "backlog_transactions": outcome.backlog_transactions,
            "messages_sent": float(network.network.messages_sent),
            "bytes_sent": float(network.network.bytes_sent),
            "energy_per_tx_kwh": energy,
        }


@experiment("permissionless", "pos")
class NothingAtStake(Experiment):
    """The chain-based PoS fork model (``consensus: "pos"``, E14).

    ``architecture`` keys: the
    :class:`~repro.blockchain.proof_of_stake.ProofOfStakeParams` fields
    ``validators``, ``stake_pareto_shape``, ``multi_vote_fraction``,
    ``rounds``, ``fork_probability`` and ``slashing`` (``slashing_enabled``).
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.blockchain.proof_of_stake import (
            NothingAtStakeModel,
            ProofOfStakeParams,
        )

        params = _config(
            ProofOfStakeParams,
            _pick(spec, "architecture", "validators", "stake_pareto_shape",
                  "multi_vote_fraction", "rounds", "fork_probability",
                  slashing_enabled="slashing"),
            seed=seed,
        )
        return {"model": NothingAtStakeModel(params)}

    def collect(self, context, outcome) -> Dict[str, float]:
        return {
            "forks_started": float(outcome.forks_started),
            "fork_open_fraction": outcome.fork_open_fraction,
            "mean_fork_duration_rounds": outcome.mean_fork_duration_rounds,
            "max_fork_duration_rounds": float(outcome.max_fork_duration_rounds),
            "rounds": float(outcome.total_rounds),
        }


@experiment("permissionless", "market")
class ProviderMarket(Experiment):
    """The preferential-attachment provider market of
    :class:`~repro.economics.market.MarketModel` (``consensus: "market"``,
    E1 — why open markets concentrate).

    ``architecture`` keys: ``steps`` and ``arrivals_per_step``
    (:meth:`~repro.economics.market.MarketModel.run`) plus any
    :class:`~repro.economics.market.MarketParams` field (``providers``,
    ``preferential_exponent``, ...).
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.economics.market import MarketModel, MarketParams

        params = _config(MarketParams, _pick(
            spec, "architecture", *MarketParams.__dataclass_fields__))
        return {
            "run": MarketModel(params, seed=seed).run,
            "arguments": _arguments(MarketModel.run, _pick(
                spec, "architecture", "steps", "arrivals_per_step")),
        }

    def collect(self, context, outcome) -> Dict[str, float]:
        metrics = {key: float(value)
                   for key, value in outcome.concentration().items()}
        metrics["steps"] = float(outcome.step)
        return metrics


@experiment("permissionless", "pools")
class MiningPools(Experiment):
    """Hash-power pool formation via
    :class:`~repro.blockchain.pools.PoolFormationModel`
    (``consensus: "pools"``, E9).

    ``architecture`` keys: any
    :class:`~repro.blockchain.pools.PoolFormationConfig` field
    (``miners``, ``rounds``, ...); the replicate seed owns ``seed``.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.blockchain.pools import PoolFormationConfig, PoolFormationModel

        config = _config(
            PoolFormationConfig,
            _pick(spec, "architecture",
                  *PoolFormationConfig.__dataclass_fields__),
            seed=seed,
        )
        return {"model": PoolFormationModel(config)}

    def collect(self, context, outcome) -> Dict[str, float]:
        from repro.economics.concentration import concentration_report

        metrics = {key: float(value)
                   for key, value in concentration_report(outcome.shares()).items()}
        metrics["rounds"] = float(outcome.round_index)
        return metrics


@experiment("permissionless", "selfish")
class SelfishMining(Experiment):
    """The Eyal–Sirer selfish-mining state machine of
    :mod:`repro.blockchain.selfish` instead of a live network
    (``attack: "selfish"``, E10).

    ``architecture`` keys: ``alpha``, ``gamma``, ``blocks``
    (:func:`~repro.blockchain.selfish.simulate_selfish_mining`).  Reports
    simulated and closed-form relative revenue.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.blockchain.selfish import simulate_selfish_mining

        return {"run": simulate_selfish_mining, "arguments": _arguments(
            simulate_selfish_mining,
            _pick(spec, "architecture", "alpha", "gamma", "blocks"),
            seed=seed,
        )}

    def collect(self, context, outcome) -> Dict[str, float]:
        from repro.blockchain.selfish import selfish_mining_revenue

        metrics = {
            "alpha": outcome.alpha,
            "gamma": outcome.gamma,
            "honest_revenue": outcome.alpha,
            "simulated_revenue": outcome.relative_revenue,
            "advantage": outcome.advantage,
            "stale_rate": outcome.stale_rate,
            "tie_races": float(outcome.tie_races),
            "blocks_simulated": float(outcome.blocks_simulated),
        }
        if outcome.alpha < 0.5:
            metrics["analytic_revenue"] = selfish_mining_revenue(
                outcome.alpha, outcome.gamma)
        return metrics


@experiment("permissionless", "double-spend")
class DoubleSpend(Experiment):
    """Nakamoto/Rosenfeld catch-up analysis of
    :mod:`repro.blockchain.attacks` (``attack: "double-spend"``, E13).

    ``architecture`` keys: ``attacker_share``, ``confirmations``
    (:func:`~repro.blockchain.attacks.attacker_success_probability`) and
    ``max_risk`` (:func:`~repro.blockchain.attacks.confirmations_for_risk`).
    Reports the attack success probability and the confirmation count
    holding risk under ``max_risk``.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.blockchain.attacks import (
            attacker_success_probability,
            confirmations_for_risk,
        )

        attack = _arguments(attacker_success_probability, _pick(
            spec, "architecture", "attacker_share", "confirmations"))
        return {
            "attack": attack,
            "risk": _arguments(confirmations_for_risk,
                               _pick(spec, "architecture", "max_risk"),
                               attacker_share=attack["attacker_share"]),
        }

    def run(self, context):
        from repro.blockchain.attacks import (
            attacker_success_probability,
            confirmations_for_risk,
        )

        return {
            "success_probability": attacker_success_probability(
                **context["attack"]),
            "confirmations_for_max_risk": float(
                confirmations_for_risk(**context["risk"])),
        }

    def collect(self, context, outcome) -> Dict[str, float]:
        attack = context["attack"]
        return {
            "attacker_share": attack["attacker_share"],
            "confirmations": float(attack["confirmations"]),
            "max_risk": context["risk"]["max_risk"],
            **outcome,
        }


# ----------------------------------------------------------------------
# BFT/CFT consensus clusters
# ----------------------------------------------------------------------
@experiment("consensus", "cluster")
class ConsensusCluster(Experiment):
    """PBFT and Raft clusters driven by a Poisson request stream.

    ``architecture`` keys: ``protocol`` (``"pbft"`` or ``"raft"``),
    ``replicas``, ``batch_size``.  The request rate comes from
    ``workload["rate_tps"]`` and the measured interval from ``duration``
    (:class:`~repro.consensus.cluster.ConsensusBenchmarkConfig` fields).
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.consensus.cluster import ConsensusBenchmark, ConsensusBenchmarkConfig

        _expect_workload_kind(spec, "payment")
        config = _config(
            ConsensusBenchmarkConfig,
            _pick(spec, "architecture", "protocol", "replicas", "batch_size"),
            _pick(spec, "workload", request_rate="rate_tps"),
            _duration(spec),
            seed=seed,
        )
        return {"model": ConsensusBenchmark(config)}

    def collect(self, context, outcome) -> Dict[str, float]:
        metrics = _float_metrics(outcome.summary())
        metrics["messages_sent"] = float(outcome.messages_sent)
        metrics["bytes_sent"] = float(outcome.bytes_sent)
        metrics["trust_nakamoto"] = _equal_weight_trust(
            range(context["model"].config.replicas))
        metrics["energy_per_tx_kwh"] = CONSORTIUM_ENERGY_PER_TX_KWH
        return metrics


# ----------------------------------------------------------------------
# Permissioned ledgers (Fabric-like execute-order-validate)
# ----------------------------------------------------------------------
@experiment("permissioned", "fabric")
class FabricConsortium(Experiment):
    """A Fabric-like consortium running a chaincode workload on one channel.

    ``architecture`` keys: ``organizations``, ``peers_per_org``,
    ``chaincode`` (installed name, see
    :func:`repro.permissioned.chaincode.chaincode_by_name`) and
    ``key_space``; ``workload["rate_tps"]`` and ``duration`` set the load.
    ``workload["kind"]`` is ``"payment"`` (transfers over ``key_space``
    accounts) or ``"vertical"``, whose other keys (``domain``, ...) build
    the :class:`~repro.workloads.VerticalWorkload` giving the arguments.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.permissioned.chaincode import chaincode_by_name
        from repro.permissioned.fabric import FabricNetwork, FabricNetworkConfig

        network = FabricNetwork(_config(
            FabricNetworkConfig,
            _pick(spec, "architecture", "organizations", "peers_per_org"),
            seed=seed,
        ))
        chaincode = _arguments(chaincode_by_name,
                               _pick(spec, "architecture", name="chaincode"))
        network.install_chaincode("default", chaincode_by_name(**chaincode))

        args_factory = None
        if _expect_workload_kind(spec, "payment", "vertical") == "vertical":
            vertical = _workload(spec, seed)

            def args_factory(rng) -> Dict:
                return dict(vertical.invocation()["args"])

        return {
            "network": network,
            "run": network.run_workload,
            "arguments": _arguments(
                FabricNetwork.run_workload,
                _pick(spec, "workload", request_rate="rate_tps"),
                _pick(spec, "architecture", "key_space"),
                _duration(spec),
                channel="default",
                chaincode=chaincode["name"],
                args_factory=args_factory,
            ),
        }

    def collect(self, context, outcome) -> Dict[str, float]:
        metrics = _float_metrics(outcome.summary())
        metrics["submitted"] = float(outcome.submitted)
        metrics["committed_invalid"] = float(outcome.committed_invalid)
        metrics["energy_per_tx_kwh"] = CONSORTIUM_ENERGY_PER_TX_KWH
        metrics["trust_nakamoto"] = _equal_weight_trust(
            context["network"].msp.organization_names())
        return metrics


# ----------------------------------------------------------------------
# Open P2P overlays (structured DHTs, one-hop, flooding, identity attacks).
# In every experiment ``topology["size"]`` is the network size,
# ``workload["lookups"]`` the number of lookups and ``churn`` a
# ``CHURN_PRESETS`` name or ``ChurnModel`` field dict (:func:`_churn`); all
# report comparable ``median/p90/mean_latency_s`` and ``failure_rate``
# metrics so cross-substrate studies can pivot on them directly.
# ----------------------------------------------------------------------
@experiment("overlay", "kad", "mainline")
class KademliaLookups(Experiment):
    """The multi-hop Kademlia DHT on the event-driven engine (E2, E5).

    ``architecture["overlay"]`` is the client: a preset (``"kad"`` /
    ``"mainline"``) or a :class:`~repro.p2p.kademlia.KademliaConfig` field
    dict, with optional ``client_overrides`` (fields) on top.
    ``topology["size"]``, ``workload["lookups"]``/``["interval_s"]``,
    ``churn`` and ``topology["network"]`` (``lan``/``wan``/``geo`` or a
    :class:`~repro.sim.network.NetworkParams` field dict) set the run.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.lookup import LookupExperiment, LookupExperimentConfig

        _expect_workload_kind(spec, "lookup")
        config = _config(
            LookupExperimentConfig,
            _pick(spec, "topology", network_size="size"),
            _pick(spec, "workload", "lookups", lookup_interval="interval_s"),
            **_lookup_environment(spec, seed, "overlay", LookupExperimentConfig),
        )
        return {"model": LookupExperiment(config)}

    def collect(self, context, outcome) -> Dict[str, float]:
        return _float_metrics(outcome.summary())


@experiment("overlay", "kad-fast")
class FastKademliaLookups(Experiment):
    """The vectorized large-N Kademlia fast path
    (:class:`~repro.p2p.fastkad.FastKademliaOverlay`): same lookup metrics
    from array-backed state, tractable at 10^5+ nodes.

    ``architecture["client"]`` is the client (``client_overrides`` on
    top), ``workload["wave_size"]`` the lookup batch width and
    ``workload["warmup_s"]`` the churn warm-up; the other keys read as
    for ``kad``, and ``metrics`` selects exact or streaming samples.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.fastkad import FastKademliaConfig, FastKademliaOverlay

        _expect_workload_kind(spec, "lookup")
        config = _config(
            FastKademliaConfig,
            _pick(spec, "topology", network_size="size"),
            _pick(spec, "workload", "lookups", "wave_size",
                  lookup_interval="interval_s", warmup="warmup_s"),
            **_lookup_environment(spec, seed, "client", FastKademliaConfig),
        )
        return {"model": FastKademliaOverlay(config)}

    def collect(self, context, outcome) -> Dict[str, float]:
        # run() already returned the summary dict (same metric names
        # as the scalar DHT path, plus events_processed/online_fraction).
        return {key: float(value) for key, value in outcome.items()}


@experiment("overlay", "sybil", "eclipse")
class SybilAttack(Experiment):
    """The Sybil/eclipse model of :mod:`repro.p2p.sybil` instead of a plain
    lookup experiment (E3).

    ``attack: "sybil"`` spreads self-assigned identities uniformly,
    ``"eclipse"`` clusters them around a target key
    (``architecture["targeted_key"]``, or a seed-derived key when unset).
    ``attacker_machines`` and ``identities_per_machine`` size the attack
    on ``topology["size"]`` honest nodes, measured over
    ``workload["lookups"]``; ``architecture["overlay"]`` is the client.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.identifiers import random_id
        from repro.p2p.sybil import SybilAttackConfig
        from repro.sim.rng import SeededRNG

        _expect_workload_kind(spec, "lookup")
        config = _config(
            SybilAttackConfig,
            _pick(spec, "topology", honest_nodes="size"),
            _pick(spec, "architecture", "attacker_machines",
                  "identities_per_machine", "targeted_key"),
            _pick(spec, "workload", "lookups"),
            kademlia=_client(spec, "overlay", SybilAttackConfig),
            seed=seed,
        )
        if spec.architecture["attack"] == "eclipse" and config.targeted_key is None:
            # A deterministic per-seed victim key, so replicates eclipse
            # different regions of the identifier space.
            config = replace(config, targeted_key=random_id(
                SeededRNG(seed).fork("eclipse-target")))
        return {"config": config}

    def run(self, context):
        from repro.p2p.sybil import run_sybil_attack

        return run_sybil_attack(context["config"])

    def collect(self, context, outcome) -> Dict[str, float]:
        return {
            "honest_nodes": float(outcome.honest_nodes),
            "sybil_identities": float(outcome.sybil_identities),
            "attacker_machines": float(outcome.attacker_machines),
            "identity_share": outcome.identity_share,
            "physical_share": outcome.physical_share,
            "hijack_rate": outcome.hijack_rate,
            "amplification": outcome.amplification,
            "hijacked_lookups": float(outcome.hijacked_lookups),
            "total_lookups": float(outcome.total_lookups),
            "mean_sybils_in_result": outcome.mean_sybils_in_result,
        }


@experiment("overlay", "chord")
class ChordLookups(Experiment):
    """Greedy finger-table routing on a converged
    :class:`~repro.p2p.chord.ChordNetwork` ring (E2).

    ``topology["size"]`` and the ``architecture`` keys
    ``successor_list_size``, ``hop_latency_mean`` build the ring;
    ``workload["lookups"]`` counts the lookups.  The churn model's implied
    availability fails ``1 - availability`` of the ring before the lookups
    run, exercising successor-list repair.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.chord import ChordNetwork

        _expect_workload_kind(spec, "lookup")
        network = ChordNetwork(**_arguments(
            ChordNetwork,
            _pick(spec, "topology", "size"),
            _pick(spec, "architecture", "successor_list_size", "hop_latency_mean"),
            seed=seed,
        ))
        churn = _churn(spec)
        if churn is not None:
            network.fail_nodes(1.0 - churn.availability)
        return {
            "network": network,
            "run": network.run_lookups,
            "arguments": _arguments(ChordNetwork.run_lookups,
                                    _pick(spec, "workload", count="lookups")),
        }

    def collect(self, context, outcome) -> Dict[str, float]:
        from repro.analysis.stats import mean

        successes = [result for result in outcome if result.success]
        recall = len(successes) / len(outcome) if outcome else 0.0
        metrics = {
            "lookups": float(len(outcome)),
            "failure_rate": 1.0 - recall,
            "routing_state_per_node":
                context["network"].routing_state_per_node(),
        }
        # Hops/latency are only defined over successful lookups (the
        # same omission rule as the gnutella experiment below).
        if successes:
            metrics["hops_per_lookup"] = mean(
                [float(result.hops) for result in successes])
            metrics.update(_latency_metrics(
                [result.latency for result in successes]))
        return metrics


@experiment("overlay", "onehop")
class OneHopLookups(Experiment):
    """The full-membership :class:`~repro.p2p.onehop.OneHopOverlay` (E6).

    ``topology["size"]``, ``churn`` and the ``architecture`` keys
    ``dissemination_delay``, ``lookup_timeout`` configure the overlay;
    ``workload["lookups"]`` and ``architecture["hop_latency"]`` drive
    :meth:`~repro.p2p.onehop.OneHopOverlay.lookup_latencies`.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.onehop import OneHopConfig, OneHopOverlay

        _expect_workload_kind(spec, "lookup")
        config = _config(
            OneHopConfig,
            _pick(spec, "topology", "size"),
            _pick(spec, "architecture", "dissemination_delay", "lookup_timeout"),
            churn=_churn(spec),
        )
        overlay = OneHopOverlay(config, seed=seed)
        return {
            "overlay": overlay,
            "run": overlay.lookup_latencies,
            "arguments": _arguments(OneHopOverlay.lookup_latencies,
                                    _pick(spec, "workload", "lookups"),
                                    _pick(spec, "architecture", "hop_latency")),
        }

    def collect(self, context, outcome) -> Dict[str, float]:
        from repro.analysis.stats import percentile

        overlay = context["overlay"]
        config = overlay.config
        return {
            "lookups": float(len(outcome)),
            **_latency_metrics(outcome),
            "p99_latency_s": percentile(outcome, 99),
            # A stale entry costs a timeout and a retry, not a failure.
            "failure_rate": 0.0,
            "routing_staleness": overlay.staleness_probability(),
            "maintenance_kbps": overlay.maintenance_bandwidth_bps() * 8.0 / 1e3,
            "membership_state_mb": (
                config.size * config.membership_entry_bytes / 1e6
            ),
        }


@experiment("overlay", "gnutella")
class GnutellaSearch(Experiment):
    """TTL-limited flooding over a
    :class:`~repro.p2p.unstructured.GnutellaNetwork` (E4).

    ``topology["size"]`` and the ``architecture`` keys ``degree``,
    ``ttl``, ``objects``, ``replicas_per_object``, ``zipf_exponent``,
    ``sharing_fraction``, ``hop_latency_mean`` build the overlay;
    ``workload["lookups"]`` counts the queries.  The churn model scales
    the sharing fraction by the implied mean availability, so flooding
    runs under the same churn trace as the structured substrates.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.unstructured import GnutellaConfig, GnutellaNetwork

        _expect_workload_kind(spec, "lookup")
        churn = _churn(spec)
        availability = churn.availability if churn is not None else 1.0
        config = _config(
            GnutellaConfig,
            _pick(spec, "topology", "size"),
            _pick(spec, "architecture", "degree", "ttl", "objects",
                  "replicas_per_object", "zipf_exponent", "sharing_fraction",
                  "hop_latency_mean"),
        )
        config.sharing_fraction *= availability
        return {
            "run": GnutellaNetwork(config, seed=seed).run_queries,
            "arguments": _arguments(GnutellaNetwork.run_queries,
                                    _pick(spec, "workload", count="lookups")),
            "availability": availability,
        }

    def collect(self, context, outcome) -> Dict[str, float]:
        from repro.analysis.stats import mean

        found = [query for query in outcome if query.found]
        recall = len(found) / len(outcome) if outcome else 0.0
        metrics = {
            "lookups": float(len(outcome)),
            "recall": recall,
            "failure_rate": 1.0 - recall,
            "messages_per_lookup": mean([query.messages for query in outcome]),
            "peers_reached_per_lookup": mean(
                [query.peers_reached for query in outcome]),
            "sharing_availability": context["availability"],
        }
        # Latency is only defined over hits; omitting the keys (rather
        # than reporting 0.0) keeps a fully-failing run from looking
        # instant in cross-substrate comparison tables.
        if found:
            metrics.update(_latency_metrics([query.latency for query in found]))
            metrics["hops_to_first_hit"] = mean(
                [query.first_hit_hops or 0 for query in found])
        return metrics


@experiment("overlay", "superpeer")
class SuperpeerSearch(Experiment):
    """Two-tier search over a :class:`~repro.p2p.superpeer.SuperpeerNetwork`
    (§II: Kazaa/eDonkey/Skype — the scaling fix that re-centralizes).

    ``topology["size"]`` is the number of leaves; ``architecture`` keys:
    ``superpeers``, ``leaves_per_superpeer``, ``superpeer_neighbors``,
    ``objects``, ``replicas_per_object``, ``hop_latency_mean``;
    ``workload["lookups"]`` counts the queries.  Churn is not modelled:
    the superpeer tier is by construction the stable layer.  Reports
    search cost next to how concentrated the index tier is.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.superpeer import SuperpeerConfig, SuperpeerNetwork

        _expect_workload_kind(spec, "lookup")
        config = _config(
            SuperpeerConfig,
            _pick(spec, "topology", leaves="size"),
            _pick(spec, "architecture", "superpeers", "leaves_per_superpeer",
                  "superpeer_neighbors", "objects", "replicas_per_object",
                  "hop_latency_mean"),
        )
        network = SuperpeerNetwork(config, seed=seed)
        return {
            "network": network,
            "run": network.run_queries,
            "arguments": _arguments(SuperpeerNetwork.run_queries,
                                    _pick(spec, "workload", count="lookups")),
        }

    def collect(self, context, outcome) -> Dict[str, float]:
        return {
            "lookups": float(context["arguments"]["count"]),
            "recall": outcome["recall"],
            "failure_rate": 1.0 - outcome["recall"],
            "hops_per_lookup": outcome["mean_hops"],
            "mean_latency_s": outcome["mean_latency"],
            "superpeers_contacted_per_lookup": outcome["mean_superpeers_contacted"],
            **context["network"].centralization_report(),
        }


# ----------------------------------------------------------------------
# Edge-centric computing (placement strategies, blockchain islands)
# ----------------------------------------------------------------------
@experiment("edge", "placement")
class EdgePlacement(Experiment):
    """Cloud-only vs regional-cloud vs edge-centric placement
    (``mode: "placement"``, the family default).

    Runs ``workload["requests"]`` device requests under each strategy
    (:func:`~repro.edge.placement.compare_placements`) over an
    :class:`~repro.edge.topology.EdgeTopology` whose every ``topology``
    key is an :class:`~repro.edge.topology.EdgeTopologyConfig` field
    (empty dict → stock topology).  Metrics are emitted per strategy as
    ``<strategy>.<metric>`` plus the cloud-to-edge ``speedup``.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.edge.placement import compare_placements

        _expect_workload_kind(spec, "object")
        topology = None
        if spec.topology:
            from repro.edge.topology import EdgeTopology, EdgeTopologyConfig

            topology = EdgeTopology(_config(
                EdgeTopologyConfig, _every(spec.topology, "topology")))
        return {"run": compare_placements, "arguments": _arguments(
            compare_placements, _pick(spec, "workload", "requests"),
            topology=topology, seed=seed)}

    def collect(self, context, outcome) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for name, result in outcome.results.items():
            metrics.update(_float_metrics(result.summary(), prefix=f"{name}."))
        metrics["speedup_cloud_to_edge"] = outcome.speedup("cloud-only", "edge-centric")
        return metrics


@experiment("edge", "federation")
class IslandFederationOverhead(Experiment):
    """Blockchain islands and their interoperability overhead
    (``mode: "federation"``).

    Builds ``architecture["islands"]`` (dicts of
    :class:`~repro.edge.islands.BlockchainIsland` fields plus a
    ``seed_offset`` added to the run seed, so ``--seed``/replicates
    re-seed every island), connects ``architecture["connections"]`` pairs
    with ``relay_latency`` and measures the overhead of the first
    connection at ``workload["rate_tps"]`` for ``duration`` seconds.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.edge.islands import BlockchainIsland, IslandFederation

        _expect_workload_kind(spec, "vertical")
        # Island seeds are offsets from the run seed, so both a ``--seed``
        # override and replicate fan-out re-seed every island while staying
        # fully deterministic.
        federation = IslandFederation(seed=seed)
        for index, island in enumerate(spec.architecture.get("islands") or []):
            fields = _every(island, f"architecture.islands[{index}]")
            key, offset = fields.pop("seed_offset", ("", index + 1))
            with _spec_values():
                offset = _coerce((0, int), key, offset)
            federation.add_island(BlockchainIsland(**_arguments(
                BlockchainIsland, fields, seed=seed + offset)))
        relay = _arguments(IslandFederation.connect,
                           _pick(spec, "architecture", "relay_latency"))
        connections = [tuple(pair) for pair in spec.architecture.get("connections") or []]
        for source, destination in connections:
            federation.connect(source, destination, **relay)
        return {
            "federation": federation,
            "connections": connections,
            "arguments": _arguments(
                IslandFederation.interoperability_overhead,
                _pick(spec, "workload", request_rate="rate_tps"),
                _duration(spec),
            ),
        }

    def run(self, context):
        federation = context["federation"]
        if not context["connections"]:
            raise ValueError("a federation scenario needs at least one connection")
        source, destination = context["connections"][0]
        return federation.interoperability_overhead(
            source, destination, **context["arguments"])

    def collect(self, context, outcome) -> Dict[str, float]:
        from repro.economics.concentration import nakamoto_coefficient

        metrics = {key: float(value) for key, value in outcome.items()}
        federation = context["federation"]
        trust = federation.federation_trust_entities()
        metrics["trust_entities"] = float(len(trust))
        metrics["trust_nakamoto"] = float(nakamoto_coefficient(trust)) if trust else 1.0
        # Cross-family comparability aliases: the federation's sustained rate
        # is the source island's committed throughput, and its footprint is
        # the consortium-hardware figure the permissioned family reports.
        metrics["throughput_tps"] = metrics.get("source_throughput_tps", 0.0)
        metrics["energy_per_tx_kwh"] = CONSORTIUM_ENERGY_PER_TX_KWH
        return metrics


#: One adapter per family (adapters are stateless between runs).
ADAPTERS: Dict[str, ArchitectureAdapter] = {
    family: ArchitectureAdapter(family) for family in FAMILIES
}


def adapter_for(family: str) -> ArchitectureAdapter:
    """The adapter that runs scenarios of the given family."""
    try:
        return ADAPTERS[family]
    except KeyError:
        raise ValueError(
            f"no adapter for family {family!r}; known: {sorted(ADAPTERS)}"
        ) from None
