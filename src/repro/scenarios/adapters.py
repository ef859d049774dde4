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

Experiments construct exactly the same configuration objects the
hand-written experiments used, so a scenario parametrized like a
pre-framework benchmark reproduces its numbers bit-for-bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Dict, Iterable, Iterator, List, Tuple, Type

from repro.scenarios.spec import FAMILIES, ScenarioSpec


#: Energy per transaction for a consortium of a few commodity servers per
#: organization (kWh) — shared by the consensus, permissioned and
#: edge-federation experiments so the cross-family comparison stays consistent.
CONSORTIUM_ENERGY_PER_TX_KWH = 2e-6


class SpecError(ValueError):
    """A spec value the scenario's experiment cannot be built from.

    A usage error (``repro-run`` exits 2 with one line), not a bug in the
    model.  Only the steps that turn spec values into config objects raise
    it (:func:`_spec_values`, :func:`experiment_for`,
    :func:`_expect_workload_kind`); :meth:`ArchitectureAdapter.setup`
    adds the scenario's name.  A ``ValueError`` from building or running
    the model itself stays a plain ``ValueError`` with its traceback.
    """


@contextmanager
def _spec_values() -> Iterator[None]:
    """Re-raise a ``ValueError`` from turning spec values into config
    objects (coercion, a config's own validation) as :class:`SpecError`."""
    try:
        yield
    except ValueError as error:
        raise SpecError(str(error)) from error


def _float_metrics(raw: Dict[str, object], prefix: str = "") -> Dict[str, float]:
    """Keep the numeric entries of a summary dict, as floats."""
    return {
        prefix + key: float(value)
        for key, value in raw.items()
        if isinstance(value, (int, float))
    }


def _expect_workload_kind(spec: ScenarioSpec, allowed: tuple, default: str) -> str:
    """Validate ``workload['kind']`` so a nonsensical override fails loudly."""
    kind = str(spec.workload.get("kind", default))
    if kind not in allowed:
        raise SpecError(
            f"a {spec.family} scenario cannot run a {kind!r} workload; "
            f"supported kinds: {sorted(allowed)}"
        )
    return kind


def _pick(spec: ScenarioSpec, section: str, *names: str,
          **renamed: str) -> Dict[str, Tuple[str, object]]:
    """The config fields one spec ``section`` sets, as ``{field: (spec key,
    value)}``: ``names`` are spelled like their spec key, ``renamed`` maps
    ``field=spec_key``.  Keys the spec leaves out are left out here, so the
    model's own default applies."""
    source = getattr(spec, section)
    picked = {name: (f"{section}.{name}", source[name])
              for name in names if name in source}
    for name, key in renamed.items():
        if key in source:
            picked[name] = (f"{section}.{key}", source[key])
    return picked


def _config(cls, *picked: Dict[str, Tuple[str, object]], **fixed):
    """Build a model's config dataclass from what the spec sets.

    Each ``picked`` value (see :func:`_pick`; later dicts win) is coerced
    to the type of the field's own default (:func:`_coerce`) and fields
    nothing picks keep that default, so the model is the one home of its
    defaults.  ``fixed`` are the fields the experiment owns (replicate
    seed, nested configs) and win over any pick.
    """
    fields = cls.__dataclass_fields__
    kwargs: Dict[str, object] = {}
    with _spec_values():
        for values in picked:
            for name, (key, value) in values.items():
                kwargs[name] = _coerce(fields[name].default, key, value)
        kwargs.update(fixed)
        return cls(**kwargs)


def _coerce(default: object, key: str, value: object) -> object:
    """``value`` as the type of a field's ``default``: a JSON ``3`` for a
    float field arrives as ``3.0``, and ``3.0`` for an int field as ``3``.

    A value the conversion would change rather than convert — a fractional
    float for an int field, anything but a JSON bool for a bool field — is
    a ``ValueError`` naming the spec ``key``.
    """
    kind = type(default)
    if kind is bool and not isinstance(value, bool):
        raise ValueError(f"{key} expects true or false, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} expects an integer, got {value!r}")
    return kind(value)


def _lookup_environment(spec: ScenarioSpec, seed: int, client: str) -> Dict[str, object]:
    """The config fields both Kademlia substrates fill alike; ``client`` is
    the ``architecture`` key naming the client (preset or field dict), with
    ``architecture["client_overrides"]`` applied on top."""
    from repro.p2p.kademlia import KademliaConfig

    kademlia = KademliaConfig.by_name(spec.architecture.get(client, "kad"))
    overrides = spec.architecture.get("client_overrides") or {}
    if overrides:
        kademlia = replace(kademlia, **overrides)
    return {
        "kademlia": kademlia,
        "churn": _churn(spec),
        "network_params": _network(spec),
        "seed": seed,
        "metrics": spec.metrics,
    }


def _churn(spec: ScenarioSpec):
    """The spec's churn model (``None`` when the membership is stable)."""
    from repro.sim.churn import ChurnModel

    with _spec_values():
        return ChurnModel.from_spec(spec.churn)


def _network(spec: ScenarioSpec):
    """The spec's ``topology["network"]`` as ``NetworkParams`` (``None``
    when it sets none, so the model keeps its own default)."""
    from repro.sim.network import NetworkParams

    with _spec_values():
        return NetworkParams.from_spec(spec.topology.get("network"))


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
    metrics) and, unless the system is a ``context["model"]`` with its own
    ``run()``, :meth:`run` (drive the workload, return the outcome).  All
    state of a run travels in its context, so one instance serves them all.
    """

    def setup(self, spec: ScenarioSpec, seed: int) -> Dict[str, object]:
        raise NotImplementedError

    def run(self, context):
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

    ``architecture`` keys: ``protocol`` (preset name or dict),
    ``miner_count``, ``duration_blocks``, plus any other
    :class:`~repro.blockchain.network.PoWNetworkConfig` field; the offered
    transaction load comes from ``workload["rate_tps"]``.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.blockchain.network import (
            PoWNetwork,
            PoWNetworkConfig,
            protocol_by_name,
        )

        _expect_workload_kind(spec, ("payment",), default="payment")
        arch = dict(spec.architecture)
        arch.pop("consensus", None)
        protocol = protocol_by_name(arch.pop("protocol", "bitcoin"))
        # The replicate seed and the workload rate own their keys; an
        # architecture.tx_arrival_rate override still wins over the workload
        # so "plus any other PoWNetworkConfig field" holds without a
        # duplicate-keyword TypeError.
        arch.pop("seed", None)
        arch.pop("tx_arrival_rate", None)
        if spec.topology.get("network") is not None:
            arch["network_params"] = _network(spec)
        config = _config(PoWNetworkConfig,
                         _pick(spec, "workload", tx_arrival_rate="rate_tps"),
                         _pick(spec, "architecture", "tx_arrival_rate"),
                         protocol=protocol, seed=seed, **arch)
        return {"model": PoWNetwork(config), "protocol": protocol}

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

    ``architecture`` keys:
    :class:`~repro.blockchain.proof_of_stake.ProofOfStakeParams` fields
    (``multi_vote_fraction``, ``rounds``, ...), with ``slashing`` spelling
    ``slashing_enabled``.
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

    ``architecture`` keys: ``steps``, ``arrivals_per_step`` plus any
    :class:`~repro.economics.market.MarketParams` field (``providers``,
    ``preferential_exponent``, ...).
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.economics.market import MarketModel, MarketParams

        arch = spec.architecture
        params = _config(MarketParams, _pick(
            spec, "architecture", *MarketParams.__dataclass_fields__))
        return {
            "model": MarketModel(params, seed=seed),
            "steps": int(arch.get("steps", 250)),
            "arrivals": int(arch.get("arrivals_per_step", 200)),
        }

    def run(self, context):
        return context["model"].run(steps=context["steps"],
                                    arrivals_per_step=context["arrivals"])

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

    ``architecture`` keys: ``alpha``, ``gamma``, ``blocks``.  Reports
    simulated and closed-form relative revenue.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        arch = spec.architecture
        return {
            "alpha": float(arch.get("alpha", 1.0 / 3.0)),
            "gamma": float(arch.get("gamma", 0.0)),
            "blocks": int(arch.get("blocks", 100_000)),
            "seed": seed,
        }

    def run(self, context):
        from repro.blockchain.selfish import simulate_selfish_mining

        return simulate_selfish_mining(
            context["alpha"], context["gamma"],
            blocks=context["blocks"], seed=context["seed"],
        )

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

    ``architecture`` keys: ``attacker_share``, ``confirmations``,
    ``max_risk``.  Reports the attack success probability and the
    confirmation count holding risk under ``max_risk``.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        arch = spec.architecture
        return {
            "attacker_share": float(arch.get("attacker_share", 0.3)),
            "confirmations": int(arch.get("confirmations", 6)),
            "max_risk": float(arch.get("max_risk", 0.001)),
        }

    def run(self, context):
        from repro.blockchain.attacks import (
            attacker_success_probability,
            confirmations_for_risk,
        )

        share = context["attacker_share"]
        return {
            "success_probability": attacker_success_probability(
                share, context["confirmations"]),
            "confirmations_for_max_risk": float(
                confirmations_for_risk(share, context["max_risk"])),
        }

    def collect(self, context, outcome) -> Dict[str, float]:
        return {
            "attacker_share": context["attacker_share"],
            "confirmations": float(context["confirmations"]),
            "max_risk": context["max_risk"],
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
    ``workload["rate_tps"]`` and the measured interval from ``duration``.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.consensus.cluster import ConsensusBenchmark, ConsensusBenchmarkConfig

        _expect_workload_kind(spec, ("payment",), default="payment")
        config = _config(
            ConsensusBenchmarkConfig,
            _pick(spec, "architecture", "protocol", "replicas", "batch_size"),
            _pick(spec, "workload", request_rate="rate_tps"),
            duration=float(spec.duration or 5.0),
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
    ``key_space``.  ``workload`` is either ``{"kind": "payment",
    "rate_tps": ...}`` (stock transfer arguments over ``key_space``
    accounts) or ``{"kind": "vertical", "domain": ..., "rate_tps": ...}``
    driving the matching :class:`~repro.workloads.VerticalWorkload`.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.permissioned.chaincode import chaincode_by_name
        from repro.permissioned.fabric import FabricNetwork, FabricNetworkConfig

        arch = spec.architecture
        network = FabricNetwork(_config(
            FabricNetworkConfig,
            _pick(spec, "architecture", "organizations", "peers_per_org"),
            seed=seed,
        ))
        chaincode = str(arch.get("chaincode", "asset-transfer"))
        network.install_chaincode("default", chaincode_by_name(chaincode))

        args_factory = None
        workload = spec.workload
        kind = _expect_workload_kind(spec, ("payment", "vertical"), default="payment")
        if kind == "vertical":
            from repro.workloads import workload_from_spec

            vertical = workload_from_spec(workload, seed=seed)

            def args_factory(rng) -> Dict:
                return dict(vertical.invocation()["args"])

        return {
            "network": network,
            "chaincode": chaincode,
            "args_factory": args_factory,
            "rate": float(workload.get("rate_tps", 1000.0)),
            "duration": float(spec.duration or 5.0),
            "key_space": int(arch.get("key_space", 1000)),
        }

    def run(self, context):
        return context["network"].run_workload(
            "default",
            context["chaincode"],
            request_rate=context["rate"],
            duration=context["duration"],
            args_factory=context["args_factory"],
            key_space=context["key_space"],
        )

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
# ``workload["lookups"]`` the number of lookups and ``churn`` follows
# :meth:`repro.sim.churn.ChurnModel.from_spec`; all report comparable
# ``median/p90/mean_latency_s`` and ``failure_rate`` metrics so
# cross-substrate studies can pivot on them directly.
# ----------------------------------------------------------------------
@experiment("overlay", "kad", "mainline")
class KademliaLookups(Experiment):
    """The multi-hop Kademlia DHT on the event-driven engine (E2, E5).

    ``architecture["overlay"]`` is the client: a preset (``"kad"`` /
    ``"mainline"``) or a dict of
    :class:`~repro.p2p.kademlia.KademliaConfig` fields, with optional
    ``client_overrides`` applied on top.  ``workload["interval_s"]`` spaces
    the lookups and ``topology["network"]`` selects a
    :meth:`repro.sim.network.NetworkParams.from_spec` latency/bandwidth
    preset (``lan``/``wan``/``geo``) or field dict.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.lookup import LookupExperiment, LookupExperimentConfig

        _expect_workload_kind(spec, ("lookup",), default="lookup")
        config = _config(
            LookupExperimentConfig,
            _pick(spec, "topology", network_size="size"),
            _pick(spec, "workload", "lookups", lookup_interval="interval_s"),
            **_lookup_environment(spec, seed, client="overlay"),
        )
        return {"model": LookupExperiment(config)}

    def collect(self, context, outcome) -> Dict[str, float]:
        return _float_metrics(outcome.summary())


@experiment("overlay", "kad-fast")
class FastKademliaLookups(Experiment):
    """The vectorized large-N Kademlia fast path
    (:class:`~repro.p2p.fastkad.FastKademliaOverlay`): same lookup metrics
    from array-backed state, tractable at 10^5+ nodes.

    ``architecture["client"]`` picks the client preset/dict
    (``client_overrides`` applies on top), ``workload["wave_size"]`` the
    lookup batch width, ``workload["warmup_s"]`` the churn warm-up; the
    spec's ``metrics`` mode selects exact or streaming latency samples.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.fastkad import FastKademliaConfig, FastKademliaOverlay

        _expect_workload_kind(spec, ("lookup",), default="lookup")
        config = _config(
            FastKademliaConfig,
            _pick(spec, "topology", network_size="size"),
            _pick(spec, "workload", "lookups", "wave_size",
                  lookup_interval="interval_s", warmup="warmup_s"),
            **_lookup_environment(spec, seed, client="client"),
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
    ``attacker_machines`` and ``identities_per_machine`` size the attack;
    ``architecture["overlay"]`` names the Kademlia client preset.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.identifiers import random_id
        from repro.p2p.kademlia import KademliaConfig
        from repro.p2p.sybil import SybilAttackConfig
        from repro.sim.rng import SeededRNG

        _expect_workload_kind(spec, ("lookup",), default="lookup")
        arch = spec.architecture
        targeted_key = arch.get("targeted_key")
        if arch["attack"] == "eclipse" and targeted_key is None:
            # A deterministic per-seed victim key, so replicates eclipse
            # different regions of the identifier space.
            targeted_key = random_id(SeededRNG(seed).fork("eclipse-target"))
        config = _config(
            SybilAttackConfig,
            _pick(spec, "topology", honest_nodes="size"),
            _pick(spec, "architecture", "attacker_machines",
                  "identities_per_machine"),
            _pick(spec, "workload", "lookups"),
            targeted_key=targeted_key if targeted_key is None else int(targeted_key),
            kademlia=KademliaConfig.by_name(arch.get("overlay", "kad")),
            seed=seed,
        )
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

    ``architecture`` keys: ``successor_list_size``, ``hop_latency_mean``.
    The churn model's implied availability fails ``1 - availability`` of
    the ring before the lookups run, exercising successor-list repair.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.chord import ChordNetwork

        _expect_workload_kind(spec, ("lookup",), default="lookup")
        arch = spec.architecture
        network = ChordNetwork(
            size=int(spec.topology.get("size", 500)),
            successor_list_size=int(arch.get("successor_list_size", 8)),
            hop_latency_mean=float(arch.get("hop_latency_mean", 0.08)),
            seed=seed,
        )
        churn = _churn(spec)
        if churn is not None:
            network.fail_nodes(1.0 - churn.availability)
        return {
            "network": network,
            "lookups": int(spec.workload.get("lookups", 300)),
        }

    def run(self, context):
        from repro.p2p.identifiers import random_id

        network = context["network"]
        # Ring order keeps the origin draw deterministic (the alive
        # set must never be iterated directly).
        alive = [node_id for node_id in network.ring
                 if network.nodes[node_id].online]
        return [
            network.lookup(network.rng.choice(alive),
                           random_id(network.rng))
            for _ in range(context["lookups"])
        ]

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

    ``architecture`` keys: ``dissemination_delay``, ``lookup_timeout`` and
    ``hop_latency``.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.onehop import OneHopConfig, OneHopOverlay

        _expect_workload_kind(spec, ("lookup",), default="lookup")
        arch = spec.architecture
        config = _config(
            OneHopConfig,
            _pick(spec, "topology", "size"),
            _pick(spec, "architecture", "dissemination_delay", "lookup_timeout"),
            churn=_churn(spec),
        )
        return {
            "overlay": OneHopOverlay(config, seed=seed),
            "lookups": int(spec.workload.get("lookups", 300)),
            "hop_latency": float(arch.get("hop_latency", 0.08)),
        }

    def run(self, context):
        return context["overlay"].lookup_latencies(
            context["lookups"], hop_latency=context["hop_latency"]
        )

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

    ``architecture`` keys: ``degree``, ``ttl``, ``objects``,
    ``replicas_per_object``, ``zipf_exponent``, ``sharing_fraction``,
    ``hop_latency_mean``.  The churn model scales the sharing fraction by
    the implied mean availability, so flooding runs under the same churn
    trace as the structured substrates.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.unstructured import GnutellaConfig, GnutellaNetwork

        _expect_workload_kind(spec, ("lookup",), default="lookup")
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
            "network": GnutellaNetwork(config, seed=seed),
            "queries": int(spec.workload.get("lookups", 200)),
            "availability": availability,
        }

    def run(self, context):
        return context["network"].run_queries(context["queries"])

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

    ``topology["size"]`` is the number of leaves; ``architecture`` keys are
    the other :class:`~repro.p2p.superpeer.SuperpeerConfig` fields
    (``superpeers``, ``leaves_per_superpeer``, ``objects``, ...).  Churn is
    not modelled: the superpeer tier is by construction the stable layer.
    Reports search cost next to how concentrated the index tier is.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.superpeer import SuperpeerConfig, SuperpeerNetwork

        _expect_workload_kind(spec, ("lookup",), default="lookup")
        config = _config(
            SuperpeerConfig,
            _pick(spec, "topology", leaves="size"),
            _pick(spec, "architecture", "superpeers", "leaves_per_superpeer",
                  "superpeer_neighbors", "objects", "replicas_per_object",
                  "hop_latency_mean"),
        )
        return {
            "network": SuperpeerNetwork(config, seed=seed),
            "queries": int(spec.workload.get("lookups", 300)),
        }

    def run(self, context):
        return context["network"].run_queries(context["queries"])

    def collect(self, context, outcome) -> Dict[str, float]:
        return {
            "lookups": float(context["queries"]),
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

    Runs ``workload["requests"]`` device requests under each strategy over
    an :class:`~repro.edge.topology.EdgeTopology` built from ``topology``
    (empty dict → stock topology).  Metrics are emitted per strategy as
    ``<strategy>.<metric>`` plus the cloud-to-edge ``speedup``.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        _expect_workload_kind(spec, ("object",), default="object")
        topology = None
        if spec.topology:
            from repro.edge.topology import EdgeTopology, EdgeTopologyConfig

            with _spec_values():
                config = EdgeTopologyConfig(**spec.topology)
            topology = EdgeTopology(config)
        return {
            "topology": topology,
            "requests": int(spec.workload.get("requests", 2000)),
            "seed": seed,
        }

    def run(self, context):
        from repro.edge.placement import compare_placements

        return compare_placements(
            topology=context["topology"],
            requests=context["requests"],
            seed=context["seed"],
        )

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

    Builds ``architecture["islands"]`` (dicts with ``name``, ``domain``,
    optional sizing and a ``seed_offset`` added to the run seed, so
    ``--seed``/replicates re-seed every island), connects
    ``architecture["connections"]`` pairs and measures the
    interoperability overhead of the first connection at
    ``workload["rate_tps"]`` for ``duration`` seconds.
    """

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.edge.islands import BlockchainIsland, IslandFederation

        _expect_workload_kind(spec, ("vertical",), default="vertical")
        # Island seeds are offsets from the run seed, so both a ``--seed``
        # override and replicate fan-out re-seed every island while staying
        # fully deterministic.
        federation = IslandFederation(seed=seed)
        islands = spec.architecture.get("islands") or []
        for index, island in enumerate(islands):
            params = dict(island)
            params["seed"] = seed + int(params.pop("seed_offset", index + 1))
            federation.add_island(BlockchainIsland(**params))
        relay = float(spec.architecture.get("relay_latency", 0.05))
        connections = [tuple(pair) for pair in spec.architecture.get("connections") or []]
        for source, destination in connections:
            federation.connect(source, destination, relay_latency=relay)
        return {
            "federation": federation,
            "connections": connections,
            "rate": float(spec.workload.get("rate_tps", 200.0)),
            "duration": float(spec.duration or 4.0),
        }

    def run(self, context):
        federation = context["federation"]
        if not context["connections"]:
            raise ValueError("a federation scenario needs at least one connection")
        source, destination = context["connections"][0]
        return federation.interoperability_overhead(
            source, destination, request_rate=context["rate"], duration=context["duration"]
        )

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
