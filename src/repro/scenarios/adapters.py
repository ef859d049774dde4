"""Registered experiments: one declarative spec, five simulation substrates.

Every runnable experiment is an :class:`Experiment` registered under a
``(family, mode)`` key in :data:`EXPERIMENTS`.  It owns its life cycle —
``setup`` (build the simulated system from a :class:`ScenarioSpec` and a
seed), ``run`` (drive the configured workload) and ``collect`` (reduce the
outcome to a flat ``Dict[str, float]`` of metrics) — and declares in one
:class:`Knobs` table every spec key it reads.  :func:`experiment_for` is the
single place a spec is resolved to its experiment, so adding one is one
decorated class.  :class:`ArchitectureAdapter` is the per-family handle the
execution layer holds (:func:`repro.scenarios.execution.execute_plan`
calls ``run_replicate`` once per unit job); it looks up and delegates.

A spec value reaches its model by one route, :mod:`repro.scenarios.knobs`:
``setup`` reads it through the experiment's table, which coerces it to the
type the model declares.  The model is the one home of its defaults, so a
scenario parametrized like a pre-framework benchmark reproduces its numbers
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Tuple, Type

from repro.scenarios.knobs import (
    Knobs,
    SpecError,
    _arguments,
    mode_of,
)
from repro.scenarios.spec import FAMILIES, ScenarioSpec


#: Energy per transaction for a consortium of a few commodity servers per
#: organization (kWh) — shared by the consensus, permissioned and
#: edge-federation experiments so the cross-family comparison stays consistent.
CONSORTIUM_ENERGY_PER_TX_KWH = 2e-6


def _float_metrics(raw: Dict[str, object], prefix: str = "") -> Dict[str, float]:
    """Keep the numeric entries of a summary dict, as floats."""
    return {
        prefix + key: float(value)
        for key, value in raw.items()
        if isinstance(value, (int, float))
    }


# What a preset knob's value names: ``(presets, config class)``.
def _churn():
    from repro.sim.churn import CHURN_PRESETS, ChurnModel

    return CHURN_PRESETS, ChurnModel


def _network():
    from repro.sim.network import NETWORK_PRESETS, NetworkParams

    return NETWORK_PRESETS, NetworkParams


def _client():
    from repro.p2p.kademlia import KADEMLIA_PRESETS, KademliaConfig

    return KADEMLIA_PRESETS, KademliaConfig


def _protocol():
    from repro.blockchain.network import PROTOCOLS, ProtocolParams

    return PROTOCOLS, ProtocolParams


def check_spec(spec: ScenarioSpec) -> None:
    """Hold one compiled point to its experiment's :class:`Knobs`, naming
    the scenario in the :class:`SpecError`."""
    try:
        experiment_for(spec).knobs.check(spec)
    except SpecError as error:
        raise SpecError(f"scenario {spec.name!r}: {error}") from error


def _lookup_config(knobs: Knobs, spec: ScenarioSpec, seed: int):
    """The config both Kademlia substrates build alike: the client with
    ``architecture.client_overrides`` on top, the seed and metrics mode."""
    config = knobs.config(spec, "config", seed=seed, metrics=spec.metrics)
    return replace(config, kademlia=knobs.update(spec, "client_overrides",
                                                 config.kademlia))


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

    Subclasses declare :attr:`knobs` and implement :meth:`setup` (spec +
    seed → a dict context holding the live system, reading the spec only
    through ``knobs``), :meth:`collect` (outcome → flat float metrics)
    and, unless the context names what drives the workload, :meth:`run`
    (drive it, return the outcome).  All state of a run travels in its
    context, so one instance serves them all.
    """

    #: Every spec value the experiment reads (``EXPERIMENTS.md`` lists them).
    knobs = Knobs()

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
    """A live PoW network (``consensus: "pow"``, the family default);
    ``workload["rate_tps"]`` is the offered load unless
    ``architecture["tx_arrival_rate"]`` is set."""

    knobs = Knobs(
        kinds=("payment",),
        presets={"architecture.protocol": _protocol, "topology.network": _network},
        config=("repro.blockchain.network:PoWNetworkConfig",
                "workload.rate_tps=tx_arrival_rate", "architecture.tx_arrival_rate",
                "architecture.protocol", "topology.network=network_params",
                "architecture.*", "=seed", "=miners"),
    )

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.blockchain.network import PoWNetwork

        config = self.knobs.config(spec, "config", seed=seed)
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
    """The chain-based PoS fork model (``consensus: "pos"``, E14)."""

    knobs = Knobs(params=(
        "repro.blockchain.proof_of_stake:ProofOfStakeParams", "architecture.validators",
        "architecture.stake_pareto_shape", "architecture.multi_vote_fraction",
        "architecture.rounds", "architecture.fork_probability",
        "architecture.slashing=slashing_enabled"))

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.blockchain.proof_of_stake import NothingAtStakeModel

        return {"model": NothingAtStakeModel(
            self.knobs.config(spec, "params", seed=seed))}

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
    E1 — why open markets concentrate)."""

    knobs = Knobs(params=("repro.economics.market:MarketParams", "architecture.*"),
                  run=("repro.economics.market:MarketModel.run",
                       "architecture.steps", "architecture.arrivals_per_step"))

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.economics.market import MarketModel

        return {
            "run": MarketModel(self.knobs.config(spec, "params"), seed=seed).run,
            "arguments": self.knobs.arguments(spec, "run"),
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
    (``consensus: "pools"``, E9)."""

    knobs = Knobs(config=("repro.blockchain.pools:PoolFormationConfig",
                          "architecture.*", "=seed"))

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.blockchain.pools import PoolFormationModel

        return {"model": PoolFormationModel(
            self.knobs.config(spec, "config", seed=seed))}

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
    (``attack: "selfish"``, E10).  Reports simulated and closed-form
    relative revenue."""

    knobs = Knobs(run=("repro.blockchain.selfish:simulate_selfish_mining",
                       "architecture.alpha", "architecture.gamma", "architecture.blocks"))

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.blockchain.selfish import simulate_selfish_mining

        return {"run": simulate_selfish_mining,
                "arguments": self.knobs.arguments(spec, "run", seed=seed)}

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
    Reports the attack success probability and the confirmation count
    holding risk under ``max_risk``."""

    knobs = Knobs(
        attack=("repro.blockchain.attacks:attacker_success_probability",
                "architecture.attacker_share", "architecture.confirmations"),
        risk=("repro.blockchain.attacks:confirmations_for_risk", "architecture.max_risk"))

    def setup(self, spec: ScenarioSpec, seed: int):
        attack = self.knobs.arguments(spec, "attack")
        return {
            "attack": attack,
            "risk": self.knobs.arguments(spec, "risk",
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
    """PBFT and Raft clusters driven by a Poisson request stream."""

    knobs = Knobs(
        kinds=("payment",),
        choices={"architecture.protocol": "repro.consensus.cluster:PROTOCOLS"},
        config=("repro.consensus.cluster:ConsensusBenchmarkConfig", "architecture.protocol",
                "architecture.replicas", "architecture.batch_size",
                "workload.rate_tps=request_rate", "duration"))

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.consensus.cluster import ConsensusBenchmark

        return {"model": ConsensusBenchmark(
            self.knobs.config(spec, "config", seed=seed))}

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

    A ``"payment"`` workload transfers over ``key_space`` accounts; a
    ``"vertical"`` one builds the
    :class:`~repro.permissioned.chaincode.VerticalWorkload` giving each
    invocation's arguments, for the chaincode its domain calls.
    """

    knobs = Knobs(
        kinds=("payment", "vertical"),
        only_for={"vertical": "vertical"},
        choices={"architecture.chaincode":
                 "repro.permissioned.chaincode:CHAINCODE_FACTORIES",
                 "workload.domain":
                 "repro.permissioned.chaincode:VerticalWorkload.DOMAINS"},
        network=("repro.permissioned.fabric:FabricNetworkConfig",
                 "architecture.organizations", "architecture.peers_per_org"),
        chaincode=("repro.permissioned.chaincode:chaincode_by_name",
                   "architecture.chaincode=name"),
        run=("repro.permissioned.fabric:FabricNetwork.run_workload",
             "workload.rate_tps=request_rate", "architecture.key_space", "duration"),
        vertical=("repro.permissioned.chaincode:VerticalWorkload", "workload.*",
                  "=seed"))

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.permissioned.chaincode import VerticalWorkload, chaincode_by_name
        from repro.permissioned.fabric import FabricNetwork

        network = FabricNetwork(self.knobs.config(spec, "network", seed=seed))
        chaincode = self.knobs.arguments(spec, "chaincode")
        network.install_chaincode("default", chaincode_by_name(**chaincode))

        args_factory = None
        if self.knobs.kind(spec) == "vertical":
            vertical = VerticalWorkload(**self.knobs.arguments(spec, "vertical", seed=seed))
            if vertical.chaincode != chaincode["name"]:
                raise SpecError(
                    f"workload.domain={vertical.domain!r} invokes the "
                    f"{vertical.chaincode!r} chaincode, but architecture.chaincode "
                    f"is {chaincode['name']!r}")

            def args_factory(rng) -> Dict:
                return vertical.invocation()

        return {
            "network": network,
            "run": network.run_workload,
            "arguments": self.knobs.arguments(
                spec, "run", channel="default", chaincode=chaincode["name"],
                args_factory=args_factory),
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
# All report comparable ``median/p90/mean_latency_s`` and ``failure_rate``
# metrics so cross-substrate studies can pivot on them directly.
# ----------------------------------------------------------------------
@experiment("overlay", "kad", "mainline")
class KademliaLookups(Experiment):
    """The multi-hop Kademlia DHT on the event-driven engine (E2, E5);
    ``architecture["overlay"]`` is the client."""

    knobs = Knobs(
        kinds=("lookup",),
        presets={"architecture.overlay": _client, "churn": _churn,
                 "topology.network": _network},
        config=("repro.p2p.lookup:LookupExperimentConfig",
                "topology.size=network_size", "workload.lookups",
                "workload.interval_s=lookup_interval",
                "architecture.overlay=kademlia", "churn",
                "topology.network=network_params"),
        client_overrides=("repro.p2p.kademlia:KademliaConfig",
                          "architecture.client_overrides.*"),
    )

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.lookup import LookupExperiment

        return {"model": LookupExperiment(_lookup_config(self.knobs, spec, seed))}

    def collect(self, context, outcome) -> Dict[str, float]:
        return _float_metrics(outcome.summary())


@experiment("overlay", "kad-fast")
class FastKademliaLookups(Experiment):
    """The vectorized large-N Kademlia fast path
    (:class:`~repro.p2p.fastkad.FastKademliaOverlay`): same lookup metrics
    from array-backed state, tractable at 10^5+ nodes; ``metrics`` selects
    exact or streaming samples."""

    knobs = Knobs(
        kinds=("lookup",),
        presets={"architecture.client": _client, "churn": _churn,
                 "topology.network": _network},
        config=("repro.p2p.fastkad:FastKademliaConfig",
                "topology.size=network_size", "workload.lookups",
                "workload.wave_size", "workload.interval_s=lookup_interval",
                "workload.warmup_s=warmup", "architecture.client=kademlia",
                "churn", "topology.network=network_params"),
        client_overrides=("repro.p2p.kademlia:KademliaConfig",
                          "architecture.client_overrides.*"),
    )

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.fastkad import FastKademliaOverlay

        return {"model": FastKademliaOverlay(_lookup_config(self.knobs, spec, seed))}

    def collect(self, context, outcome) -> Dict[str, float]:
        # run() already returned the summary dict (same metric names
        # as the scalar DHT path, plus events_processed/online_fraction).
        return {key: float(value) for key, value in outcome.items()}


@experiment("overlay", "sybil", "eclipse")
class SybilAttack(Experiment):
    """The Sybil/eclipse model of :mod:`repro.p2p.sybil` instead of a plain
    lookup experiment (E3).

    ``attack: "sybil"`` spreads self-assigned identities uniformly,
    ``"eclipse"`` clusters them around a target key (a seed-derived key
    unless ``architecture["targeted_key"]`` is set);
    ``architecture["overlay"]`` is the client.
    """

    knobs = Knobs(
        kinds=("lookup",),
        presets={"architecture.overlay": _client},
        config=("repro.p2p.sybil:SybilAttackConfig",
                "topology.size=honest_nodes", "architecture.attacker_machines",
                "architecture.identities_per_machine", "architecture.targeted_key",
                "workload.lookups", "architecture.overlay=kademlia"),
    )

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.identifiers import random_id
        from repro.sim.rng import SeededRNG

        config = self.knobs.config(spec, "config", seed=seed)
        if mode_of(spec) == "eclipse" and config.targeted_key is None:
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
    :class:`~repro.p2p.chord.ChordNetwork` ring (E2).  The churn model's
    implied availability fails ``1 - availability`` of the ring before the
    lookups run, exercising successor-list repair."""

    knobs = Knobs(
        kinds=("lookup",),
        presets={"churn": _churn},
        ring=("repro.p2p.chord:ChordNetwork", "topology.size",
              "architecture.successor_list_size", "architecture.hop_latency_mean"),
        run=("repro.p2p.chord:ChordNetwork.run_lookups", "workload.lookups=count"),
        failures=("", "churn"),
    )

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.chord import ChordNetwork

        network = ChordNetwork(**self.knobs.arguments(spec, "ring", seed=seed))
        churn = self.knobs.value(spec, "churn")
        if churn is not None:
            network.fail_nodes(1.0 - churn.availability)
        return {
            "network": network,
            "run": network.run_lookups,
            "arguments": self.knobs.arguments(spec, "run"),
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
    """The full-membership :class:`~repro.p2p.onehop.OneHopOverlay` (E6)."""

    knobs = Knobs(
        kinds=("lookup",),
        presets={"churn": _churn},
        config=("repro.p2p.onehop:OneHopConfig", "topology.size",
                "architecture.dissemination_delay", "architecture.lookup_timeout",
                "churn"),
        run=("repro.p2p.onehop:OneHopOverlay.lookup_latencies",
             "workload.lookups", "architecture.hop_latency"),
    )

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.onehop import OneHopOverlay

        overlay = OneHopOverlay(self.knobs.config(spec, "config"), seed=seed)
        return {
            "overlay": overlay,
            "run": overlay.lookup_latencies,
            "arguments": self.knobs.arguments(spec, "run"),
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
    :class:`~repro.p2p.unstructured.GnutellaNetwork` (E4).  The churn
    model scales the sharing fraction by the implied mean availability, so
    flooding runs under the same churn trace as the structured substrates.
    """

    knobs = Knobs(
        kinds=("lookup",),
        presets={"churn": _churn},
        config=("repro.p2p.unstructured:GnutellaConfig", "topology.size",
                "architecture.degree", "architecture.ttl", "architecture.objects",
                "architecture.replicas_per_object", "architecture.zipf_exponent",
                "architecture.sharing_fraction", "architecture.hop_latency_mean"),
        run=("repro.p2p.unstructured:GnutellaNetwork.run_queries",
             "workload.lookups=count"),
        availability=("", "churn"),
    )

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.unstructured import GnutellaNetwork

        churn = self.knobs.value(spec, "churn")
        availability = churn.availability if churn is not None else 1.0
        config = self.knobs.config(spec, "config")
        config.sharing_fraction *= availability
        return {
            "run": GnutellaNetwork(config, seed=seed).run_queries,
            "arguments": self.knobs.arguments(spec, "run"),
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

    Churn is not modelled: the superpeer tier is by construction the
    stable layer.  Reports search cost next to how concentrated the index
    tier is.
    """

    knobs = Knobs(
        kinds=("lookup",),
        config=("repro.p2p.superpeer:SuperpeerConfig", "topology.size=leaves",
                "architecture.superpeers", "architecture.leaves_per_superpeer",
                "architecture.superpeer_neighbors", "architecture.objects",
                "architecture.replicas_per_object", "architecture.hop_latency_mean"),
        run=("repro.p2p.superpeer:SuperpeerNetwork.run_queries",
             "workload.lookups=count"),
    )

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.p2p.superpeer import SuperpeerNetwork

        network = SuperpeerNetwork(self.knobs.config(spec, "config"), seed=seed)
        return {
            "network": network,
            "run": network.run_queries,
            "arguments": self.knobs.arguments(spec, "run"),
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

    Runs the device requests under each strategy
    (:func:`~repro.edge.placement.compare_placements`) over an
    :class:`~repro.edge.topology.EdgeTopology`.  Metrics are emitted per
    strategy as ``<strategy>.<metric>`` plus the cloud-to-edge ``speedup``.
    """

    knobs = Knobs(
        kinds=("object",),
        topology=("repro.edge.topology:EdgeTopologyConfig", "topology.*"),
        run=("repro.edge.placement:compare_placements", "workload.requests"),
    )

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.edge.placement import compare_placements
        from repro.edge.topology import EdgeTopology

        topology = EdgeTopology(self.knobs.config(spec, "topology"))
        return {"run": compare_placements, "arguments": self.knobs.arguments(
            spec, "run", topology=topology, seed=seed)}

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

    Builds the islands (each one's ``seed_offset`` added to the run seed,
    so ``--seed``/replicates re-seed every island), connects each pair of
    ``connections`` and measures the overhead of the first connection.
    """

    knobs = Knobs(
        kinds=("vertical",),
        choices={"architecture.islands.domain":
                 "repro.permissioned.chaincode:VerticalWorkload.DOMAINS"},
        island=("repro.edge.islands:BlockchainIsland", "architecture.islands.*",
                "architecture.islands.seed_offset=seed"),
        federation=("", "architecture.connections"),
        relay=("repro.edge.islands:IslandFederation.connect",
               "architecture.relay_latency"),
        overhead=("repro.edge.islands:IslandFederation.interoperability_overhead",
                  "workload.rate_tps=request_rate", "duration"),
    )

    def setup(self, spec: ScenarioSpec, seed: int):
        from repro.edge.islands import BlockchainIsland, IslandFederation

        # Island seeds are offsets from the run seed (the island's position
        # unless ``seed_offset`` is set), so both a ``--seed`` override and
        # replicate fan-out re-seed every island while staying fully
        # deterministic.
        federation = IslandFederation(seed=seed)
        for index, picked in enumerate(self.knobs.each(spec, "island")):
            island = _arguments(BlockchainIsland, {"seed": ("", index + 1)}, picked)
            island["seed"] += seed
            federation.add_island(BlockchainIsland(**island))
        relay = self.knobs.arguments(spec, "relay")
        connections = [tuple(pair) for pair in
                       self.knobs.value(spec, "architecture.connections") or []]
        for source, destination in connections:
            federation.connect(source, destination, **relay)
        return {
            "federation": federation,
            "connections": connections,
            "arguments": self.knobs.arguments(spec, "overhead"),
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
