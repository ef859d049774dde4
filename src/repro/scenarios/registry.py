"""The named-scenario registry.

Each entry is a :class:`~repro.scenarios.spec.ScenarioSpec` parametrized
exactly like the experiment it regenerates (same component configs, same
seeds), so the refactored ``benchmarks/test_e*`` suites reproduce their
pre-framework numbers bit-for-bit through the framework.  ``repro.run
--list`` prints this registry; adding a scenario is one ``register`` call.
"""

from __future__ import annotations

from typing import Dict, List

from repro.scenarios.spec import ScenarioSpec

SCENARIOS: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a spec to the registry; names must be unique."""
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} already registered")
    SCENARIOS[spec.name] = spec
    return spec


def scenario_names() -> List[str]:
    """All registered scenario names, in registration order."""
    return list(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    """An independent copy of a registered spec."""
    try:
        return SCENARIOS[name].copy()
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None


# ----------------------------------------------------------------------
# Permissionless blockchains (PoW and PoS)
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="pow-baseline",
    family="permissionless",
    description="Bitcoin-parameter PoW network at saturating offered load",
    claim="E7",
    architecture={"consensus": "pow", "protocol": "bitcoin",
                  "miner_count": 10, "duration_blocks": 80},
    workload={"kind": "payment", "rate_tps": 12.0},
    seed=1,
))

register(ScenarioSpec(
    name="pow-ethereum",
    family="permissionless",
    description="Ethereum-parameter PoW network (13 s blocks, ~15 tps capacity)",
    claim="E7",
    architecture={"consensus": "pow", "protocol": "ethereum",
                  "miner_count": 10, "duration_blocks": 320},
    workload={"kind": "payment", "rate_tps": 40.0},
    seed=1,
))

register(ScenarioSpec(
    name="pow-fork-dynamics",
    family="permissionless",
    description="Bitcoin-parameter network observed for stale/reorg behaviour",
    claim="E8",
    architecture={"consensus": "pow", "protocol": "bitcoin",
                  "miner_count": 12, "duration_blocks": 120},
    workload={"kind": "payment", "rate_tps": 5.0},
    seed=2,
))

register(ScenarioSpec(
    name="miner-propagation",
    family="permissionless",
    description="Miner count vs block propagation delay: gossip cost of a growing PoW network",
    claim="E8",
    architecture={"consensus": "pow", "protocol": "bitcoin",
                  "miner_count": 8, "duration_blocks": 60},
    workload={"kind": "payment", "rate_tps": 5.0},
    seed=2,
    sweeps={"architecture.miner_count": [5, 10, 20, 30]},
))

register(ScenarioSpec(
    name="pos-nothing-at-stake",
    family="permissionless",
    description="Naive chain-based PoS: rational validators vote on every fork",
    claim="E14",
    architecture={"consensus": "pos", "slashing": False,
                  "multi_vote_fraction": 0.9, "rounds": 3000},
    seed=1,
))

register(ScenarioSpec(
    name="pos-slashing",
    family="permissionless",
    description="Chain-based PoS with slashing: equivocation burns the bond",
    claim="E14",
    architecture={"consensus": "pos", "slashing": True, "rounds": 3000},
    seed=1,
))

# ----------------------------------------------------------------------
# BFT/CFT consensus clusters
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="pbft-consortium",
    family="consensus",
    description="Four-replica PBFT cluster at consortium request rates",
    claim="E15",
    architecture={"protocol": "pbft", "replicas": 4, "batch_size": 100},
    workload={"kind": "payment", "rate_tps": 3000.0},
    duration=5.0,
    seed=1,
))

register(ScenarioSpec(
    name="raft-ordering",
    family="consensus",
    description="Five-node Raft ordering service under a Poisson client stream",
    claim="E15",
    architecture={"protocol": "raft", "replicas": 5, "batch_size": 200},
    workload={"kind": "payment", "rate_tps": 4000.0},
    duration=5.0,
    seed=1,
))

register(ScenarioSpec(
    name="bft-committee-sweep",
    family="consensus",
    description="PBFT committee-size sweep: why consortia stay small (ablation A2)",
    claim="E15",
    architecture={"protocol": "pbft", "replicas": 4, "batch_size": 100},
    workload={"kind": "payment", "rate_tps": 4000.0},
    duration=3.0,
    seed=1,
    sweeps={"architecture.replicas": [4, 7, 13, 19, 25]},
))

# ----------------------------------------------------------------------
# Permissioned ledgers
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="fabric-consortium",
    family="permissioned",
    description="Fabric-like consortium (4 orgs x 2 peers) running asset transfers",
    claim="E15",
    architecture={"organizations": 4, "peers_per_org": 2,
                  "chaincode": "asset-transfer", "key_space": 20_000},
    workload={"kind": "payment", "rate_tps": 1500.0},
    duration=5.0,
    seed=1,
))

register(ScenarioSpec(
    name="fabric-supply-chain",
    family="permissioned",
    description="Provenance chaincode driven by the supply-chain vertical workload",
    claim="E16",
    architecture={"organizations": 5, "peers_per_org": 2,
                  "chaincode": "provenance", "key_space": 2000},
    workload={"kind": "vertical", "domain": "supply-chain",
              "rate_tps": 400.0, "entities": 2000},
    duration=4.0,
    seed=2,
))

# ----------------------------------------------------------------------
# Open-ecosystem economics (market/pool concentration)
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="market-concentration",
    family="permissionless",
    description="Preferential-attachment provider market: why open markets concentrate",
    claim="E1",
    architecture={"consensus": "market", "providers": 20, "steps": 250,
                  "arrivals_per_step": 200},
    seed=1,
    sweeps={"architecture.preferential_exponent": [0.0, 0.6, 1.2]},
))

register(ScenarioSpec(
    name="mining-pools",
    family="permissionless",
    description="Hash-power pool formation: a handful of pools end up controlling 75%",
    claim="E9",
    architecture={"consensus": "pools", "miners": 1200, "rounds": 120,
                  "size_preference_exponent": 1.12, "exploration_rate": 0.12,
                  "solo_threshold_share": 0.03},
    seed=3,
))

# ----------------------------------------------------------------------
# Attack harnesses (incentive and identity attacks on open systems)
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="selfish-mining",
    family="permissionless",
    description="Eyal-Sirer selfish mining: a minority pool earns more than its fair share",
    claim="E10",
    architecture={"attack": "selfish", "alpha": 1.0 / 3.0, "gamma": 0.0,
                  "blocks": 80_000},
    seed=1,
    sweeps={"architecture.alpha": [0.25, 0.3, 0.35, 0.4, 0.45]},
))

register(ScenarioSpec(
    name="double-spend",
    family="permissionless",
    description="Nakamoto/Rosenfeld double-spend catch-up: success probability vs confirmations",
    claim="E13",
    architecture={"attack": "double-spend", "attacker_share": 0.3,
                  "max_risk": 0.001},
    seed=1,
    sweeps={"architecture.confirmations": [0, 1, 2, 4, 6, 8]},
))

register(ScenarioSpec(
    name="sybil-attack",
    family="overlay",
    description="Sybil/eclipse attack on an open Kademlia overlay: a few machines, many identities",
    claim="E3",
    architecture={"attack": "sybil", "overlay": "kad",
                  "attacker_machines": 4, "identities_per_machine": 50},
    topology={"size": 200},
    workload={"kind": "lookup", "lookups": 60},
    seed=1,
    variants={
        "spread (uniform ids)": {},
        "eclipse (targeted key)": {
            "architecture.attack": "eclipse",
            "architecture.attacker_machines": 2,
            "architecture.identities_per_machine": 16,
            "workload.lookups": 40,
        },
    },
))

# ----------------------------------------------------------------------
# Open P2P overlays
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="kad-lookup",
    family="overlay",
    description="eMule-KAD-like client under measurement-calibrated churn",
    claim="E2",
    architecture={"overlay": "kad"},
    topology={"size": 400},
    churn="kad",
    workload={"kind": "lookup", "lookups": 120},
    seed=3,
))

register(ScenarioSpec(
    name="mainline-lookup",
    family="overlay",
    description="BitTorrent-Mainline-like client: stale tables, long timeouts",
    claim="E2",
    architecture={"overlay": "mainline"},
    topology={"size": 400},
    churn="bittorrent",
    workload={"kind": "lookup", "lookups": 120},
    seed=3,
))

register(ScenarioSpec(
    name="churn-ladder",
    family="overlay",
    description="Same client, rising churn: stable membership has no rival",
    claim="E5",
    architecture={"overlay": "kad"},
    topology={"size": 300},
    churn="kad",
    workload={"kind": "lookup", "lookups": 80},
    seed=4,
    variants={
        "stable (cloud-like)": {
            "churn": None,
            "architecture.client_overrides": {"initial_stale_fraction": 0.0},
        },
        "moderate churn": {"churn": "kad"},
        "heavy churn": {"churn": "bittorrent"},
        "extreme churn": {"churn": "aggressive"},
    },
))

register(ScenarioSpec(
    name="churn-model-ablation",
    family="overlay",
    description="Churn-distribution sensitivity: Weibull vs exponential vs Pareto (ablation A4)",
    claim="E5",
    architecture={"overlay": "kad"},
    topology={"size": 300},
    churn="kad",
    workload={"kind": "lookup", "lookups": 70},
    seed=5,
    sweeps={"architecture.overlay": ["kad", "mainline"]},
    variants={
        "weibull (heavy tail)": {
            "churn": {"session_distribution": "weibull", "mean_session": 3600.0,
                      "mean_downtime": 3600.0, "weibull_shape": 0.5},
        },
        "exponential": {
            "churn": {"session_distribution": "exponential", "mean_session": 3600.0,
                      "mean_downtime": 3600.0},
        },
        "pareto": {
            "churn": {"session_distribution": "pareto", "mean_session": 3600.0,
                      "mean_downtime": 3600.0},
        },
    },
))

register(ScenarioSpec(
    name="onehop-lookup",
    family="overlay",
    description="One-hop (full membership) overlay: O(1) lookups for stable 10K-100K networks",
    claim="E6",
    architecture={"overlay": "onehop"},
    topology={"size": 50_000},
    churn="stable",
    workload={"kind": "lookup", "lookups": 300},
    seed=3,
))

register(ScenarioSpec(
    name="overlay-scaling",
    family="overlay",
    description="Network-size scaling law: lookup hops grow O(log n) with overlay size",
    claim="E2",
    architecture={"overlay": "kad"},
    topology={"size": 100, "network": "wan"},
    workload={"kind": "lookup", "lookups": 60},
    seed=7,
    sweeps={"topology.size": [100, 200, 400, 800]},
))

register(ScenarioSpec(
    name="overlay-scaling-large",
    family="overlay",
    description=(
        "Large-N scaling law on the vectorized Kademlia fast path: lookup "
        "latency/hops across 10^3-10^4+ node overlays under churn"
    ),
    claim="E2",
    architecture={"overlay": "kad-fast", "client": "kad"},
    topology={"size": 1000, "network": "wan"},
    churn="kad",
    workload={"kind": "lookup", "lookups": 400, "interval_s": 0.05,
              "wave_size": 256, "warmup_s": 300.0},
    seed=7,
    sweeps={"topology.size": [1000, 2000, 5000, 10_000, 20_000]},
))

register(ScenarioSpec(
    name="kademlia-churn-100k",
    family="overlay",
    description=(
        "10^5-node Kademlia overlay under heavy-tailed churn on the "
        "vectorized fast path with O(1)-memory streaming metrics — the "
        "scale proof for ROADMAP item 2"
    ),
    claim="E2",
    architecture={"overlay": "kad-fast", "client": "kad"},
    topology={"size": 100_000, "network": "wan"},
    churn="kad",
    workload={"kind": "lookup", "lookups": 10_000, "interval_s": 0.05,
              "wave_size": 1024, "warmup_s": 600.0},
    metrics="streaming",
    seed=7,
))

register(ScenarioSpec(
    name="chord-lookup",
    family="overlay",
    description="Chord finger-table routing under churn: O(log n) hops, successor-list repair",
    claim="E2",
    architecture={"overlay": "chord", "successor_list_size": 8},
    topology={"size": 400},
    churn="kad",
    workload={"kind": "lookup", "lookups": 120},
    seed=3,
))

register(ScenarioSpec(
    name="gnutella-search",
    family="overlay",
    description="Gnutella-style TTL-limited flooding: recall vs message cost",
    claim="E4",
    architecture={"overlay": "gnutella", "degree": 4, "ttl": 4},
    topology={"size": 1000},
    workload={"kind": "lookup", "lookups": 200},
    seed=3,
))

register(ScenarioSpec(
    name="superpeer-search",
    family="overlay",
    description="Superpeer (Kazaa/eDonkey-style) two-tier search: cheap queries, re-centralized index",
    architecture={"overlay": "superpeer", "superpeers": 40,
                  "leaves_per_superpeer": 100},
    topology={"size": 2000},
    workload={"kind": "lookup", "lookups": 300},
    seed=3,
))

# ----------------------------------------------------------------------
# Edge-centric computing
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="edge-placement",
    family="edge",
    description="Cloud-only vs regional vs edge-centric placement (Figure 1, measured)",
    claim="E16",
    architecture={"mode": "placement"},
    workload={"kind": "object", "requests": 1500},
    seed=5,
))

register(ScenarioSpec(
    name="edge-federation",
    family="edge",
    description="Two vertical blockchain islands and their interoperability overhead",
    claim="E16",
    architecture={
        "mode": "federation",
        "islands": [
            {"name": "trade", "domain": "supply-chain", "seed_offset": 1},
            {"name": "health", "domain": "healthcare", "seed_offset": 2},
        ],
        "connections": [["trade", "health"]],
        "relay_latency": 0.05,
    },
    workload={"kind": "vertical", "rate_tps": 150.0},
    duration=3.0,
    seed=6,
))
