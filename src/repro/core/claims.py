"""Registry of the paper's quantitative claims (the experiment index).

Each :class:`Claim` records what the paper states, where, the value it
quotes, and which benchmark regenerates it.  ``EXPERIMENTS.md`` is the
human-readable rendering of this registry plus the measured values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class Claim:
    """One quantitative claim made (or relied upon) by the paper."""

    claim_id: str
    section: str
    statement: str
    paper_value: str
    benchmark: str
    modules: tuple


CLAIMS: List[Claim] = [
    Claim(
        "E1", "I",
        "Three CDN providers control >75% of the market; five cloud providers ~60%; "
        "the largest firm ~33% of cloud and ~40% of CDN",
        "top3 CDN > 0.75, top5 cloud ~ 0.60",
        "benchmarks/test_e01_market_concentration.py",
        ("repro.economics.market", "repro.economics.concentration"),
    ),
    Claim(
        "E2", "II-A",
        "Kad lookups complete within 5 s 90% of the time; BitTorrent Mainline DHT median "
        "lookup is around a minute",
        "Kad p90 <= 5 s; Mainline median ~60 s",
        "benchmarks/test_e02_dht_lookup_latency.py",
        ("repro.p2p.kademlia", "repro.p2p.lookup", "repro.sim.churn"),
    ),
    Claim(
        "E3", "II-B P3",
        "Open DHTs with self-assigned identifiers are prone to Sybil attacks; massive "
        "identity problems were reported in KAD and BitTorrent DHTs",
        "a few machines with many identities can intercept lookups",
        "benchmarks/test_e03_sybil_attack.py",
        ("repro.p2p.sybil",),
    ),
    Claim(
        "E4", "II-B P1",
        "Free riding dominates open P2P (Gnutella); tit-for-tat enforces contribution "
        "only during the download",
        "~70% free riders; top 1% serve ~37% of files; seeding collapses after completion",
        "benchmarks/test_e04_free_riding.py",
        ("repro.p2p.freeriding", "repro.p2p.bittorrent"),
    ),
    Claim(
        "E5", "II-B P2",
        "Churn and instability cause performance and reliability problems in open overlays",
        "lookup latency/failures rise with churn; stable membership is flat",
        "benchmarks/test_e05_churn_performance.py",
        ("repro.p2p.lookup", "repro.sim.churn"),
    ),
    Claim(
        "E6", "II-B",
        "For 10K-100K nodes, one-hop overlays with full membership are feasible and "
        "preferable when the network is stable",
        "O(1) routing at modest maintenance bandwidth for corporate churn",
        "benchmarks/test_e06_one_hop_overlays.py",
        ("repro.p2p.onehop",),
    ),
    Claim(
        "E7", "III-C P2",
        "VISA processes 24,000 tps; Bitcoin 3.3-7 tps; Ethereum ~15 tps",
        "three-orders-of-magnitude throughput gap",
        "benchmarks/test_e07_throughput_comparison.py",
        ("repro.blockchain.network", "repro.blockchain.throughput"),
    ),
    Claim(
        "E8", "III-A",
        "Difficulty retargeting keeps the inter-block time at ~10 minutes; ephemeral forks "
        "resolve to the longest chain",
        "mean interval converges to 600 s; stale rate ~1% at Bitcoin parameters",
        "benchmarks/test_e08_mining_difficulty.py",
        ("repro.blockchain.mining", "repro.blockchain.chain", "repro.blockchain.network"),
    ),
    Claim(
        "E9", "III-C P1",
        "In 2013 six mining pools controlled 75% of hash power; desktop mining is hopeless",
        "top-6 pools >= 75%; CPU miner expected time per block ~centuries",
        "benchmarks/test_e09_mining_pools.py",
        ("repro.blockchain.pools", "repro.economics.incentives"),
    ),
    Claim(
        "E10", "III-C P1",
        "A minority colluding pool can obtain more revenue than its fair share (selfish mining)",
        "relative revenue > alpha above the Eyal-Sirer threshold",
        "benchmarks/test_e10_selfish_mining.py",
        ("repro.blockchain.selfish",),
    ),
    Claim(
        "E11", "III-B",
        "Bitcoin energy consumption peaked at ~70 TWh/year (roughly Austria)",
        "tens of TWh/year from 2018 parameters; ~10 orders of magnitude above a cloud tx",
        "benchmarks/test_e11_energy.py",
        ("repro.blockchain.energy",),
    ),
    Claim(
        "E12", "III-C P2",
        "The scalability trilemma: only two of scalability, decentralization, security",
        "no design scores high on all three axes",
        "benchmarks/test_e12_trilemma.py",
        ("repro.blockchain.trilemma",),
    ),
    Claim(
        "E13", "III-A",
        "Rewriting history requires a majority of hash power; Sybil identities are useless "
        "against proof-of-work",
        "success probability falls geometrically with confirmations for q<0.5",
        "benchmarks/test_e13_double_spend.py",
        ("repro.blockchain.attacks",),
    ),
    Claim(
        "E14", "III-C P2",
        "Proof-of-X alternatives do not straightforwardly fix the cost/security problem "
        "(nothing at stake)",
        "naive PoS attack cost orders of magnitude below PoW; forks persist without slashing",
        "benchmarks/test_e14_proof_of_stake.py",
        ("repro.blockchain.proof_of_stake",),
    ),
    Claim(
        "E15", "IV",
        "Permissioned/BFT blockchains avoid PoW and deliver far higher performance among "
        "known members; consensus can involve a subset (channels)",
        "thousands of tps at sub-second latency vs <20 tps and minutes-to-hours finality",
        "benchmarks/test_e15_permissioned_throughput.py",
        ("repro.consensus", "repro.permissioned"),
    ),
    Claim(
        "E16", "V / Fig. 1",
        "Edge-centric computing plus permissioned blockchains keeps control and data at the "
        "edge with decentralized trust, serving latency-sensitive workloads better than a "
        "centralized cloud",
        "several-fold lower latency at the edge; trust Nakamoto coefficient > 1",
        "benchmarks/test_e16_edge_vs_cloud.py",
        ("repro.edge", "repro.permissioned", "repro.scenarios.study"),
    ),
]
