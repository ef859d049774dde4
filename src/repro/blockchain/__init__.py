"""Permissionless blockchain simulator and analytical models (Section III).

The subpackage implements everything the paper's Bitcoin/Ethereum discussion
relies on:

* data structures — transactions, blocks, the block tree with the
  longest-chain rule (:mod:`~repro.blockchain.primitives`,
  :mod:`~repro.blockchain.chain`);
* the proof-of-work network — Poisson mining, difficulty retargeting,
  gossip block propagation, forks and stale blocks, transaction throughput
  and confirmation latency (:mod:`~repro.blockchain.mining`,
  :mod:`~repro.blockchain.network`, :mod:`~repro.blockchain.throughput`);
* the economics and attacks the paper cites — mining pools and hash-power
  concentration, selfish mining (Eyal–Sirer), double-spend/51% analysis,
  energy consumption, proof-of-stake and nothing-at-stake, and Buterin's
  scalability trilemma (:mod:`~repro.blockchain.pools`,
  :mod:`~repro.blockchain.selfish`, :mod:`~repro.blockchain.attacks`,
  :mod:`~repro.blockchain.energy`, :mod:`~repro.blockchain.proof_of_stake`,
  :mod:`~repro.blockchain.trilemma`).
"""

from repro.blockchain.primitives import Block, BlockHeader, Transaction, block_hash
from repro.blockchain.chain import BlockTree, ChainStats
from repro.blockchain.mining import DifficultyAdjuster, MiningProcess, MinerSpec
from repro.blockchain.network import (
    BITCOIN_PROTOCOL,
    ETHEREUM_PROTOCOL,
    PoWNetwork,
    PoWNetworkConfig,
    PoWNetworkResult,
    ProtocolParams,
)
from repro.blockchain.throughput import (
    REFERENCE_SYSTEMS,
    ThroughputModel,
)
from repro.blockchain.pools import PoolFormationConfig, PoolFormationModel, PoolSnapshot
from repro.blockchain.selfish import (
    SelfishMiningResult,
    selfish_mining_revenue,
    simulate_selfish_mining,
)
from repro.blockchain.attacks import (
    attacker_success_probability,
    confirmations_for_risk,
    sybil_resistance_table,
)
from repro.blockchain.energy import EnergyModel, EnergyParams, HARDWARE_GENERATIONS
from repro.blockchain.proof_of_stake import (
    NothingAtStakeModel,
    ProofOfStakeParams,
    attack_cost_comparison,
)
from repro.blockchain.trilemma import TrilemmaDesign, TrilemmaScore, evaluate_designs

__all__ = [
    "Block",
    "BlockHeader",
    "Transaction",
    "block_hash",
    "BlockTree",
    "ChainStats",
    "DifficultyAdjuster",
    "MiningProcess",
    "MinerSpec",
    "BITCOIN_PROTOCOL",
    "ETHEREUM_PROTOCOL",
    "PoWNetwork",
    "PoWNetworkConfig",
    "PoWNetworkResult",
    "ProtocolParams",
    "REFERENCE_SYSTEMS",
    "ThroughputModel",
    "PoolFormationConfig",
    "PoolFormationModel",
    "PoolSnapshot",
    "SelfishMiningResult",
    "selfish_mining_revenue",
    "simulate_selfish_mining",
    "attacker_success_probability",
    "confirmations_for_risk",
    "sybil_resistance_table",
    "EnergyModel",
    "EnergyParams",
    "HARDWARE_GENERATIONS",
    "NothingAtStakeModel",
    "ProofOfStakeParams",
    "attack_cost_comparison",
    "TrilemmaDesign",
    "TrilemmaScore",
    "evaluate_designs",
]
