"""Core blockchain data structures: transactions, headers, blocks.

Cryptography is modelled behaviourally: block hashes are real SHA-256 over
the header fields (so chains are tamper-evident in tests), but proof-of-work
is simulated as a Poisson process rather than by grinding nonces — the
paper's claims are about system dynamics (intervals, forks, throughput,
energy), not about hash preimages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Transaction:
    """A transfer request recorded on the ledger.

    ``payer``/``payee`` are opaque account identifiers; ``amount`` is in the
    chain's native unit; ``fee`` is offered to the miner; ``size_bytes``
    drives block capacity and propagation cost.
    """

    tx_id: str
    payer: str
    payee: str
    amount: float
    fee: float = 0.0
    size_bytes: int = 400
    created_at: float = 0.0
    payload: Optional[str] = None

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValueError("transaction amount cannot be negative")
        if self.fee < 0:
            raise ValueError("transaction fee cannot be negative")
        if self.size_bytes <= 0:
            raise ValueError("transaction size must be positive")


@dataclass(frozen=True)
class BlockHeader:
    """Header fields that are hashed to form the block identifier."""

    parent_hash: str
    miner: str
    height: int
    timestamp: float
    merkle_root: str
    difficulty: float = 1.0
    nonce: int = 0


def merkle_root(transactions: Sequence[Transaction]) -> str:
    """Deterministic digest of the transaction list (a flat hash, not a tree).

    A full Merkle tree adds nothing to the simulated behaviours; what matters
    is that the root commits to the exact transaction set and order.
    """
    digest = hashlib.sha256()
    for tx in transactions:
        digest.update(tx.tx_id.encode("utf-8"))
    return digest.hexdigest()


def block_hash(header: BlockHeader) -> str:
    """SHA-256 of the header fields (the block identifier)."""
    digest = hashlib.sha256()
    digest.update(header.parent_hash.encode("utf-8"))
    digest.update(header.miner.encode("utf-8"))
    digest.update(str(header.height).encode("utf-8"))
    digest.update(repr(header.timestamp).encode("utf-8"))
    digest.update(header.merkle_root.encode("utf-8"))
    digest.update(repr(header.difficulty).encode("utf-8"))
    digest.update(str(header.nonce).encode("utf-8"))
    return digest.hexdigest()


#: Hash of the (virtual) parent of the genesis block.
GENESIS_PARENT = "0" * 64


@dataclass
class Block:
    """A block: header plus the transactions it confirms.

    ``hash`` and the header fields the simulators read on every delivery —
    ``height`` (genesis = 0), ``parent_hash``, ``miner`` and ``timestamp``
    (the virtual time the block was found) — are plain attributes, copied
    once from the frozen header when the block is built.
    """

    header: BlockHeader
    transactions: List[Transaction] = field(default_factory=list)
    header_bytes: int = 80
    # Fluid payload attached by ``PoWNetwork.create_block`` and its
    # confirmation accounting.  Not part of the header, so never hashed.
    fluid_tx_count: float = field(default=0.0, init=False, repr=False, compare=False)
    fluid_cohorts: List[Tuple[float, float]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    fluid_bytes: int = field(default=0, init=False, repr=False, compare=False)
    fluid_conf_accounted: bool = field(default=False, init=False, repr=False, compare=False)
    fluid_final_accounted: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        header = self.header
        self.hash = block_hash(header)
        self.height = header.height
        self.parent_hash = header.parent_hash
        self.miner = header.miner
        self.timestamp = header.timestamp

    @property
    def size_bytes(self) -> int:
        """Serialized size: header plus all transactions."""
        return self.header_bytes + sum(tx.size_bytes for tx in self.transactions)

    @property
    def tx_count(self) -> int:
        """Number of transactions confirmed by this block."""
        return len(self.transactions)

    @classmethod
    def genesis(cls, timestamp: float = 0.0) -> "Block":
        """The canonical first block of a chain."""
        header = BlockHeader(
            parent_hash=GENESIS_PARENT,
            miner="genesis",
            height=0,
            timestamp=timestamp,
            merkle_root=merkle_root([]),
        )
        return cls(header=header)

    @classmethod
    def create(
        cls,
        parent: "Block",
        miner: str,
        timestamp: float,
        transactions: Optional[List[Transaction]] = None,
        difficulty: float = 1.0,
        nonce: int = 0,
    ) -> "Block":
        """Build a child block extending ``parent``."""
        transactions = transactions or []
        header = BlockHeader(
            parent_hash=parent.hash,
            miner=miner,
            height=parent.height + 1,
            timestamp=timestamp,
            merkle_root=merkle_root(transactions),
            difficulty=difficulty,
            nonce=nonce,
        )
        return cls(header=header, transactions=transactions)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Block(height={self.height}, miner={self.miner!r}, "
            f"txs={self.tx_count}, hash={self.hash[:10]}...)"
        )
