"""World state, read/write sets and MVCC validation.

Fabric's execute–order–validate pipeline executes chaincode *before*
ordering, producing a read set (keys and the versions read) and a write set.
At commit time each transaction is validated: if any key it read has been
written by an earlier transaction in the meantime, the transaction is marked
invalid (an MVCC conflict) and its writes are discarded.  This is the source
of the contention behaviour measured in the Fabric experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple


class ValidationCode(Enum):
    """Outcome of commit-time validation for one transaction."""

    VALID = "valid"
    MVCC_CONFLICT = "mvcc_conflict"
    ENDORSEMENT_FAILURE = "endorsement_failure"


@dataclass
class ReadWriteSet:
    """Keys read (with the version observed) and keys written by an execution."""

    reads: Dict[str, int] = field(default_factory=dict)
    writes: Dict[str, object] = field(default_factory=dict)


class WorldState:
    """Versioned key-value store: every write bumps the key's version."""

    def __init__(self) -> None:
        self._values: Dict[str, object] = {}
        self._versions: Dict[str, int] = {}

    def get(self, key: str) -> Tuple[Optional[object], int]:
        """Return (value, version); missing keys have version 0 and value None."""
        return self._values.get(key), self._versions.get(key, 0)

    def put(self, key: str, value: object) -> int:
        """Write a value, returning the new version."""
        version = self._versions.get(key, 0) + 1
        self._values[key] = value
        self._versions[key] = version
        return version

    def version(self, key: str) -> int:
        """Current version of a key (0 if never written)."""
        return self._versions.get(key, 0)

    def keys(self) -> List[str]:
        """All keys ever written."""
        return list(self._values.keys())

    def snapshot(self) -> Dict[str, object]:
        """Copy of the current values (for tests and examples)."""
        return dict(self._values)


@dataclass
class CommittedTransaction:
    """Record of a transaction after commit-time validation."""

    tx_id: str
    code: ValidationCode
    block_height: int


class Ledger:
    """Block store plus world state with MVCC validation at commit."""

    def __init__(self, channel: str = "default") -> None:
        self.channel = channel
        self.world_state = WorldState()
        self.blocks: List[List[str]] = []           # tx ids per block
        self.history: List[CommittedTransaction] = []
        self.valid_count = 0
        self.invalid_count = 0

    @property
    def height(self) -> int:
        """Number of committed blocks."""
        return len(self.blocks)

    def validate_and_commit(
        self, transactions: List[Tuple[str, ReadWriteSet, bool]]
    ) -> List[CommittedTransaction]:
        """Commit one ordered block of (tx_id, rwset, endorsed) tuples.

        Validation is serial within the block, as in Fabric: a transaction's
        reads are checked against the world state *including* writes applied
        by earlier valid transactions of the same block.
        """
        block_height = self.height
        outcomes: List[CommittedTransaction] = []
        tx_ids: List[str] = []
        for tx_id, rwset, endorsed in transactions:
            tx_ids.append(tx_id)
            if not endorsed:
                outcome = CommittedTransaction(tx_id, ValidationCode.ENDORSEMENT_FAILURE, block_height)
            elif self._has_conflict(rwset):
                outcome = CommittedTransaction(tx_id, ValidationCode.MVCC_CONFLICT, block_height)
            else:
                for key, value in rwset.writes.items():
                    self.world_state.put(key, value)
                outcome = CommittedTransaction(tx_id, ValidationCode.VALID, block_height)
            if outcome.code is ValidationCode.VALID:
                self.valid_count += 1
            else:
                self.invalid_count += 1
            outcomes.append(outcome)
            self.history.append(outcome)
        self.blocks.append(tx_ids)
        return outcomes

    def _has_conflict(self, rwset: ReadWriteSet) -> bool:
        for key, version_read in rwset.reads.items():
            if self.world_state.version(key) != version_read:
                return True
        return False

    def validity_rate(self) -> float:
        """Fraction of committed transactions that were valid."""
        total = self.valid_count + self.invalid_count
        return self.valid_count / total if total else 1.0
