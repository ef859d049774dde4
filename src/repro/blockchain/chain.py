"""Block tree with the longest-chain rule, forks and reorganisations.

Section III-A of the paper: "Given the probabilistic nature of the process,
the blockchain may occasionally fork: the chain may be extended by distinct
blocks.  As nodes are incentivized to extend the longest fork, such
ephemeral forks quickly disappear, reaching a (delayed) consensus."

:class:`BlockTree` stores every block ever seen (main chain and stale
branches), selects the canonical head by height (ties broken by
first-received, as Bitcoin Core does), and reports the fork/stale statistics
that Experiments E8 and A1 tabulate.

Complexity invariants
---------------------
Every block records its height, so the tree never needs a materialised
genesis-to-tip list to answer a question about two blocks:

* **A head switch costs its reorg depth.**  A block that extends the head
  switches it for free; otherwise :meth:`BlockTree.add` walks the old and
  the new head back by height to their common ancestor, ``O(reorg depth)``
  — never ``O(chain length)``.
* **A fork costs a counter.**  The tree keeps how many children each parent
  has, not the children themselves: a parent's second child is a fork.

Only the whole-chain reports (:meth:`BlockTree.main_chain`,
:meth:`BlockTree.stale_blocks`, :meth:`BlockTree.stats`) are linear in the
chain, and they run once per result, not once per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.blockchain.primitives import Block


@dataclass
class ChainStats:
    """Summary statistics of a block tree."""

    total_blocks: int
    main_chain_length: int
    stale_blocks: int
    stale_rate: float
    forks_observed: int
    max_reorg_depth: int
    mean_interblock_time: float
    total_transactions: int


class BlockTree:
    """All blocks seen by a node (or by the global observer), by hash."""

    def __init__(self, genesis: Optional[Block] = None) -> None:
        self.genesis = genesis or Block.genesis()
        self.blocks: Dict[str, Block] = {self.genesis.hash: self.genesis}
        # parent hash -> number of children seen (absent = none).
        self._child_counts: Dict[str, int] = {}
        self.head: Block = self.genesis
        self.forks_observed = 0
        self.max_reorg_depth = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def contains(self, block_hash: str) -> bool:
        """Whether the block is already known."""
        return block_hash in self.blocks

    def add(self, block: Block) -> bool:
        """Add a block; returns ``True`` if it became the new head.

        Blocks whose parent is unknown are rejected (the network layer is
        responsible for delivering parents first or re-requesting them).
        """
        blocks = self.blocks
        block_hash = block.hash
        if block_hash in blocks:
            return False
        parent_hash = block.parent_hash
        if parent_hash not in blocks:
            raise KeyError(f"unknown parent {parent_hash[:12]} for block {block_hash[:12]}")
        blocks[block_hash] = block
        counts = self._child_counts
        siblings = counts.get(parent_hash, 0) + 1
        counts[parent_hash] = siblings
        if siblings == 2:
            # The parent now has a second child: a fork came into existence.
            self.forks_observed += 1
        head = self.head
        if block.height > head.height:
            if parent_hash != head.hash:
                # Extending the head abandons nothing; anything else is a reorg.
                reorg_depth = self._reorg_depth(head, block)
                self.max_reorg_depth = max(self.max_reorg_depth, reorg_depth)
            self.head = block
            return True
        return False

    def _ancestor_at(self, block: Block, height: int) -> Block:
        """The ancestor of ``block`` at ``height`` (``block`` itself if not above it)."""
        while block.height > height:
            block = self.blocks[block.parent_hash]
        return block

    def _reorg_depth(self, old_head: Block, new_head: Block) -> int:
        """Number of blocks abandoned when switching from ``old_head`` to the higher ``new_head``."""
        old = old_head
        new = self._ancestor_at(new_head, old.height)
        while old.hash != new.hash:
            old = self.blocks[old.parent_hash]
            new = self.blocks[new.parent_hash]
        return old_head.height - old.height

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def chain_hashes(self, tip: Optional[Block] = None) -> List[str]:
        """Hashes from genesis to ``tip`` (default: current head), in order."""
        tip = tip or self.head
        hashes: List[str] = []
        cursor: Optional[Block] = tip
        while cursor is not None:
            hashes.append(cursor.hash)
            parent = cursor.parent_hash
            cursor = self.blocks.get(parent)
        return list(reversed(hashes))

    def main_chain(self) -> List[Block]:
        """Blocks of the canonical chain, genesis first."""
        return [self.blocks[h] for h in self.chain_hashes()]

    def stale_blocks(self) -> List[Block]:
        """Blocks that are not on the canonical chain."""
        main = set(self.chain_hashes())
        return [block for block_hash, block in self.blocks.items() if block_hash not in main]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> ChainStats:
        """Aggregate fork/interval statistics for experiments."""
        main = self.main_chain()
        total = len(self.blocks)
        stale = total - len(main)
        intervals = [
            child.timestamp - parent.timestamp
            for parent, child in zip(main, main[1:])
        ]
        non_genesis = total - 1
        return ChainStats(
            total_blocks=total,
            main_chain_length=len(main),
            stale_blocks=stale,
            stale_rate=stale / non_genesis if non_genesis > 0 else 0.0,
            forks_observed=self.forks_observed,
            max_reorg_depth=self.max_reorg_depth,
            mean_interblock_time=(
                sum(intervals) / len(intervals) if intervals else 0.0
            ),
            total_transactions=sum(block.tx_count for block in main),
        )
