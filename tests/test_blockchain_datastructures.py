"""Tests for transactions, blocks, the block tree and mining primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.chain import BlockTree
from repro.blockchain.mining import DifficultyAdjuster, MinerSpec, MiningProcess
from repro.blockchain.primitives import Block, Transaction, block_hash
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRNG


def make_tx(index, fee=1.0, size=400):
    return Transaction(
        tx_id=f"tx-{index}", payer=f"p{index}", payee=f"q{index}", amount=1.0,
        fee=fee, size_bytes=size,
    )


class TestPrimitives:
    def test_transaction_validation(self):
        with pytest.raises(ValueError):
            Transaction("t", "a", "b", amount=-1.0)
        with pytest.raises(ValueError):
            Transaction("t", "a", "b", amount=1.0, fee=-0.1)
        with pytest.raises(ValueError):
            Transaction("t", "a", "b", amount=1.0, size_bytes=0)

    def test_genesis_block(self):
        genesis = Block.genesis()
        assert genesis.height == 0
        assert genesis.tx_count == 0

    def test_block_hash_changes_with_content(self):
        genesis = Block.genesis()
        child_a = Block.create(genesis, miner="a", timestamp=1.0)
        child_b = Block.create(genesis, miner="b", timestamp=1.0)
        assert child_a.hash != child_b.hash
        assert child_a.parent_hash == genesis.hash

    def test_block_hash_deterministic(self):
        genesis = Block.genesis()
        child = Block.create(genesis, miner="a", timestamp=2.0)
        assert child.hash == block_hash(child.header)

    def test_block_size_and_fees(self):
        genesis = Block.genesis()
        txs = [make_tx(i, fee=0.5, size=300) for i in range(4)]
        block = Block.create(genesis, miner="m", timestamp=1.0, transactions=txs)
        assert block.size_bytes == block.header_bytes + 4 * 300
        assert block.tx_count == 4


class TestBlockTree:
    def build_chain(self, length=5):
        tree = BlockTree()
        parent = tree.genesis
        for index in range(length):
            block = Block.create(parent, miner="m", timestamp=float(index + 1))
            tree.add(block)
            parent = block
        return tree

    def test_linear_chain_head(self):
        tree = self.build_chain(5)
        assert tree.head.height == 5
        assert len(tree.main_chain()) == 6
        assert tree.stats().stale_blocks == 0

    def test_unknown_parent_rejected(self):
        tree = BlockTree()
        orphan_parent = Block.create(Block.genesis(), miner="x", timestamp=1.0)
        orphan = Block.create(orphan_parent, miner="x", timestamp=2.0)
        with pytest.raises(KeyError):
            tree.add(orphan)

    def test_duplicate_add_is_noop(self):
        tree = BlockTree()
        block = Block.create(tree.genesis, miner="m", timestamp=1.0)
        assert tree.add(block) is True
        assert tree.add(block) is False

    def test_fork_resolution_longest_chain(self):
        tree = BlockTree()
        a1 = Block.create(tree.genesis, miner="a", timestamp=1.0)
        b1 = Block.create(tree.genesis, miner="b", timestamp=1.1)
        tree.add(a1)
        tree.add(b1)
        assert tree.head == a1                      # first at equal height wins
        b2 = Block.create(b1, miner="b", timestamp=2.0)
        tree.add(b2)
        assert tree.head == b2                      # longer branch takes over
        stats = tree.stats()
        assert stats.stale_blocks == 1
        assert stats.forks_observed == 1
        assert tree.max_reorg_depth >= 1

    def test_interblock_time(self):
        tree = self.build_chain(4)
        assert tree.stats().mean_interblock_time == pytest.approx(1.0)


class _DefinitionTree:
    """The definitions the tree must agree with, written independently of
    :class:`BlockTree`: full children lists for forks, whole-chain sets for
    the head switch and the reorg depth."""

    def __init__(self, genesis):
        self.genesis = genesis
        self.blocks = {genesis.hash: genesis}
        self.children = {genesis.hash: []}
        self.head = genesis
        self.forks_observed = 0
        self.max_reorg_depth = 0

    def chain(self, tip):
        """Hashes from ``tip`` back to genesis."""
        hashes = []
        while tip is not None:
            hashes.append(tip.hash)
            tip = self.blocks.get(tip.parent_hash)
        return hashes

    def add(self, block):
        if block.hash in self.blocks:
            return False
        self.blocks[block.hash] = block
        self.children[block.hash] = []
        self.children[block.parent_hash].append(block.hash)
        self.forks_observed = sum(
            1 for kids in self.children.values() if len(kids) >= 2)
        if len(self.chain(block)) <= len(self.chain(self.head)):
            return False      # not longer: the first-received head stays
        old_chain = set(self.chain(self.head))
        common = next(h for h in self.chain(block) if h in old_chain)
        abandoned = self.head.height - self.blocks[common].height
        self.max_reorg_depth = max(self.max_reorg_depth, abandoned)
        self.head = block
        return True


class TestBlockTreeMatchesDefinition:
    # Each drawn pair places one block: (extend near the newest block?, pick).
    # Near-tip parents grow long competing branches (deep reorgs once the
    # arrival order delivers a branch late); uniform parents give wide trees
    # with many height ties.
    @given(
        st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=1, max_size=40),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_trees_in_random_arrival_order(self, picks, random):
        genesis = Block.genesis()
        created = [genesis]
        for index, (near_tip, pick) in enumerate(picks):
            known = len(created)
            parent = created[known - 1 - pick % min(known, 3)] if near_tip else created[pick % known]
            created.append(Block.create(parent, miner=f"m{index}", timestamp=float(index + 1)))

        tree, reference = BlockTree(genesis), _DefinitionTree(genesis)
        waiting = created[1:]
        random.shuffle(waiting)
        while waiting:
            # The first block, in the shuffled order, whose parent has arrived.
            block = next(b for b in waiting if tree.contains(b.parent_hash))
            waiting.remove(block)
            assert tree.add(block) == reference.add(block)
            assert tree.head is reference.head
            assert tree.forks_observed == reference.forks_observed
            assert tree.max_reorg_depth == reference.max_reorg_depth

    def test_deep_reorg_counts_every_abandoned_block(self):
        tree = BlockTree()
        branch_a, branch_b = [tree.genesis], [tree.genesis]
        for height in range(1, 6):
            branch_a.append(Block.create(branch_a[-1], miner="a", timestamp=float(height)))
        for height in range(1, 8):
            branch_b.append(Block.create(branch_b[-1], miner="b", timestamp=height + 0.5))
        for block in branch_a[1:] + branch_b[1:]:
            tree.add(block)
        assert tree.head is branch_b[-1]
        assert tree.max_reorg_depth == 5             # all of branch a, at b's sixth block
        assert tree.forks_observed == 1

    def test_a_parent_with_three_children_is_one_fork(self):
        tree = BlockTree()
        reference = _DefinitionTree(tree.genesis)
        kids = [Block.create(tree.genesis, miner=m, timestamp=1.0) for m in "abc"]
        grandchild = Block.create(kids[2], miner="c", timestamp=2.0)
        for block in kids + [grandchild]:
            assert tree.add(block) == reference.add(block)
        assert tree.forks_observed == reference.forks_observed == 1
        assert tree.head is reference.head is grandchild
        assert tree.max_reorg_depth == reference.max_reorg_depth == 1
        assert tree.stats().stale_blocks == 2


class TestDifficultyAdjustment:

    def test_retarget_raises_difficulty_when_blocks_too_fast(self):
        adjuster = DifficultyAdjuster(target_interval=600.0, retarget_window=10, initial_hashrate=1.0)
        before = adjuster.difficulty
        timestamp = 0.0
        adjuster.record_block(timestamp)
        for _ in range(10):
            timestamp += 300.0           # blocks arriving twice as fast as target
            adjuster.record_block(timestamp)
        assert adjuster.difficulty == pytest.approx(before * 2.0, rel=0.01)

    def test_retarget_clamped(self):
        adjuster = DifficultyAdjuster(
            target_interval=600.0, retarget_window=5, max_adjustment_factor=4.0, initial_hashrate=1.0
        )
        before = adjuster.difficulty
        timestamp = 0.0
        adjuster.record_block(timestamp)
        for _ in range(5):
            timestamp += 1.0             # absurdly fast blocks
            adjuster.record_block(timestamp)
        assert adjuster.difficulty == pytest.approx(before * 4.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DifficultyAdjuster(target_interval=0.0)
        with pytest.raises(ValueError):
            DifficultyAdjuster(retarget_window=0)
        with pytest.raises(ValueError):
            DifficultyAdjuster(max_adjustment_factor=0.5)


class TestMiningProcess:
    def test_block_discovery_rate_matches_hashrate(self):
        sim = Simulator()
        found = []
        spec = MinerSpec(name="m", hashrate=10.0)
        process = MiningProcess(
            sim, spec, SeededRNG(1), difficulty=lambda: 600.0, on_block_found=found.append
        )
        process.start()
        sim.run(until=60_000.0)
        # Expected interval = 600/10 = 60 s -> ~1000 blocks in 60k seconds.
        assert 850 <= len(found) <= 1150

    def test_stop_prevents_further_blocks(self):
        sim = Simulator()
        found = []
        process = MiningProcess(
            sim, MinerSpec("m", 10.0), SeededRNG(2), lambda: 600.0, found.append
        )
        process.start()
        sim.run(until=600.0)
        process.stop()
        count = len(found)
        sim.run(until=6000.0)
        assert len(found) == count

    def test_zero_hashrate_never_finds(self):
        sim = Simulator()
        found = []
        process = MiningProcess(
            sim, MinerSpec("m", 0.0), SeededRNG(3), lambda: 600.0, found.append
        )
        process.start()
        sim.run(until=10_000.0)
        assert found == []
