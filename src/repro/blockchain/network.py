"""Event-driven proof-of-work blockchain network simulator.

This is the system behind the paper's performance numbers ("Bitcoin can
process between 3.3 and 7 transactions per second, and Ethereum around 15
per second"), the 10-minute-interval claim, and the fork/stale behaviour of
Section III-A.  Miners (think of them as pools — a handful of entities with
most of the hash power, as the paper notes) mine blocks as Poisson processes
on top of their local view, broadcast them over a latency/bandwidth network,
and follow the longest-chain rule.

Transactions are modelled as a fluid backlog (a queue of arrival cohorts)
rather than as per-transaction objects: each block confirms up to its
capacity in transactions, drawn FIFO from the backlog, which yields both
throughput and confirmation-latency distributions without creating millions
of Python objects.

Complexity invariants
---------------------
A run costs ``O(blocks x miners)``: the only engine events are a block being
found and, per other miner, its delivery and its acceptance once validated.

* **A head switch costs its reorg depth** (see :mod:`repro.blockchain.chain`),
  in every miner's tree and in the global observer's.
* **A new head costs the finality window.**  Confirmation accounting walks
  back from the head only to the first block already accounted as final;
  every ancestor of such a block is final too.
* **The backlog is a function of time, not an event, and O(1) state.**
  Arrival cohorts are materialised when a block draws on the backlog and
  once when the run ends, by the same ``t += interval`` recurrence a
  periodic timer would follow.  Every cohort behind the head holds the
  same count and its tick is the next step of that recurrence, so the
  backlog is kept as the head cohort's tick and remaining count plus the
  number of cohorts pending, however long it grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.blockchain.chain import BlockTree, ChainStats
from repro.blockchain.mining import DifficultyAdjuster, MinerSpec, MiningProcess
from repro.blockchain.primitives import Block
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRegistry, Sample
from repro.sim.network import Network, NetworkParams
from repro.sim.node import Node
from repro.sim.rng import SeededRNG


@dataclass
class ProtocolParams:
    """Protocol constants of a permissionless blockchain."""

    name: str
    target_block_interval: float          # seconds
    max_block_bytes: int                  # block capacity
    avg_tx_bytes: int                     # average transaction size
    retarget_window: int = 2016           # blocks between difficulty adjustments
    coinbase_reward: float = 12.5
    confirmations_for_finality: int = 6

    @property
    def max_txs_per_block(self) -> int:
        """Transaction capacity of one full block."""
        return max(1, self.max_block_bytes // self.avg_tx_bytes)

    @property
    def capacity_tps(self) -> float:
        """Theoretical throughput ceiling in transactions per second."""
        return self.max_txs_per_block / self.target_block_interval


#: Bitcoin-like constants: 1 MB blocks every 10 minutes, ~400-byte transactions.
BITCOIN_PROTOCOL = ProtocolParams(
    name="bitcoin",
    target_block_interval=600.0,
    max_block_bytes=1_000_000,
    avg_tx_bytes=400,
    retarget_window=2016,
    coinbase_reward=12.5,
    confirmations_for_finality=6,
)

#: Ethereum-like constants: ~13-second blocks whose gas limit admits roughly
#: 200 plain transfers, i.e. ≈15 tps of capacity.
ETHEREUM_PROTOCOL = ProtocolParams(
    name="ethereum",
    target_block_interval=13.0,
    max_block_bytes=50_000,
    avg_tx_bytes=250,
    retarget_window=100,
    coinbase_reward=2.0,
    confirmations_for_finality=12,
)


#: Named protocol presets (a scenario spec's ``architecture.protocol``).
PROTOCOLS: Dict[str, ProtocolParams] = {
    "bitcoin": BITCOIN_PROTOCOL,
    "ethereum": ETHEREUM_PROTOCOL,
}


@dataclass
class PoWNetworkConfig:
    """Configuration of one proof-of-work network run."""

    protocol: ProtocolParams = field(default_factory=lambda: BITCOIN_PROTOCOL)
    miners: Optional[List[MinerSpec]] = None
    miner_count: int = 12
    hashrate_skew: float = 1.2           # Pareto shape of hashrate distribution
    total_hashrate: float = 1e6          # arbitrary consistent units
    tx_arrival_rate: float = 10.0        # offered load, transactions per second
    validation_seconds_per_mb: float = 2.0
    network_params: Optional[NetworkParams] = None
    duration_blocks: int = 200           # stop after this many main-chain blocks
    seed: int = 0

    def build_miners(self, rng: SeededRNG) -> List[MinerSpec]:
        """Miner list: either the explicit one or a Pareto-skewed population."""
        if self.miners is not None:
            return list(self.miners)
        raw = [rng.pareto(self.hashrate_skew, 1.0) for _ in range(self.miner_count)]
        scale = self.total_hashrate / sum(raw)
        return [
            MinerSpec(name=f"miner-{index}", hashrate=value * scale)
            for index, value in enumerate(raw)
        ]


@dataclass
class PoWNetworkResult:
    """Measured outcome of one network run."""

    protocol: str
    duration: float
    chain: ChainStats
    throughput_tps: float
    offered_load_tps: float
    capacity_tps: float
    mean_confirmation_latency: float
    p90_confirmation_latency: float
    mean_finality_latency: float
    stale_rate: float
    mean_block_interval: float
    blocks_by_miner: Dict[str, int]
    backlog_transactions: float
    mean_propagation_delay: float


class _MinerNode(Node):
    """A mining node: local block tree plus a mining process."""

    def __init__(
        self,
        spec: MinerSpec,
        sim: Simulator,
        network: Network,
        powsim: "PoWNetwork",
    ) -> None:
        super().__init__(spec.name, sim, network, region=spec.region)
        self.spec = spec
        self.powsim = powsim
        self.tree = BlockTree(powsim.genesis)
        self._propagation = powsim.metrics.sample("propagation_delay")
        # Blocks waiting for an unknown parent, by parent hash, in arrival order.
        self.orphans: Dict[str, List[Block]] = {}

    # -- message handling ------------------------------------------------
    def on_block(self, message) -> None:
        block: Block = message.payload
        self._propagation.observe(message.latency)
        validation = self.powsim.config.validation_seconds_per_mb * (
            block.size_bytes / 1_000_000.0
        )
        self.sim.schedule(validation, self._accept_block, block)

    def _accept_block(self, block: Block) -> None:
        blocks = self.tree.blocks
        if block.hash in blocks:
            return
        if block.parent_hash not in blocks:
            self.orphans.setdefault(block.parent_hash, []).append(block)
            return
        self.tree.add(block)
        if self.orphans:
            self._attach_orphans(block)

    def _attach_orphans(self, parent: Block) -> None:
        """Add every waiting descendant of ``parent``, siblings in arrival order."""
        attached = [parent]
        for block in attached:
            for child in self.orphans.pop(block.hash, ()):
                if not self.tree.contains(child.hash):
                    self.tree.add(child)
                    attached.append(child)

    # -- mining ----------------------------------------------------------
    def mine_block(self) -> Block:
        """Create a block extending this miner's current head."""
        return self.powsim.create_block(self.spec, self.tree.head)


class PoWNetwork:
    """Builds and runs the proof-of-work network."""

    def __init__(self, config: Optional[PoWNetworkConfig] = None) -> None:
        self.config = config or PoWNetworkConfig()
        self.rng = SeededRNG(self.config.seed)
        self.sim = Simulator()
        params = self.config.network_params or NetworkParams(
            base_latency=0.1,
            inter_region_latency=0.25,
            bandwidth_bps=10_000_000.0,
            latency_jitter=0.3,
        )
        self.network = Network(self.sim, params, rng=self.rng.fork("net"))
        self.metrics = MetricsRegistry()
        self.genesis = Block.genesis()
        self.global_tree = BlockTree(self.genesis)

        protocol = self.config.protocol
        self.miner_specs = self.config.build_miners(self.rng)
        total_hashrate = sum(spec.hashrate for spec in self.miner_specs)
        self.difficulty = DifficultyAdjuster(
            target_interval=protocol.target_block_interval,
            retarget_window=protocol.retarget_window,
            initial_hashrate=total_hashrate,
        )
        self.nodes: Dict[str, _MinerNode] = {}
        self.mining: Dict[str, MiningProcess] = {}
        for spec in self.miner_specs:
            node = _MinerNode(spec, self.sim, self.network, self)
            self.nodes[spec.name] = node
            self.mining[spec.name] = MiningProcess(
                self.sim,
                spec,
                self.rng.fork(f"mine:{spec.name}"),
                lambda: self.difficulty.difficulty,
                self._on_block_found,
            )

        # Fluid transaction backlog: FIFO cohorts of (arrival time, remaining
        # count), one per arrival interval from the start of the run on.  Only
        # the head cohort is stored: the ``_pending - 1`` behind it each hold
        # a full interval's arrivals at the recurrence's next ticks.
        self._head_tick = 0.0
        self._head_remaining = 0.0
        self._pending = 0
        self.backlog_total = 0.0
        self._arrival_interval = max(1.0, protocol.target_block_interval / 10.0)
        self._next_arrival: Optional[float] = None   # set when the run starts
        self.confirmation_latencies = Sample("confirmation_latency")
        self.finality_latencies = Sample("finality_latency")
        self._confirmed_transactions = 0.0
        self._main_chain_blocks = 0
        self._started = False
        self._finished_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Transaction workload (fluid)
    # ------------------------------------------------------------------
    def _materialise_arrivals(self) -> None:
        """Count the cohorts that have arrived by ``sim.now``, one per interval.

        Arrival times advance by repeated addition, as a periodic timer's
        would: they feed the latency sums, which the goldens pin bit for bit.
        """
        tick = self._next_arrival
        if tick is None:
            return
        now = self.sim.now
        interval = self._arrival_interval
        arrivals = self.config.tx_arrival_rate * interval
        pending = self._pending
        if not pending:
            self._head_tick = tick
            self._head_remaining = arrivals
        total = self.backlog_total
        while tick <= now:
            if arrivals > 0:
                pending += 1
                total += arrivals
            tick = tick + interval
        self._pending = pending
        self.backlog_total = total
        self._next_arrival = tick

    def _take_transactions(self, count: int) -> Tuple[float, List[Tuple[float, float]]]:
        """Draw up to ``count`` transactions FIFO from the backlog.

        Returns the number actually taken and the (arrival time, count)
        cohorts consumed, so confirmation latency can be recorded when the
        containing block is buried deep enough.  A cohort is used up once at
        most ``1e-9`` of it remains, and that remainder leaves the backlog
        with it; the next one's tick is the recurrence's next step and its
        count a full interval's arrivals.
        """
        self._materialise_arrivals()
        taken = 0.0
        retired = 0.0
        cohorts: List[Tuple[float, float]] = []
        pending = self._pending
        interval = self._arrival_interval
        arrivals = self.config.tx_arrival_rate * interval
        tick = self._head_tick
        remaining = self._head_remaining
        while pending and taken < count:
            need = count - taken
            used = min(remaining, need)
            cohorts.append((tick, used))
            remaining -= used
            taken += used
            if remaining <= 1e-9:
                pending -= 1
                retired += remaining
                tick = tick + interval
                remaining = arrivals
        self._head_tick = tick
        self._head_remaining = remaining
        self._pending = pending
        self.backlog_total -= taken + retired
        return taken, cohorts

    # ------------------------------------------------------------------
    # Block creation and dissemination
    # ------------------------------------------------------------------
    def create_block(self, miner: MinerSpec, parent: Block) -> Block:
        """Assemble a block of pending transactions on top of ``parent``."""
        protocol = self.config.protocol
        taken, cohorts = self._take_transactions(protocol.max_txs_per_block)
        block = Block.create(
            parent=parent,
            miner=miner.name,
            timestamp=self.sim.now,
            transactions=[],
            difficulty=self.difficulty.difficulty,
        )
        # Attach the fluid payload as metadata used by the result accounting.
        block.fluid_tx_count = taken
        block.fluid_cohorts = cohorts
        block.fluid_bytes = int(taken * protocol.avg_tx_bytes)
        return block

    def _block_size(self, block: Block) -> int:
        return block.header_bytes + block.fluid_bytes

    def _on_block_found(self, miner: MinerSpec) -> None:
        node = self.nodes[miner.name]
        block = node.mine_block()
        node.tree.add(block)
        self.metrics.counter("blocks_mined").increment()
        self._record_global(block)
        # Broadcast to every other miner (pools are densely connected); the
        # batch path hoists per-message lookups and hits the link cache.
        self.network.broadcast(
            node.node_id, self.nodes.keys(), "block", block, size_bytes=self._block_size(block)
        )

    def _record_global(self, block: Block) -> None:
        if self.global_tree.contains(block.hash) or not self.global_tree.contains(
            block.parent_hash
        ):
            return
        became_head = self.global_tree.add(block)
        if became_head:
            self._main_chain_blocks = self.global_tree.head.height
            retargeted = self.difficulty.record_block(block.timestamp)
            if retargeted:
                for process in self.mining.values():
                    process.reschedule()
            self._account_confirmations()
            if (
                self.config.duration_blocks
                and self._main_chain_blocks >= self.config.duration_blocks
                and self._finished_at is None
            ):
                self._finished_at = self.sim.now
                self._stop_all()

    def _account_confirmations(self) -> None:
        """Record confirmation/finality latencies for newly-buried blocks."""
        finality_depth = self.config.protocol.confirmations_for_finality
        blocks = self.global_tree.blocks
        head = self.global_tree.head
        head_height = head.height
        head_timestamp = head.timestamp
        # The main-chain blocks not yet accounted as final are a suffix: a
        # block turns final only after (in this genesis-first order) all its
        # ancestors did.
        unsettled: List[Block] = []
        cursor: Optional[Block] = head
        while cursor is not None and not cursor.fluid_final_accounted:
            unsettled.append(cursor)
            cursor = blocks.get(cursor.parent_hash)
        for block in reversed(unsettled):
            cohorts = block.fluid_cohorts
            if not block.fluid_conf_accounted:
                timestamp = block.timestamp
                for arrival, count in cohorts:
                    latency = timestamp - arrival
                    if latency >= 0:
                        self.confirmation_latencies.observe(latency)
                        self._confirmed_transactions += count
                block.fluid_conf_accounted = True
            if head_height - block.height + 1 >= finality_depth:
                for arrival, count in cohorts:
                    finality_time = head_timestamp - arrival
                    if finality_time >= 0:
                        self.finality_latencies.observe(finality_time)
                block.fluid_final_accounted = True

    def _stop_all(self) -> None:
        for process in self.mining.values():
            process.stop()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, max_sim_time: Optional[float] = None) -> PoWNetworkResult:
        """Run until ``duration_blocks`` main-chain blocks exist (or time out)."""
        if not self._started:
            self._started = True
            self._next_arrival = self.sim.now
            for process in self.mining.values():
                process.start()
        horizon = (
            self.config.duration_blocks * self.config.protocol.target_block_interval * 4.0
            if max_sim_time is None
            else max_sim_time
        )
        self.sim.run(until=horizon)
        self._materialise_arrivals()
        return self.result()

    def result(self) -> PoWNetworkResult:
        """Aggregate the run into a :class:`PoWNetworkResult`."""
        stats = self.global_tree.stats()
        duration = self.sim.now if self._finished_at is None else self._finished_at
        main = self.global_tree.main_chain()
        confirmed = sum(block.fluid_tx_count for block in main)
        blocks_by_miner: Dict[str, int] = {}
        for block in main[1:]:
            blocks_by_miner[block.miner] = blocks_by_miner.get(block.miner, 0) + 1
        propagation = self.metrics.sample("propagation_delay")
        return PoWNetworkResult(
            protocol=self.config.protocol.name,
            duration=duration,
            chain=stats,
            throughput_tps=confirmed / duration if duration > 0 else 0.0,
            offered_load_tps=self.config.tx_arrival_rate,
            capacity_tps=self.config.protocol.capacity_tps,
            mean_confirmation_latency=self.confirmation_latencies.mean(),
            p90_confirmation_latency=self.confirmation_latencies.percentile(90),
            mean_finality_latency=self.finality_latencies.mean(),
            stale_rate=stats.stale_rate,
            mean_block_interval=stats.mean_interblock_time,
            blocks_by_miner=blocks_by_miner,
            backlog_transactions=self.backlog_total,
            mean_propagation_delay=propagation.mean(),
        )
