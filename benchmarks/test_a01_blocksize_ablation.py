"""A1 — block size vs stale rate: why "just raise the block size" is not free.

Design-choice ablation: larger blocks raise the throughput ceiling but
propagate more slowly, so the fork/stale rate grows, weakening security
and favouring well-connected (centralized) miners.
"""

from repro.analysis.tables import ResultTable
from repro.blockchain.network import PoWNetwork, PoWNetworkConfig, ProtocolParams


def _run_sweep():
    rows = []
    for block_mb in (0.25, 1.0, 8.0, 32.0):
        protocol = ProtocolParams(
            name=f"block-{block_mb}mb",
            target_block_interval=120.0,          # compressed interval keeps runs short
            max_block_bytes=int(block_mb * 1_000_000),
            avg_tx_bytes=400,
            retarget_window=10_000,
        )
        config = PoWNetworkConfig(
            protocol=protocol,
            miner_count=12,
            tx_arrival_rate=protocol.capacity_tps * 2.0,
            validation_seconds_per_mb=4.0,
            duration_blocks=150,
            seed=2,
        )
        result = PoWNetwork(config).run()
        rows.append((block_mb, result))
    return rows


def test_a01_blocksize_ablation(once):
    rows = once(_run_sweep)

    table = ResultTable(
        ["block_mb", "capacity_tps", "throughput_tps", "stale_rate", "propagation_s"],
        title="A1: block size vs throughput vs stale rate",
    )
    for block_mb, result in rows:
        table.add_row(block_mb, result.capacity_tps, result.throughput_tps,
                      result.stale_rate, result.mean_propagation_delay)
    table.print()

    smallest = rows[0][1]
    largest = rows[-1][1]
    # Shape: capacity and throughput grow with the block size...
    assert largest.capacity_tps > 10 * smallest.capacity_tps
    assert largest.throughput_tps > smallest.throughput_tps
    # ...but propagation slows and the stale rate rises with it.
    assert largest.mean_propagation_delay > smallest.mean_propagation_delay
    assert largest.stale_rate >= smallest.stale_rate
    assert largest.stale_rate > 0.02
