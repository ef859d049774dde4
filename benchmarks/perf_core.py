"""Core-engine microbenchmark workloads.

Each workload drives one hot path of the simulation core and returns a
``(work_units, elapsed_seconds)`` pair:

* :func:`engine_events` — the event-loop blend: a timer ring (heap
  discipline: every event pushes a future event) plus a zero-delay cascade
  (now-bucket discipline).  Work units are engine events processed, and the
  schedule-call sequence is identical under the seed and current engines, so
  events/sec is directly comparable.  ``Simulator.run`` has one loop, so
  this is the rate the models get under ``run(until=...)`` too.
* :func:`network_messages` — message passing over :class:`Network` with a
  ping-forwarding ring across two regions.  Work units are deliveries.
* :func:`pow_blocks` — end-to-end proof-of-work run.  Work units are
  main-chain blocks.

All workloads accept an optional ``sim_factory`` so the same harness can be
pointed at an alternative :class:`Simulator` implementation (this is how the
seed baseline in ``BENCH_core.json`` was produced).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Tuple

from repro.sim.engine import Simulator


def engine_events(
    total: int = 200_000,
    ring: int = 1024,
    sim_factory: Callable[[], Simulator] = Simulator,
) -> Tuple[int, float]:
    """Blended event-loop workload: half timer ring, half zero-delay cascade.

    ``ring`` is the number of concurrently outstanding timers, i.e. the
    steady-state heap size.  The default of 1024 models a network of ~1k
    nodes each holding a live timer, which is the scale the DHT and
    blockchain experiments run at.
    """
    sim = sim_factory()
    schedule = sim.schedule
    ring_budget = total // 2
    cascade_budget = total - ring_budget
    state = {"ring": ring_budget, "cascade": cascade_budget}

    def tick(slot):
        remaining = state["ring"]
        if remaining > 0:
            state["ring"] = remaining - 1
            schedule(1.0, tick, slot)

    def cascade():
        remaining = state["cascade"]
        if remaining > 0:
            state["cascade"] = remaining - 1
            schedule(0.0, cascade)

    for slot in range(ring):
        schedule(0.0, tick, slot)
    schedule(0.0, cascade)
    start = perf_counter()
    processed = sim.run()
    elapsed = perf_counter() - start
    return processed, elapsed


def network_messages(
    total: int = 60_000,
    nodes: int = 32,
    sim_factory: Callable[[], Simulator] = Simulator,
) -> Tuple[int, float]:
    """Ping-forwarding ring over the latency/bandwidth network model."""
    from repro.sim.network import Network, NetworkParams
    from repro.sim.rng import SeededRNG

    sim = sim_factory()
    net = Network(sim, NetworkParams(latency_jitter=0.25), rng=SeededRNG(1))
    ids = [f"n{i}" for i in range(nodes)]
    nxt = {ids[i]: ids[(i + 1) % nodes] for i in range(nodes)}
    state = {"remaining": total}

    def handler(msg):
        remaining = state["remaining"]
        if remaining > 0:
            state["remaining"] = remaining - 1
            net.send(msg.recipient, nxt[msg.recipient], "ping", size_bytes=256)

    for index, node_id in enumerate(ids):
        net.register(node_id, handler, region="eu" if index % 2 else "us")
    for node_id in ids:
        net.send(node_id, nxt[node_id], "ping", size_bytes=256)
    start = perf_counter()
    sim.run()
    elapsed = perf_counter() - start
    return net.messages_delivered, elapsed


def pow_blocks(blocks: int = 60, miners: int = 8, seed: int = 0) -> Tuple[int, float]:
    """End-to-end proof-of-work network run (blocks mined per wall second)."""
    from repro.blockchain.network import PoWNetwork, PoWNetworkConfig

    config = PoWNetworkConfig(miner_count=miners, duration_blocks=blocks, seed=seed)
    network = PoWNetwork(config)
    start = perf_counter()
    result = network.run()
    elapsed = perf_counter() - start
    return result.chain.main_chain_length, elapsed


WORKLOADS = {
    "engine_events": engine_events,
    "network_messages": network_messages,
    "pow_blocks": pow_blocks,
}


def rate(workload: Callable[..., Tuple[int, float]], repeats: int = 3, **kwargs) -> float:
    """Best work-units-per-second over ``repeats`` runs (minimises noise)."""
    best = 0.0
    for _ in range(repeats):
        units, elapsed = workload(**kwargs)
        if elapsed > 0:
            best = max(best, units / elapsed)
    return best
