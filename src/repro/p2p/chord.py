"""Chord structured overlay (finger-table routing on a ring).

Chord [6] is the other canonical DHT the paper's Section II-A discusses.
The simulator here is analytical/event-light: the ring and finger tables are
built explicitly, lookups are routed greedily through fingers, and each hop
samples a network delay.  It exists to (a) show the O(log N) hop behaviour
shared by structured overlays, (b) contrast with one-hop overlays in
Experiment E6, and (c) exercise failure behaviour when successor lists are
too short for the churn rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.p2p.identifiers import ID_BITS, ID_SPACE, random_id, ring_distance
from repro.sim.rng import SeededRNG


@dataclass
class ChordLookupResult:
    """Outcome of a single Chord lookup."""

    key: int
    origin: int
    responsible: Optional[int]
    hops: int
    latency: float
    success: bool


class ChordNode:
    """One Chord peer: identifier, finger table and successor list."""

    def __init__(self, node_id: int, successor_list_size: int = 8) -> None:
        self.node_id = node_id
        self.fingers: List[int] = []
        self.successors: List[int] = []
        self.successor_list_size = successor_list_size
        self.online = True

    def closest_preceding(self, key: int, alive: Set[int]) -> Optional[int]:
        """Best known finger that precedes ``key`` and is believed alive."""
        best: Optional[int] = None
        best_distance = ring_distance(self.node_id, key)
        for finger in self.fingers + self.successors:
            if finger not in alive:
                continue
            distance = ring_distance(finger, key)
            if 0 < distance < best_distance or (best is None and finger != self.node_id):
                if distance < best_distance:
                    best = finger
                    best_distance = distance
        return best


class ChordNetwork:
    """A converged Chord ring with configurable hop latency."""

    def __init__(
        self,
        size: int,
        successor_list_size: int = 8,
        hop_latency_mean: float = 0.08,
        seed: int = 0,
    ) -> None:
        if size < 2:
            raise ValueError("a Chord ring needs at least two nodes")
        self.rng = SeededRNG(seed)
        self.hop_latency_mean = hop_latency_mean
        ids: Set[int] = set()
        while len(ids) < size:
            ids.add(random_id(self.rng))
        self.ring: List[int] = sorted(ids)
        self.nodes: Dict[int, ChordNode] = {
            node_id: ChordNode(node_id, successor_list_size) for node_id in self.ring
        }
        self._build_tables()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _successor_of(self, key: int) -> int:
        """The first node clockwise from ``key`` (binary search over the ring)."""
        low, high = 0, len(self.ring)
        while low < high:
            mid = (low + high) // 2
            if self.ring[mid] < key:
                low = mid + 1
            else:
                high = mid
        return self.ring[low % len(self.ring)]

    def _build_tables(self) -> None:
        n = len(self.ring)
        for index, node_id in enumerate(self.ring):
            node = self.nodes[node_id]
            node.successors = [
                self.ring[(index + offset) % n]
                for offset in range(1, node.successor_list_size + 1)
            ]
            node.fingers = []
            for bit in range(ID_BITS):
                start = (node_id + (1 << bit)) % ID_SPACE
                finger = self._successor_of(start)
                if finger != node_id and (not node.fingers or node.fingers[-1] != finger):
                    node.fingers.append(finger)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def responsible_for(self, key: int) -> int:
        """The node responsible for ``key`` (its successor on the ring)."""
        return self._successor_of(key % ID_SPACE)

    def fail_nodes(self, fraction: float) -> List[int]:
        """Mark a random fraction of nodes as failed; returns their identifiers."""
        count = int(len(self.ring) * fraction)
        failed = self.rng.sample(self.ring, count)
        for node_id in failed:
            self.nodes[node_id].online = False
        return failed

    def alive_ids(self) -> Set[int]:
        """Identifiers of nodes currently online."""
        return {node_id for node_id, node in self.nodes.items() if node.online}

    def lookup(self, origin_id: int, key: int, max_hops: int = 64) -> ChordLookupResult:
        """Greedy finger-table routing from ``origin_id`` towards ``key``."""
        alive = self.alive_ids()
        if origin_id not in alive:
            return ChordLookupResult(key, origin_id, None, 0, 0.0, False)
        target = self.responsible_for(key)
        current = origin_id
        hops = 0
        latency = 0.0
        while hops < max_hops:
            if current == target or ring_distance(current, key) == 0:
                return ChordLookupResult(key, origin_id, current, hops, latency, True)
            node = self.nodes[current]
            # Check whether the key falls between us and our first live successor.
            live_successors = [s for s in node.successors if s in alive]
            if live_successors:
                first = live_successors[0]
                if ring_distance(current, key) <= ring_distance(current, first):
                    latency += self._hop_latency()
                    hops += 1
                    return ChordLookupResult(key, origin_id, first, hops, latency, True)
            next_hop = node.closest_preceding(key, alive)
            if next_hop is None or next_hop == current:
                return ChordLookupResult(key, origin_id, None, hops, latency, False)
            latency += self._hop_latency()
            hops += 1
            current = next_hop
        return ChordLookupResult(key, origin_id, None, hops, latency, False)

    def _hop_latency(self) -> float:
        return self.rng.exponential(self.hop_latency_mean)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def routing_state_per_node(self) -> float:
        """Average number of routing entries (fingers + successors) per node."""
        total = sum(
            len(node.fingers) + len(node.successors) for node in self.nodes.values()
        )
        return total / len(self.nodes)
