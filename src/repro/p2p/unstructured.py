"""Gnutella-style unstructured overlay with TTL-limited flooding.

Section II of the paper: "Gnutella ... relied on partial flooding for query
messages. Gnutella is considered an unstructured overlay because nodes do
not form any systematic topology ... Gnutella, however, was slow and
inefficient."  The simulator quantifies both halves of that sentence:

* query *recall* (probability of finding an object) as a function of the
  flood TTL and of how many peers actually share content (free riding), and
* the message cost of each query, which grows with the flooded horizon.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.rng import SeededRNG


@dataclass
class GnutellaConfig:
    """Topology and protocol parameters for the flooding overlay."""

    size: int = 1000
    degree: int = 4
    ttl: int = 4
    objects: int = 500
    replicas_per_object: int = 5
    zipf_exponent: float = 0.8
    sharing_fraction: float = 1.0       # fraction of peers that share anything
    hop_latency_mean: float = 0.1


@dataclass
class QueryOutcome:
    """Result of flooding one query through the overlay."""

    object_id: int
    origin: int
    found: bool
    messages: int
    peers_reached: int
    first_hit_hops: Optional[int]
    latency: float


class GnutellaNetwork:
    """Random-graph overlay flooding queries for objects held by sharing peers."""

    def __init__(self, config: Optional[GnutellaConfig] = None, seed: int = 0) -> None:
        self.config = config or GnutellaConfig()
        if self.config.size < 2:
            raise ValueError("overlay needs at least two peers")
        self.rng = SeededRNG(seed)
        self.neighbors: Dict[int, Set[int]] = {peer: set() for peer in range(self.config.size)}
        self._build_topology()
        self.sharers: Set[int] = self._select_sharers()
        self.holdings: Dict[int, Set[int]] = {peer: set() for peer in range(self.config.size)}
        self._place_objects()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_topology(self) -> None:
        """Random regular-ish graph: each peer links to ``degree`` random others."""
        size = self.config.size
        for peer in range(size):
            while len(self.neighbors[peer]) < self.config.degree:
                other = self.rng.randint(0, size - 1)
                if other != peer:
                    self.neighbors[peer].add(other)
                    self.neighbors[other].add(peer)

    def _select_sharers(self) -> Set[int]:
        count = max(1, int(self.config.size * self.config.sharing_fraction))
        return set(self.rng.sample(range(self.config.size), count))

    def _place_objects(self) -> None:
        sharers = list(self.sharers)
        for object_id in range(self.config.objects):
            replicas = min(self.config.replicas_per_object, len(sharers))
            for holder in self.rng.sample(sharers, replicas):
                self.holdings[holder].add(object_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def sample_object(self) -> int:
        """Zipf-popular object identifier (popular objects are queried more)."""
        rank = self.rng.zipf_rank(self.config.objects, self.config.zipf_exponent)
        return rank - 1

    def query(self, origin: int, object_id: Optional[int] = None) -> QueryOutcome:
        """Flood a query with the configured TTL and report the outcome."""
        if object_id is None:
            object_id = self.sample_object()
        visited: Set[int] = {origin}
        frontier = deque([(origin, 0)])
        messages = 0
        first_hit_hops: Optional[int] = None
        while frontier:
            peer, depth = frontier.popleft()
            if object_id in self.holdings.get(peer, ()) and peer != origin:
                if first_hit_hops is None:
                    first_hit_hops = depth
            if depth >= self.config.ttl:
                continue
            for neighbor in self.neighbors[peer]:
                messages += 1
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append((neighbor, depth + 1))
        found = first_hit_hops is not None
        latency = 0.0
        if found:
            for _ in range(first_hit_hops or 0):
                latency += self.rng.exponential(self.config.hop_latency_mean)
        return QueryOutcome(
            object_id=object_id,
            origin=origin,
            found=found,
            messages=messages,
            peers_reached=len(visited),
            first_hit_hops=first_hit_hops,
            latency=latency,
        )

    def run_queries(self, count: int = 200) -> List[QueryOutcome]:
        """Issue ``count`` queries from random peers."""
        outcomes = []
        for _ in range(count):
            origin = self.rng.randint(0, self.config.size - 1)
            outcomes.append(self.query(origin))
        return outcomes
