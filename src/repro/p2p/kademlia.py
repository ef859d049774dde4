"""Message-level Kademlia DHT simulator.

This is the structured overlay behind Experiments E2 (lookup latency in
deployed DHTs), E3 (Sybil attacks) and E5 (performance under churn).  It
models the parts of Kademlia that determine lookup behaviour in the wild:

* per-node routing tables made of k-buckets over a 160-bit XOR metric;
* iterative, parallel (``alpha``-way) FIND_NODE lookups driven by the
  requesting node;
* RPC timeouts — the dominant cost in deployed DHTs, where a large fraction
  of routing-table entries point to peers that already left (Jiménez et al.
  measured median lookup times around a minute on the BitTorrent Mainline
  DHT for exactly this reason, versus a few seconds on eMule's KAD which
  uses tighter timeouts and fresher routing state);
* routing-table staleness injected either by explicit churn (peers going
  offline) or by a configurable initial stale fraction.

Two configuration presets, :meth:`KademliaConfig.kad_like` and
:meth:`KademliaConfig.mainline_like`, capture the client behaviours that the
measurement literature identifies as the cause of the latency gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.p2p.identifiers import ID_BITS, bucket_index, random_id, xor_distance
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Message, Network, NetworkParams
from repro.sim.node import Node
from repro.sim.rng import SeededRNG


@dataclass
class KademliaConfig:
    """Client behaviour knobs that drive lookup performance.

    Attributes
    ----------
    k:
        Bucket size and size of the closest set returned by lookups.
    alpha:
        Number of FIND_NODE RPCs kept in flight per lookup.
    rpc_timeout:
        Seconds the client waits before declaring an RPC lost.  Deployed
        Mainline clients historically used very conservative timeouts
        (10–20 s); KAD clients use a few seconds.
    initial_stale_fraction:
        Fraction of routing-table entries that point to departed peers at
        the start of a run (models a long-running network under churn).
    refresh_interval:
        How often (seconds) a client performs routing-table maintenance:
        probing suspect contacts, evicting dead ones and learning fresh
        peers.  Aggressive maintenance is what keeps KAD tables usable
        under churn; lazy maintenance is what makes Mainline tables stale.
    refresh_detection:
        Probability that one maintenance pass detects (and evicts) any given
        dead contact.
    refresh_samples:
        Number of fresh live peers a node learns per maintenance pass.
    request_bytes / response_bytes:
        Message sizes used for bandwidth accounting.
    """

    k: int = 8
    alpha: int = 3
    rpc_timeout: float = 3.0
    initial_stale_fraction: float = 0.0
    refresh_interval: float = 300.0
    refresh_detection: float = 0.8
    refresh_samples: int = 4
    request_bytes: int = 100
    response_bytes: int = 500

    @classmethod
    def by_name(cls, spec) -> "KademliaConfig":
        """Resolve a client config from a preset name, dict or instance.

        Declarative hook used by :mod:`repro.scenarios`: ``"kad"`` and
        ``"mainline"`` name the two measurement-calibrated presets, a dict
        gives explicit constructor arguments.
        """
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            presets = {"kad": cls.kad_like, "mainline": cls.mainline_like}
            name = spec.replace("_", "-").lower()
            if name not in presets:
                raise ValueError(
                    f"unknown overlay client {spec!r}; pick one of {sorted(presets)}"
                )
            return presets[name]()
        if isinstance(spec, dict):
            return cls(**spec)
        raise TypeError(f"cannot build KademliaConfig from {type(spec).__name__}")

    @classmethod
    def kad_like(cls) -> "KademliaConfig":
        """eMule KAD-style client: parallel lookups, short timeouts, fresh tables."""
        return cls(
            k=8,
            alpha=3,
            rpc_timeout=1.5,
            initial_stale_fraction=0.10,
            refresh_interval=60.0,
            refresh_detection=0.9,
            refresh_samples=8,
        )

    @classmethod
    def mainline_like(cls) -> "KademliaConfig":
        """BitTorrent Mainline-style client: serial-ish lookups, long timeouts, stale tables."""
        return cls(
            k=8,
            alpha=1,
            rpc_timeout=8.0,
            initial_stale_fraction=0.20,
            refresh_interval=300.0,
            refresh_detection=0.7,
            refresh_samples=5,
        )


@dataclass
class LookupResult:
    """Outcome of one iterative FIND_NODE lookup."""

    target: int
    origin: int
    success: bool
    latency: float
    hops: int
    rpcs_sent: int
    timeouts: int
    closest: List[int] = field(default_factory=list)


class KademliaNode(Node):
    """A single Kademlia peer with a k-bucket routing table."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        config: KademliaConfig,
        region: str = "default",
    ) -> None:
        super().__init__(node_id, sim, network, region=region)
        self.config = config
        # bucket index -> ordered list of contact ids (least recently seen first)
        self.buckets: Dict[int, List[int]] = {}
        self.rpcs_received = 0

    # ------------------------------------------------------------------
    # Routing table
    # ------------------------------------------------------------------
    def observe(self, contact: int) -> None:
        """Record having heard from ``contact`` (standard k-bucket update)."""
        if contact == self.node_id:
            return
        index = bucket_index(self.node_id, contact)
        bucket = self.buckets.setdefault(index, [])
        if contact in bucket:
            bucket.remove(contact)
            bucket.append(contact)
        elif len(bucket) < self.config.k:
            bucket.append(contact)
        # A full bucket ignores the new contact (Kademlia keeps long-lived
        # peers, which is also what makes stale entries persist).

    def evict(self, contact: int) -> None:
        """Drop a contact that failed to respond."""
        index = bucket_index(self.node_id, contact)
        bucket = self.buckets.get(index)
        if bucket and contact in bucket:
            bucket.remove(contact)

    def contacts(self) -> List[int]:
        """All known contacts."""
        result: List[int] = []
        for bucket in self.buckets.values():
            result.extend(bucket)
        return result

    def closest_contacts(self, target: int, count: Optional[int] = None) -> List[int]:
        """The ``count`` known contacts closest to ``target`` (XOR metric)."""
        count = count or self.config.k
        return sorted(self.contacts(), key=lambda c: xor_distance(c, target))[:count]

    # ------------------------------------------------------------------
    # RPC handling
    # ------------------------------------------------------------------
    def on_find_node(self, message: Message) -> None:
        """Answer a FIND_NODE RPC with our k closest contacts to the target."""
        self.rpcs_received += 1
        target = message.payload["target"]
        self.observe(message.sender)
        reply = {
            "rpc_id": message.payload["rpc_id"],
            "target": target,
            "contacts": self.closest_contacts(target),
        }
        self.send(
            message.sender,
            "find_node_reply",
            reply,
            size_bytes=self.config.response_bytes,
        )

    def on_find_node_reply(self, message: Message) -> None:
        """Route a FIND_NODE response to the lookup that issued it."""
        self.observe(message.sender)
        lookup = _ACTIVE_LOOKUPS.get(message.payload["rpc_id"])
        if lookup is not None:
            lookup.handle_reply(message.sender, message.payload["contacts"])


#: rpc_id -> lookup; module-level so node message handlers can route replies
#: without holding references to every in-flight lookup on every node.
_ACTIVE_LOOKUPS: Dict[int, "IterativeLookup"] = {}


class IterativeLookup:
    """State machine of one iterative, alpha-parallel FIND_NODE lookup."""

    _next_rpc_id = 0

    def __init__(
        self,
        origin: KademliaNode,
        target: int,
        config: KademliaConfig,
        on_complete: Callable[[LookupResult], None],
    ) -> None:
        self.origin = origin
        self.target = target
        self.config = config
        self.on_complete = on_complete
        self.sim = origin.sim
        self.started_at = self.sim.now
        self.shortlist: List[int] = []
        self.queried: Set[int] = set()
        self.failed: Set[int] = set()
        self.in_flight: Dict[int, Tuple[int, object]] = {}  # rpc_id -> (contact, timer)
        self.rpcs_sent = 0
        self.timeouts = 0
        self.hops = 0
        self.finished = False

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Seed the shortlist from the origin's routing table and start querying."""
        self.shortlist = self.origin.closest_contacts(self.target, self.config.k)
        if not self.shortlist:
            self._finish(success=False)
            return
        self._issue_queries()

    def _candidates(self) -> List[int]:
        """Unqueried, non-failed contacts among the current k closest known."""
        best = sorted(self.shortlist, key=lambda c: xor_distance(c, self.target))
        best = [c for c in best if c not in self.failed][: self.config.k]
        return [c for c in best if c not in self.queried]

    def _issue_queries(self) -> None:
        if self.finished:
            return
        candidates = self._candidates()
        while candidates and len(self.in_flight) < self.config.alpha:
            contact = candidates.pop(0)
            self._query(contact)
        if not self.in_flight and not self._candidates():
            self._finish(success=True)

    def _query(self, contact: int) -> None:
        rpc_id = IterativeLookup._next_rpc_id
        IterativeLookup._next_rpc_id += 1
        self.queried.add(contact)
        self.rpcs_sent += 1
        _ACTIVE_LOOKUPS[rpc_id] = self
        payload = {"rpc_id": rpc_id, "target": self.target}
        self.origin.send(
            contact, "find_node", payload, size_bytes=self.config.request_bytes
        )
        timer = self.sim.schedule(self.config.rpc_timeout, self._timeout, rpc_id)
        self.in_flight[rpc_id] = (contact, timer)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def handle_reply(self, responder: int, contacts: List[int]) -> None:
        """Process a FIND_NODE response from ``responder``."""
        if self.finished:
            return
        rpc_id = next(
            (rid for rid, (contact, _) in self.in_flight.items() if contact == responder),
            None,
        )
        if rpc_id is None:
            return
        _, timer = self.in_flight.pop(rpc_id)
        timer.cancel()
        _ACTIVE_LOOKUPS.pop(rpc_id, None)
        self.hops += 1
        for contact in contacts:
            if contact != self.origin.node_id and contact not in self.shortlist:
                self.shortlist.append(contact)
            self.origin.observe(contact)
        self._issue_queries()

    def _timeout(self, rpc_id: int) -> None:
        if rpc_id not in self.in_flight or self.finished:
            return
        contact, _ = self.in_flight.pop(rpc_id)
        _ACTIVE_LOOKUPS.pop(rpc_id, None)
        self.timeouts += 1
        self.failed.add(contact)
        self.origin.evict(contact)
        self._issue_queries()

    def _finish(self, success: bool) -> None:
        if self.finished:
            return
        self.finished = True
        for rpc_id, (_, timer) in self.in_flight.items():
            timer.cancel()
            _ACTIVE_LOOKUPS.pop(rpc_id, None)
        self.in_flight.clear()
        closest = sorted(
            (c for c in self.shortlist if c not in self.failed),
            key=lambda c: xor_distance(c, self.target),
        )[: self.config.k]
        result = LookupResult(
            target=self.target,
            origin=self.origin.node_id,
            success=success and bool(closest),
            latency=self.sim.now - self.started_at,
            hops=self.hops,
            rpcs_sent=self.rpcs_sent,
            timeouts=self.timeouts,
            closest=closest,
        )
        self.on_complete(result)


class KademliaNetwork:
    """A population of Kademlia peers with globally-bootstrapped routing tables."""

    def __init__(
        self,
        size: int,
        config: Optional[KademliaConfig] = None,
        sim: Optional[Simulator] = None,
        network_params: Optional[NetworkParams] = None,
        seed: int = 0,
    ) -> None:
        if size < 2:
            raise ValueError("a DHT needs at least two nodes")
        self.config = config or KademliaConfig()
        self.sim = sim or Simulator()
        self.rng = SeededRNG(seed)
        self.network = Network(self.sim, network_params, rng=self.rng.fork("net"))
        self.metrics = MetricsRegistry()
        self.nodes: Dict[int, KademliaNode] = {}
        while len(self.nodes) < size:
            node_id = random_id(self.rng)
            if node_id in self.nodes:
                continue
            self.nodes[node_id] = KademliaNode(
                node_id, self.sim, self.network, self.config
            )
        self._populate_routing_tables()
        if self.config.initial_stale_fraction > 0:
            self._inject_stale_entries(self.config.initial_stale_fraction)

    # ------------------------------------------------------------------
    # Bootstrapping
    # ------------------------------------------------------------------
    def _populate_routing_tables(self) -> None:
        """Fill every node's k-buckets from global knowledge.

        This stands in for the join protocol: each node learns up to ``k``
        peers per bucket, sampled from the peers that actually fall in that
        bucket, which matches the routing state of a converged network.
        """
        ids = list(self.nodes.keys())
        sample_size = min(len(ids), max(4 * self.config.k * ID_BITS // 8, 256))
        for node in self.nodes.values():
            per_bucket: Dict[int, List[int]] = {}
            candidates = (
                ids if len(ids) <= sample_size else self.rng.sample(ids, sample_size)
            )
            for candidate in candidates:
                if candidate == node.node_id:
                    continue
                index = bucket_index(node.node_id, candidate)
                bucket = per_bucket.setdefault(index, [])
                if len(bucket) < self.config.k:
                    bucket.append(candidate)
            for index, contacts in per_bucket.items():
                node.buckets[index] = list(contacts)

    def _inject_stale_entries(self, fraction: float) -> None:
        """Replace a fraction of routing entries with identifiers of departed peers."""
        for node in self.nodes.values():
            for bucket in node.buckets.values():
                for position, _ in enumerate(bucket):
                    if self.rng.bernoulli(fraction):
                        bucket[position] = random_id(self.rng)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def node_ids(self) -> List[int]:
        """All peer identifiers."""
        return list(self.nodes.keys())

    def online_nodes(self) -> List[KademliaNode]:
        """Peers currently online."""
        return [node for node in self.nodes.values() if node.online]

    def lookup(
        self,
        origin_id: int,
        target: int,
        on_complete: Optional[Callable[[LookupResult], None]] = None,
    ) -> None:
        """Start an iterative lookup from ``origin_id`` towards ``target``.

        ``on_complete`` is called with the :class:`LookupResult`.
        """
        origin = self.nodes[origin_id]

        def _complete(result: LookupResult) -> None:
            self.metrics.sample("lookup_latency").observe(result.latency)
            self.metrics.sample("lookup_hops").observe(result.hops)
            self.metrics.counter("lookups").increment()
            if not result.success:
                self.metrics.counter("lookup_failures").increment()
            if on_complete is not None:
                on_complete(result)

        IterativeLookup(origin, target, self.config, _complete).start()

    def warm_up(self, passes: int = 3) -> None:
        """Run a few maintenance passes immediately.

        Used to bring routing tables to their churn equilibrium before a
        measurement starts, instead of measuring the artificial transient of
        a freshly-bootstrapped network.
        """
        for _ in range(passes):
            self._maintenance_pass_once()

    def start_maintenance(self) -> None:
        """Begin periodic routing-table maintenance on every peer.

        Each pass models the bucket-refresh/ping behaviour of a client: dead
        contacts are detected (with probability ``refresh_detection``) and
        evicted, and a few fresh live peers are learned.  The interval and
        aggressiveness come from the :class:`KademliaConfig`, which is how
        the KAD-vs-Mainline behavioural gap is expressed.
        """
        if self.config.refresh_interval <= 0:
            return
        self.sim.schedule(self.config.refresh_interval, self._maintenance_pass)

    def _maintenance_pass(self) -> None:
        self._maintenance_pass_once()
        self.sim.schedule(self.config.refresh_interval, self._maintenance_pass)

    def _maintenance_pass_once(self) -> None:
        online_ids = [node.node_id for node in self.nodes.values() if node.online]
        for node in self.nodes.values():
            if not node.online:
                continue
            for contact in list(node.contacts()):
                peer = self.nodes.get(contact)
                if (peer is None or not peer.online) and self.rng.bernoulli(
                    self.config.refresh_detection
                ):
                    node.evict(contact)
            if online_ids:
                samples = min(self.config.refresh_samples, len(online_ids))
                for fresh in self.rng.sample(online_ids, samples):
                    node.observe(fresh)

    def set_node_online(self, node_id: int, online: bool) -> None:
        """Flip a node's availability (used by churn processes)."""
        node = self.nodes[node_id]
        if online:
            node.go_online()
        else:
            node.go_offline()

    def routing_table_staleness(self) -> float:
        """Fraction of routing entries that point to offline or unknown peers."""
        total = 0
        stale = 0
        for node in self.nodes.values():
            for contact in node.contacts():
                total += 1
                peer = self.nodes.get(contact)
                if peer is None or not peer.online:
                    stale += 1
        return stale / total if total else 0.0
