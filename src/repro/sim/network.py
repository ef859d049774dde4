"""Latency/bandwidth network model for message-passing simulations.

The network connects named nodes (any hashable identifier).  Sending a
message samples a one-way delay — the pair's mean latency times a log-normal
jitter factor, plus a serialisation delay proportional to the message size
over the bandwidth — and schedules delivery on the simulator.  A pair's mean
latency comes from the two nodes' regions (``base_latency`` inside a region,
``inter_region_latency`` across), which is how the blockchain and edge
simulators model geo-distribution without a full topology.

Failures are modelled by dropping messages: to or from a node marked
offline, to an unregistered node, or at random with ``loss_rate``.  There
are no partitions and no per-pair link overrides — no model needs either.

``send``/``broadcast`` resolve a per-pair ``(mean latency, bandwidth, loss)``
triple through a cache keyed on ``(sender, recipient)`` so the region lookup
runs once per pair instead of once per message; ``register``/``unregister``
invalidate it, and :attr:`Network.params` must not be mutated once traffic
has started.  The RNG draw sequence (optional loss Bernoulli, then jitter
log-normal, per recipient in order) is part of the determinism contract and
must not change.  Both draws come straight from the generator's bound
``random``: the loss test is ``random() < loss_rate`` and the jitter is
:func:`_lognormal_factor`, the stdlib's ``lognormvariate(0, sigma)`` written
out — the same operations on the same uniforms, so the same floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, log, sqrt
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.sim.engine import Simulator
from repro.sim.rng import SeededRNG

NodeId = Hashable
Handler = Callable[["Message"], None]

#: The stdlib's ``random.NV_MAGICCONST``, by the same expression.
_NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0)


def _lognormal_factor(draw: Callable[[], float], sigma: float) -> float:
    """``random.lognormvariate(0.0, sigma)`` drawing through ``draw``.

    The Kinderman–Monahan loop of ``random.normalvariate`` with the same
    operations in the same order, so it consumes the same uniforms and
    returns the same float as the stdlib — without the two method frames.
    """
    while True:
        u1 = draw()
        u2 = 1.0 - draw()
        z = _NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -log(u2):
            return exp(0.0 + z * sigma)


@dataclass
class NetworkParams:
    """Default link characteristics.

    Attributes
    ----------
    base_latency:
        Mean one-way propagation delay in seconds for nodes in the same
        region.
    latency_jitter:
        Fractional jitter: each delivery multiplies the mean latency by a
        log-normal factor with this sigma.
    bandwidth_bps:
        Link bandwidth in bits per second used for the serialisation delay.
    loss_rate:
        Probability that any single message is silently dropped.
    inter_region_latency:
        Mean one-way delay between nodes in *different* regions.

    Presets
    -------
    :meth:`by_name` resolves the declarative grid presets used by scenario
    specs (``topology: {"network": "lan"}``): ``lan`` (single datacenter,
    sub-millisecond, gigabit), ``wan`` (the ``NetworkParams()`` class
    defaults: continental internet paths) and ``geo`` (geo-distributed
    consumer links: ~80 ms in-region, 250 ms cross-region, constrained
    5 Mbps links).  :meth:`from_spec` additionally accepts ``None`` (keep
    the component default), a dict of field overrides, or a ready
    ``NetworkParams``.

    Naming *any* preset replaces the consuming component's own fallback,
    and some components calibrate that fallback differently from the class
    defaults (e.g. :class:`~repro.blockchain.network.PoWNetwork` defaults
    to wide-area Bitcoin measurements with a 100 ms base latency) — so
    ``"network": "wan"`` is an explicit choice of these values, not
    necessarily a no-op.

    Validation
    ----------
    Construction rejects, with a ``ValueError`` naming the field, a
    latency, jitter or bandwidth that is negative or not finite, and a
    ``loss_rate`` outside ``[0, 1]``.  A bandwidth of 0 is valid and means
    no serialisation delay.  Building a :class:`Network` checks the fields
    again, so a value assigned after construction is rejected too.
    """

    base_latency: float = 0.05
    latency_jitter: float = 0.25
    bandwidth_bps: float = 10_000_000.0
    loss_rate: float = 0.0
    inter_region_latency: float = 0.15

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        for name in ("base_latency", "inter_region_latency", "latency_jitter",
                     "bandwidth_bps"):
            value = getattr(self, name)
            if not (isfinite(value) and value >= 0):
                raise ValueError(
                    f"NetworkParams.{name} must be finite and >= 0, got {value!r}")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(
                f"NetworkParams.loss_rate must be in [0, 1], got {self.loss_rate!r}")

    @classmethod
    def by_name(cls, name: str) -> "NetworkParams":
        """A fresh instance of one of the named presets (lan/wan/geo)."""
        try:
            factory = NETWORK_PRESETS[str(name)]
        except KeyError:
            known = ", ".join(sorted(NETWORK_PRESETS))
            raise KeyError(
                f"unknown network preset {name!r}; known presets: {known}"
            ) from None
        return factory()

    @classmethod
    def from_spec(cls, spec) -> Optional["NetworkParams"]:
        """Resolve a declarative network description.

        ``None`` → ``None`` (the component keeps its own default), a preset
        name → :meth:`by_name`, a dict → field overrides on the defaults,
        and an existing ``NetworkParams`` passes through unchanged.
        """
        if spec is None:
            return None
        if isinstance(spec, NetworkParams):
            return spec
        if isinstance(spec, str):
            return cls.by_name(spec)
        if isinstance(spec, dict):
            return cls(**spec)
        raise TypeError(
            f"cannot build NetworkParams from {type(spec).__name__}; "
            f"pass a preset name, a dict of fields, or a NetworkParams"
        )


#: The declarative latency/bandwidth grid presets (factories, so every
#: resolution gets an independent instance).
NETWORK_PRESETS = {
    "lan": lambda: NetworkParams(base_latency=0.0005, latency_jitter=0.1,
                                 bandwidth_bps=1_000_000_000.0, loss_rate=0.0,
                                 inter_region_latency=0.002),
    "wan": lambda: NetworkParams(),
    "geo": lambda: NetworkParams(base_latency=0.08, latency_jitter=0.35,
                                 bandwidth_bps=5_000_000.0, loss_rate=0.0,
                                 inter_region_latency=0.25),
}


class Message:
    """A message in flight between two nodes.

    A plain ``__slots__`` class (not a dataclass) because it is allocated
    once per message on the hot send path.
    """

    __slots__ = (
        "sender",
        "recipient",
        "msg_type",
        "payload",
        "size_bytes",
        "sent_at",
        "delivered_at",
    )

    def __init__(
        self,
        sender: NodeId,
        recipient: NodeId,
        msg_type: str,
        payload: Any = None,
        size_bytes: int = 256,
        sent_at: float = 0.0,
        delivered_at: float = 0.0,
    ) -> None:
        self.sender = sender
        self.recipient = recipient
        self.msg_type = msg_type
        self.payload = payload
        self.size_bytes = size_bytes
        self.sent_at = sent_at
        self.delivered_at = delivered_at

    @property
    def latency(self) -> float:
        """Observed one-way latency once delivered."""
        return self.delivered_at - self.sent_at

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Message({self.sender!r} -> {self.recipient!r}, "
            f"{self.msg_type!r}, {self.size_bytes}B)"
        )


class Network:
    """Message-passing substrate with per-link latency and bandwidth."""

    def __init__(
        self,
        sim: Simulator,
        params: Optional[NetworkParams] = None,
        rng: Optional[SeededRNG] = None,
    ) -> None:
        self.sim = sim
        self.params = params or NetworkParams()
        self.params._validate()
        self.rng = rng or SeededRNG(0)
        self._handlers: Dict[NodeId, Handler] = {}
        self._regions: Dict[NodeId, str] = {}
        self._offline: Set[NodeId] = set()
        # (sender, recipient) -> (mean_latency, bandwidth_bps, loss_rate)
        self._resolved: Dict[Tuple[NodeId, NodeId], Tuple[float, float, float]] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, node_id: NodeId, handler: Handler, region: str = "default") -> None:
        """Attach a node and its message handler to the network."""
        self._handlers[node_id] = handler
        if self._regions.get(node_id) != region:
            self._regions[node_id] = region
            self._resolved.clear()
        self._offline.discard(node_id)

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node; in-flight messages to it are dropped on delivery."""
        self._handlers.pop(node_id, None)
        if self._regions.pop(node_id, None) is not None:
            self._resolved.clear()
        self._offline.discard(node_id)

    def set_offline(self, node_id: NodeId, offline: bool = True) -> None:
        """Mark a registered node as (un)reachable without unregistering it."""
        if offline:
            self._offline.add(node_id)
        else:
            self._offline.discard(node_id)

    def nodes(self) -> Iterable[NodeId]:
        """All registered node identifiers."""
        return self._handlers.keys()

    # ------------------------------------------------------------------
    # Link resolution
    # ------------------------------------------------------------------
    def _resolve_link(self, sender: NodeId, recipient: NodeId) -> Tuple[float, float, float]:
        """Resolved ``(mean_latency, bandwidth_bps, loss_rate)`` for a pair."""
        key = (sender, recipient)
        resolved = self._resolved.get(key)
        if resolved is None:
            params = self.params
            regions = self._regions
            same_region = regions.get(sender, "default") == regions.get(
                recipient, "default"
            )
            mean_latency = (
                params.base_latency if same_region else params.inter_region_latency
            )
            resolved = (mean_latency, params.bandwidth_bps, params.loss_rate)
            self._resolved[key] = resolved
        return resolved

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        sender: NodeId,
        recipient: NodeId,
        msg_type: str,
        payload: Any = None,
        size_bytes: int = 256,
    ) -> Message:
        """Send a message; delivery is scheduled on the simulator.

        The returned :class:`Message` is the object the recipient's handler
        will receive (useful for tests that want to inspect timing).
        """
        sim = self.sim
        message = Message(sender, recipient, msg_type, payload, size_bytes, sim.now)
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if sender in self._offline or recipient in self._offline:
            self.messages_dropped += 1
            return message
        mean_latency, bandwidth, loss = self._resolve_link(sender, recipient)
        draw = self.rng.random
        if loss > 0 and draw() < loss:
            self.messages_dropped += 1
            return message
        jitter_sigma = self.params.latency_jitter
        if jitter_sigma > 0:
            latency = mean_latency * _lognormal_factor(draw, jitter_sigma)
        else:
            latency = mean_latency
        if bandwidth > 0:
            latency += (size_bytes * 8.0) / bandwidth
        if latency < 1e-6:
            latency = 1e-6
        sim.schedule(latency, self._deliver, message)
        return message

    def broadcast(
        self,
        sender: NodeId,
        recipients: Iterable[NodeId],
        msg_type: str,
        payload: Any = None,
        size_bytes: int = 256,
    ) -> int:
        """Send the same payload to every recipient; returns the count sent.

        Batch fast path: per-message bookkeeping is identical to
        :meth:`send` (same counters, same per-recipient RNG draw order, the
        sender itself skipped) but the loop-invariant lookups — simulator,
        params, offline set, link cache, the generator's ``random`` — are
        hoisted out of the loop, and every delivery is queued by one
        :meth:`~repro.sim.engine.Simulator.schedule_each` call, which numbers
        them in recipient order as a loop of ``schedule`` would.
        """
        sim = self.sim
        now = sim.now
        offline = self._offline
        resolved = self._resolved
        draw = self.rng.random
        jitter_sigma = self.params.latency_jitter
        serial_bits = size_bytes * 8.0
        sender_offline = sender in offline
        deliveries: List[Tuple[float, Message]] = []
        count = 0
        dropped = 0
        for recipient in recipients:
            if recipient == sender:
                continue
            count += 1
            if sender_offline or recipient in offline:
                dropped += 1
                continue
            link = resolved.get((sender, recipient))
            if link is None:
                link = self._resolve_link(sender, recipient)
            mean_latency, bandwidth, loss = link
            if loss > 0 and draw() < loss:
                dropped += 1
                continue
            if jitter_sigma > 0:
                latency = mean_latency * _lognormal_factor(draw, jitter_sigma)
            else:
                latency = mean_latency
            if bandwidth > 0:
                latency += serial_bits / bandwidth
            if latency < 1e-6:
                latency = 1e-6
            deliveries.append(
                (latency, Message(sender, recipient, msg_type, payload, size_bytes, now)))
        sim.schedule_each(self._deliver, deliveries)
        self.messages_sent += count
        self.bytes_sent += count * size_bytes
        self.messages_dropped += dropped
        return count

    def _deliver(self, message: Message) -> None:
        recipient = message.recipient
        handler = self._handlers.get(recipient)
        if handler is None or recipient in self._offline:
            self.messages_dropped += 1
            return
        message.delivered_at = self.sim.now
        self.messages_delivered += 1
        handler(message)
