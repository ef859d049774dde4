"""Base class for simulated nodes.

A :class:`Node` owns an identifier, a reference to the simulator and the
network, and dispatches incoming messages to ``on_<msg_type>`` methods.  The
protocol simulators (DHTs, blockchain nodes, BFT replicas, Fabric peers)
subclass it.

:meth:`Node._dispatch` is the one dispatch site.  It resolves a message type
to its bound handler once per node and caches it, so a delivery costs one
dict lookup, not a string format and an attribute search.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Optional

from repro.sim.engine import Simulator
from repro.sim.network import Message, Network


class Node:
    """A network participant that dispatches messages by type."""

    def __init__(
        self,
        node_id: Hashable,
        sim: Simulator,
        network: Network,
        region: str = "default",
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.region = region
        self.online = True
        # msg_type -> bound ``on_<msg_type>`` (or ``on_unknown``), filled lazily.
        self._handler_cache: Dict[str, Callable[[Message], None]] = {}
        network.register(node_id, self.receive, region=region)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def go_offline(self) -> None:
        """Take the node off the network (messages to/from it are dropped)."""
        self.online = False
        self.network.set_offline(self.node_id, True)

    def go_online(self) -> None:
        """Bring the node back online."""
        self.online = True
        self.network.set_offline(self.node_id, False)

    def shutdown(self) -> None:
        """Permanently remove the node from the network."""
        self.online = False
        self.network.unregister(self.node_id)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self,
        recipient: Hashable,
        msg_type: str,
        payload: Any = None,
        size_bytes: int = 256,
    ) -> Optional[Message]:
        """Send a message if this node is online."""
        if not self.online:
            return None
        return self.network.send(self.node_id, recipient, msg_type, payload, size_bytes)

    def broadcast(
        self,
        recipients: Iterable[Hashable],
        msg_type: str,
        payload: Any = None,
        size_bytes: int = 256,
    ) -> int:
        """Send the same payload to every recipient via the network fast path.

        Equivalent to calling :meth:`send` per recipient (same counters, same
        RNG draw order) but with the per-message lookups hoisted; returns the
        number of messages sent, 0 when this node is offline.
        """
        if not self.online:
            return 0
        return self.network.broadcast(self.node_id, recipients, msg_type, payload, size_bytes)

    def receive(self, message: Message) -> None:
        """Handle a message the network delivered: dispatch it now."""
        self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        """Run ``on_<msg_type>`` (``on_unknown`` if there is none) while online."""
        if not self.online:
            return
        msg_type = message.msg_type
        handler = self._handler_cache.get(msg_type)
        if handler is None:
            handler = getattr(self, f"on_{msg_type}", None) or self.on_unknown
            self._handler_cache[msg_type] = handler
        handler(message)

    def on_unknown(self, message: Message) -> None:
        """Hook for unhandled message types; default is to ignore them."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "online" if self.online else "offline"
        return f"{type(self).__name__}({self.node_id!r}, {state})"
