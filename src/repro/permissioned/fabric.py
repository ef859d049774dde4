"""Execute–order–validate pipeline: the Fabric-like permissioned network.

The transaction flow follows Hyperledger Fabric's architecture (the paper's
reference for permissioned blockchains):

1. **Execute** — the client sends a proposal to endorsing peers of the
   organizations required by the endorsement policy; each endorser runs the
   chaincode against its current world state, producing a read/write set,
   and returns a signed endorsement.
2. **Order** — the client assembles the endorsements into an envelope and
   submits it to the ordering service, which batches envelopes into blocks
   (size/timeout cut) using a CFT (Raft-like) or BFT ordering mode.
3. **Validate** — every peer of the channel receives the block, checks the
   endorsement policy and performs MVCC validation against its ledger, then
   commits.

Channels implement the paper's observation that "consensus or replication
can be configured between a subset of the nodes of the network": each
channel has its own member organizations, ledger and ordering parameters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.consensus.base import CpuBoundNode, ReplicaParams
from repro.permissioned.chaincode import Chaincode, ChaincodeError, ChaincodeRegistry
from repro.permissioned.identity import Identity, MembershipService, Organization
from repro.permissioned.ledger import Ledger, ReadWriteSet, ValidationCode
from repro.sim.engine import Simulator
from repro.sim.metrics import Sample
from repro.sim.network import Network, NetworkParams
from repro.sim.rng import SeededRNG


@dataclass
class EndorsementPolicy:
    """How many distinct organizations must endorse a transaction."""

    required_organizations: int = 2

    def satisfied_by(self, endorsing_orgs: List[str]) -> bool:
        """Whether the collected endorsements satisfy the policy."""
        return len(set(endorsing_orgs)) >= self.required_organizations


@dataclass
class OrderingConfig:
    """Ordering-service behaviour.

    ``mode`` selects the consensus latency model: ``"raft"`` adds one
    majority round trip among orderers, ``"bft"`` adds three all-to-all
    phases, ``"solo"`` adds nothing (single orderer, development only).
    The per-mode latencies are calibrated against the message-level
    simulators in :mod:`repro.consensus`.
    """

    mode: str = "raft"
    orderers: int = 5
    batch_size: int = 100
    batch_timeout: float = 0.25
    orderer_rtt: float = 0.02

    def ordering_latency(self) -> float:
        """Consensus latency added by the ordering service per block."""
        if self.mode == "solo":
            return 0.001
        if self.mode == "raft":
            return 1.5 * self.orderer_rtt
        if self.mode == "bft":
            return 3.0 * self.orderer_rtt
        raise ValueError(f"unknown ordering mode {self.mode!r}")


@dataclass
class ChannelConfig:
    """A channel: member organizations, policy and ordering parameters."""

    name: str
    organizations: List[str]
    endorsement_policy: EndorsementPolicy = field(default_factory=EndorsementPolicy)
    ordering: OrderingConfig = field(default_factory=OrderingConfig)


@dataclass
class FabricNetworkConfig:
    """Whole-network configuration."""

    organizations: int = 4
    peers_per_org: int = 2
    channels: Optional[List[ChannelConfig]] = None
    peer_params: ReplicaParams = field(default_factory=lambda: ReplicaParams(
        cpu_time_per_message=0.0001, cpu_time_per_request_byte=1e-8
    ))
    network_params: Optional[NetworkParams] = None
    proposal_bytes: int = 600
    endorsement_bytes: int = 400
    seed: int = 0


@dataclass
class FabricMetrics:
    """Measured outcome of a Fabric workload on one channel."""

    channel: str
    submitted: int
    committed_valid: int
    committed_invalid: int
    duration: float
    latencies: Sample

    @property
    def throughput_tps(self) -> float:
        """Valid transactions committed per second."""
        return self.committed_valid / self.duration if self.duration > 0 else 0.0

    @property
    def validity_rate(self) -> float:
        """Valid transactions as a fraction of all committed."""
        total = self.committed_valid + self.committed_invalid
        return self.committed_valid / total if total else 1.0

    def summary(self) -> Dict[str, float]:
        """Headline numbers for tables."""
        return {
            "channel": self.channel,
            "throughput_tps": self.throughput_tps,
            "mean_latency_s": self.latencies.mean(),
            "p99_latency_s": self.latencies.percentile(99),
            "validity_rate": self.validity_rate,
            "committed_valid": float(self.committed_valid),
        }


class FabricPeer(CpuBoundNode):
    """An endorsing/committing peer belonging to one organization."""

    def __init__(
        self,
        name: str,
        organization: str,
        sim: Simulator,
        network: Network,
        fabric: "FabricNetwork",
    ) -> None:
        super().__init__(name, sim, network, params=fabric.config.peer_params)
        self.organization = organization
        self.fabric = fabric
        self.ledgers: Dict[str, Ledger] = {}

    def join_channel(self, channel: str) -> None:
        """Create this peer's ledger for the channel."""
        self.ledgers.setdefault(channel, Ledger(channel))

    # -- execute phase -----------------------------------------------------
    def on_proposal(self, message) -> None:
        payload = message.payload
        channel = payload["channel"]
        ledger = self.ledgers.get(channel)
        registry = self.fabric.chaincodes.get(channel)
        if ledger is None or registry is None:
            return
        chaincode = registry.get(payload["chaincode"])
        endorsed = True
        rwset = ReadWriteSet()
        try:
            rwset = chaincode.execute(ledger.world_state, payload["args"])
        except ChaincodeError:
            endorsed = False
        response = {
            "tx_id": payload["tx_id"],
            "endorser": self.node_id,
            "organization": self.organization,
            "endorsed": endorsed,
            "rwset": rwset,
        }
        self.sim.schedule(
            chaincode.execution_time,
            self._reply_endorsement,
            message.sender,
            response,
        )

    def _reply_endorsement(self, client: str, response: Dict) -> None:
        self.send(
            client,
            "endorsement",
            response,
            size_bytes=self.fabric.config.endorsement_bytes,
        )

    # -- validate phase ------------------------------------------------------
    def on_commit_block(self, message) -> None:
        payload = message.payload
        channel = payload["channel"]
        ledger = self.ledgers.get(channel)
        if ledger is None:
            return
        outcomes = ledger.validate_and_commit(payload["transactions"])
        self.fabric.notify_commit(self.node_id, channel, payload["block_number"], outcomes)


class _Client(CpuBoundNode):
    """Submitting client application (one per channel, driven by the harness)."""

    def __init__(self, name: str, sim: Simulator, network: Network, fabric: "FabricNetwork") -> None:
        super().__init__(name, sim, network, params=ReplicaParams(cpu_time_per_message=1e-5))
        self.fabric = fabric
        self.pending: Dict[str, Dict] = {}

    def submit(self, channel: ChannelConfig, chaincode: str, args: Dict) -> str:
        """Send proposals to one endorsing peer of each required organization."""
        tx_id = f"tx-{next(self.fabric.tx_counter)}"
        endorsers = self.fabric.pick_endorsers(channel)
        self.pending[tx_id] = {
            "channel": channel.name,
            "responses": [],
            "needed": channel.endorsement_policy.required_organizations,
            "submitted_at": self.sim.now,
        }
        payload = {"tx_id": tx_id, "channel": channel.name, "chaincode": chaincode, "args": args}
        self.broadcast(
            [peer.node_id for peer in endorsers],
            "proposal",
            payload,
            size_bytes=self.fabric.config.proposal_bytes,
        )
        return tx_id

    def on_endorsement(self, message) -> None:
        response = message.payload
        tx_id = response["tx_id"]
        state = self.pending.get(tx_id)
        if state is None:
            return
        state["responses"].append(response)
        organizations = [r["organization"] for r in state["responses"] if r["endorsed"]]
        if len(set(organizations)) >= state["needed"]:
            envelope = {
                "tx_id": tx_id,
                "channel": state["channel"],
                "rwset": state["responses"][0]["rwset"],
                "endorsing_orgs": organizations,
                "submitted_at": state["submitted_at"],
            }
            self.fabric.ordering_submit(envelope)
            del self.pending[tx_id]


class FabricNetwork:
    """Builds organizations, peers, channels and the ordering service."""

    def __init__(self, config: Optional[FabricNetworkConfig] = None) -> None:
        self.config = config or FabricNetworkConfig()
        self.sim = Simulator()
        self.rng = SeededRNG(self.config.seed)
        params = self.config.network_params or NetworkParams(
            base_latency=0.005, inter_region_latency=0.04, bandwidth_bps=1e9, latency_jitter=0.2
        )
        self.network = Network(self.sim, params, rng=self.rng.fork("net"))
        self.msp = MembershipService()
        self.peers: Dict[str, FabricPeer] = {}
        self.peers_by_org: Dict[str, List[FabricPeer]] = {}
        self.chaincodes: Dict[str, ChaincodeRegistry] = {}
        self.channels: Dict[str, ChannelConfig] = {}
        self.tx_counter = itertools.count(1)
        self._build_organizations()
        self.client = _Client("client-0", self.sim, self.network, self)
        # Ordering state per channel.
        self._order_queues: Dict[str, List[Dict]] = {}
        self._batch_timers: Dict[str, bool] = {}
        self._block_numbers: Dict[str, int] = {}
        # Measurement state.
        self.latencies: Dict[str, Sample] = {}
        self.committed_valid: Dict[str, int] = {}
        self.committed_invalid: Dict[str, int] = {}
        self.submitted: Dict[str, int] = {}
        self._commit_seen: Dict[Tuple[str, int], set] = {}
        self._block_payloads: Dict[Tuple[str, int], List[Dict]] = {}
        default_channels = self.config.channels or [
            ChannelConfig(
                name="default",
                organizations=self.msp.organization_names(),
            )
        ]
        for channel in default_channels:
            self.create_channel(channel)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_organizations(self) -> None:
        for org_index in range(self.config.organizations):
            organization = Organization(name=f"org{org_index}")
            self.msp.add_organization(organization)
            self.peers_by_org[organization.name] = []
            for peer_index in range(self.config.peers_per_org):
                name = f"{organization.name}-peer{peer_index}"
                self.msp.enroll(name, organization.name, role="peer")
                peer = FabricPeer(name, organization.name, self.sim, self.network, self)
                self.peers[name] = peer
                self.peers_by_org[organization.name].append(peer)

    def create_channel(self, channel: ChannelConfig) -> None:
        """Create a channel and join the peers of its member organizations."""
        unknown = [org for org in channel.organizations if org not in self.msp.organizations]
        if unknown:
            raise KeyError(f"unknown organizations in channel {channel.name!r}: {unknown}")
        self.channels[channel.name] = channel
        self.chaincodes.setdefault(channel.name, ChaincodeRegistry())
        self._order_queues[channel.name] = []
        self._batch_timers[channel.name] = False
        self._block_numbers[channel.name] = 0
        self.latencies[channel.name] = Sample(f"{channel.name}-latency")
        self.committed_valid[channel.name] = 0
        self.committed_invalid[channel.name] = 0
        self.submitted[channel.name] = 0
        for org in channel.organizations:
            for peer in self.peers_by_org[org]:
                peer.join_channel(channel.name)

    def install_chaincode(self, channel: str, chaincode: Chaincode) -> None:
        """Install a chaincode on a channel."""
        if channel not in self.channels:
            raise KeyError(f"unknown channel {channel!r}")
        self.chaincodes[channel].install(chaincode)

    def channel_peers(self, channel: str) -> List[FabricPeer]:
        """All peers joined to a channel."""
        config = self.channels[channel]
        result: List[FabricPeer] = []
        for org in config.organizations:
            result.extend(self.peers_by_org[org])
        return result

    def pick_endorsers(self, channel: ChannelConfig) -> List[FabricPeer]:
        """One endorsing peer from each of the required organizations."""
        orgs = list(channel.organizations)
        self.rng.shuffle(orgs)
        chosen = orgs[: channel.endorsement_policy.required_organizations]
        return [self.rng.choice(self.peers_by_org[org]) for org in chosen]

    # ------------------------------------------------------------------
    # Transaction flow
    # ------------------------------------------------------------------
    def submit_transaction(self, channel_name: str, chaincode: str, args: Dict) -> str:
        """Client entry point: start the execute phase for one transaction."""
        channel = self.channels[channel_name]
        if chaincode not in self.chaincodes[channel_name]:
            raise KeyError(f"chaincode {chaincode!r} not installed on {channel_name!r}")
        self.submitted[channel_name] += 1
        return self.client.submit(channel, chaincode, args)

    def ordering_submit(self, envelope: Dict) -> None:
        """Ordering service entry point: queue the envelope for the next block."""
        channel_name = envelope["channel"]
        channel = self.channels[channel_name]
        queue = self._order_queues[channel_name]
        queue.append(envelope)
        if len(queue) >= channel.ordering.batch_size:
            self._cut_block(channel_name)
        elif not self._batch_timers[channel_name]:
            self._batch_timers[channel_name] = True
            self.sim.schedule(channel.ordering.batch_timeout, self._batch_deadline, channel_name)

    def _batch_deadline(self, channel_name: str) -> None:
        self._batch_timers[channel_name] = False
        if self._order_queues[channel_name]:
            self._cut_block(channel_name)

    def _cut_block(self, channel_name: str) -> None:
        channel = self.channels[channel_name]
        queue = self._order_queues[channel_name]
        batch = queue[: channel.ordering.batch_size]
        del queue[: channel.ordering.batch_size]
        if not batch:
            return
        block_number = self._block_numbers[channel_name]
        self._block_numbers[channel_name] += 1
        self._block_payloads[(channel_name, block_number)] = batch
        transactions = [
            (
                envelope["tx_id"],
                envelope["rwset"],
                channel.endorsement_policy.satisfied_by(envelope["endorsing_orgs"]),
            )
            for envelope in batch
        ]
        payload = {
            "channel": channel_name,
            "block_number": block_number,
            "transactions": transactions,
        }
        block_bytes = 200 + 500 * len(batch)
        delay = channel.ordering.ordering_latency()
        peer_ids = [peer.node_id for peer in self.channel_peers(channel_name)]
        self.sim.schedule(
            delay,
            self.network.broadcast,
            "orderer",
            peer_ids,
            "commit_block",
            payload,
            block_bytes,
        )

    def notify_commit(self, peer_id: str, channel: str, block_number: int, outcomes) -> None:
        """Record client-visible commit once the first peer commits the block."""
        key = (channel, block_number)
        seen = self._commit_seen.setdefault(key, set())
        first_commit = not seen
        seen.add(peer_id)
        if not first_commit:
            return
        batch = self._block_payloads.get(key, [])
        by_tx = {envelope["tx_id"]: envelope for envelope in batch}
        for outcome in outcomes:
            envelope = by_tx.get(outcome.tx_id)
            if envelope is None:
                continue
            if outcome.code is ValidationCode.VALID:
                self.committed_valid[channel] += 1
            else:
                self.committed_invalid[channel] += 1
            self.latencies[channel].observe(self.sim.now - envelope["submitted_at"])

    # ------------------------------------------------------------------
    # Workload harness
    # ------------------------------------------------------------------
    def run_workload(
        self,
        channel: str,
        chaincode: str,
        request_rate: float = 1000.0,
        duration: float = 5.0,
        args_factory=None,
        key_space: int = 1000,
    ) -> FabricMetrics:
        """Drive one channel with a Poisson stream of chaincode invocations."""
        if args_factory is None:
            def args_factory(rng: SeededRNG) -> Dict:
                return {
                    "source": f"acct-{rng.randint(0, key_space - 1)}",
                    "target": f"acct-{rng.randint(0, key_space - 1)}",
                    "amount": 1.0,
                }

        interval = 1.0 / request_rate if request_rate > 0 else float("inf")
        deadline = self.sim.now + duration
        workload_rng = self.rng.fork(f"workload:{channel}")

        def _submit_next() -> None:
            if self.sim.now >= deadline:
                return
            self.submit_transaction(channel, chaincode, args_factory(workload_rng))
            self.sim.schedule(workload_rng.exponential(interval), _submit_next)

        self.sim.schedule(0.0, _submit_next)
        self.sim.run(until=deadline + 10.0)
        return FabricMetrics(
            channel=channel,
            submitted=self.submitted[channel],
            committed_valid=self.committed_valid[channel],
            committed_invalid=self.committed_invalid[channel],
            duration=duration,
            latencies=self.latencies[channel],
        )
