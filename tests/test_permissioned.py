"""Tests for the permissioned (Fabric-like) blockchain: MSP, ledger, chaincode, pipeline."""

import pytest

from repro.permissioned.chaincode import (
    ChaincodeError,
    ChaincodeRegistry,
    asset_transfer_chaincode,
    provenance_chaincode,
    record_sharing_chaincode,
)
from repro.permissioned.fabric import (
    ChannelConfig,
    EndorsementPolicy,
    FabricNetwork,
    FabricNetworkConfig,
    OrderingConfig,
)
from repro.permissioned.identity import MembershipService, Organization
from repro.permissioned.ledger import Ledger, ReadWriteSet, ValidationCode, WorldState


class TestMembershipService:
    def test_enroll_and_validate(self):
        msp = MembershipService([Organization("acme")])
        identity = msp.enroll("peer1", "acme", role="peer")
        assert msp.get("peer1") is identity
        assert (identity.organization, identity.role) == ("acme", "peer")
        assert identity.certificate
        with pytest.raises(KeyError):
            msp.get("peer2")

    def test_unknown_organization_rejected(self):
        msp = MembershipService()
        with pytest.raises(KeyError):
            msp.enroll("x", "ghost")

    def test_duplicate_enrollment_rejected(self):
        msp = MembershipService([Organization("acme")])
        msp.enroll("peer1", "acme")
        with pytest.raises(ValueError):
            msp.enroll("peer1", "acme")

    def test_duplicate_organization_rejected(self):
        msp = MembershipService([Organization("acme")])
        with pytest.raises(ValueError):
            msp.add_organization(Organization("acme"))


class TestWorldStateAndLedger:
    def test_versions_increment(self):
        state = WorldState()
        assert state.get("k") == (None, 0)
        assert state.put("k", "v1") == 1
        assert state.put("k", "v2") == 2
        assert state.get("k") == ("v2", 2)

    def test_ledger_commits_valid_transaction(self):
        ledger = Ledger()
        rwset = ReadWriteSet(reads={"a": 0}, writes={"a": 10})
        outcomes = ledger.validate_and_commit([("tx1", rwset, True)])
        assert outcomes[0].code is ValidationCode.VALID
        assert ledger.world_state.get("a") == (10, 1)
        assert ledger.height == 1

    def test_mvcc_conflict_detected_within_block(self):
        ledger = Ledger()
        first = ReadWriteSet(reads={"a": 0}, writes={"a": 1})
        second = ReadWriteSet(reads={"a": 0}, writes={"a": 2})   # stale read of version 0
        outcomes = ledger.validate_and_commit([("tx1", first, True), ("tx2", second, True)])
        assert outcomes[0].code is ValidationCode.VALID
        assert outcomes[1].code is ValidationCode.MVCC_CONFLICT
        assert ledger.world_state.get("a") == (1, 1)

    def test_mvcc_conflict_across_blocks(self):
        ledger = Ledger()
        ledger.validate_and_commit([("tx1", ReadWriteSet(reads={"a": 0}, writes={"a": 1}), True)])
        stale = ReadWriteSet(reads={"a": 0}, writes={"a": 99})
        outcomes = ledger.validate_and_commit([("tx2", stale, True)])
        assert outcomes[0].code is ValidationCode.MVCC_CONFLICT

    def test_endorsement_failure_marked(self):
        ledger = Ledger()
        outcomes = ledger.validate_and_commit([("tx1", ReadWriteSet(), False)])
        assert outcomes[0].code is ValidationCode.ENDORSEMENT_FAILURE
        assert ledger.validity_rate() == 0.0

    def test_validity_rate(self):
        ledger = Ledger()
        ledger.validate_and_commit(
            [
                ("tx1", ReadWriteSet(reads={"a": 0}, writes={"a": 1}), True),
                ("tx2", ReadWriteSet(reads={"a": 0}, writes={"a": 2}), True),
            ]
        )
        assert ledger.validity_rate() == pytest.approx(0.5)


class TestChaincode:
    def test_asset_transfer_moves_balance(self):
        state = WorldState()
        state.put("balance:alice", 100.0)
        chaincode = asset_transfer_chaincode()
        rwset = chaincode.execute(state, {"source": "alice", "target": "bob", "amount": 30.0})
        assert rwset.writes["balance:alice"] == pytest.approx(70.0)
        assert rwset.writes["balance:bob"] == pytest.approx(30.0)
        assert rwset.reads["balance:alice"] == 1

    def test_asset_transfer_overdraft_guard(self):
        chaincode = asset_transfer_chaincode()
        with pytest.raises(ChaincodeError):
            chaincode.execute(WorldState(), {"source": "a", "target": "b", "amount": 5.0,
                                             "allow_overdraft": False})

    def test_provenance_appends_custody(self):
        state = WorldState()
        chaincode = provenance_chaincode()
        rwset = chaincode.execute(state, {"item": "crate-1", "actor": "carrier-9", "step": "shipped"})
        assert rwset.writes["custody:crate-1"] == ["shipped:carrier-9"]

    def test_record_sharing_grants_and_revokes(self):
        state = WorldState()
        chaincode = record_sharing_chaincode()
        grant = chaincode.execute(state, {"patient": "p1", "grantee": "hospital-2", "grant": True})
        assert "hospital-2" in grant.writes["acl:p1"]
        state.put("acl:p1", grant.writes["acl:p1"])
        revoke = chaincode.execute(state, {"patient": "p1", "grantee": "hospital-2", "grant": False})
        assert "hospital-2" not in revoke.writes["acl:p1"]

    def test_registry_install_and_lookup(self):
        registry = ChaincodeRegistry()
        registry.install(asset_transfer_chaincode())
        assert "asset-transfer" in registry
        assert registry.get("asset-transfer").name == "asset-transfer"
        with pytest.raises(KeyError):
            registry.get("missing")


class TestEndorsementAndOrdering:
    def test_endorsement_policy(self):
        policy = EndorsementPolicy(required_organizations=2)
        assert policy.satisfied_by(["org0", "org1"])
        assert policy.satisfied_by(["org0", "org1", "org1"])
        assert not policy.satisfied_by(["org0", "org0"])

    def test_ordering_latency_by_mode(self):
        assert OrderingConfig(mode="solo").ordering_latency() < OrderingConfig(mode="raft").ordering_latency()
        assert OrderingConfig(mode="raft").ordering_latency() < OrderingConfig(mode="bft").ordering_latency()
        with pytest.raises(ValueError):
            OrderingConfig(mode="pow").ordering_latency()


class TestFabricNetwork:
    @pytest.fixture(scope="class")
    def network(self):
        fabric = FabricNetwork(FabricNetworkConfig(organizations=4, peers_per_org=2, seed=1))
        fabric.install_chaincode("default", asset_transfer_chaincode())
        return fabric

    def test_channel_membership(self, network):
        assert len(network.channel_peers("default")) == 8
        assert set(network.msp.organization_names()) == {"org0", "org1", "org2", "org3"}

    def test_unknown_chaincode_rejected(self, network):
        with pytest.raises(KeyError):
            network.submit_transaction("default", "no-such-chaincode", {})

    def test_unknown_channel_rejected(self, network):
        with pytest.raises(KeyError):
            network.install_chaincode("ghost-channel", asset_transfer_chaincode())

    def test_workload_commits_transactions(self):
        fabric = FabricNetwork(FabricNetworkConfig(organizations=4, peers_per_org=2, seed=2))
        fabric.install_chaincode("default", asset_transfer_chaincode())
        metrics = fabric.run_workload("default", "asset-transfer", request_rate=400,
                                      duration=3, key_space=5000)
        assert metrics.committed_valid > 600
        assert metrics.throughput_tps > 200
        assert metrics.latencies.mean() < 1.0
        assert metrics.validity_rate > 0.7

    def test_contention_raises_mvcc_conflicts(self):
        fabric = FabricNetwork(FabricNetworkConfig(organizations=4, peers_per_org=2, seed=3))
        fabric.install_chaincode("default", asset_transfer_chaincode())
        contended = fabric.run_workload("default", "asset-transfer", request_rate=500,
                                        duration=2, key_space=5)
        assert contended.validity_rate < 0.8

    def test_channels_isolate_ledgers(self):
        channels = [
            ChannelConfig(name="trade", organizations=["org0", "org1"]),
            ChannelConfig(name="health", organizations=["org2", "org3"]),
        ]
        fabric = FabricNetwork(
            FabricNetworkConfig(organizations=4, peers_per_org=1, channels=channels, seed=4)
        )
        fabric.install_chaincode("trade", asset_transfer_chaincode())
        fabric.install_chaincode("health", record_sharing_chaincode())
        trade_peers = {peer.node_id for peer in fabric.channel_peers("trade")}
        health_peers = {peer.node_id for peer in fabric.channel_peers("health")}
        assert trade_peers.isdisjoint(health_peers)
        metrics = fabric.run_workload("trade", "asset-transfer", request_rate=200, duration=2)
        assert metrics.committed_valid > 0
        # Peers outside the channel never created a ledger for it.
        for peer in fabric.channel_peers("health"):
            assert "trade" not in peer.ledgers

    def test_channel_with_unknown_org_rejected(self):
        with pytest.raises(KeyError):
            FabricNetwork(
                FabricNetworkConfig(
                    organizations=2,
                    channels=[ChannelConfig(name="bad", organizations=["org0", "ghost"])],
                    seed=5,
                )
            )
