"""Tests for the edge model, workloads, the figure1 comparison and the decision framework."""

import pytest

from repro.core.claims import CLAIMS
from repro.blockchain.network import BITCOIN_PROTOCOL, ETHEREUM_PROTOCOL
from repro.blockchain.throughput import REFERENCE_SYSTEMS
from repro.core.decision import DecisionInput, recommend_architecture
from repro.edge.islands import BlockchainIsland, IslandFederation
from repro.edge.placement import PlacementStrategy, compare_placements
from repro.edge.topology import EdgeTopology, EdgeTopologyConfig, TIER_LATENCIES
from repro.permissioned.chaincode import VerticalWorkload, chaincode_by_name
from repro.permissioned.ledger import WorldState
from repro.scenarios import run_study


class TestEdgeTopology:
    def test_tiers_built(self):
        topology = EdgeTopology(EdgeTopologyConfig(regions=2, organizations_per_region=2,
                                                   devices_per_organization=10))
        assert len(topology.devices) == 40
        assert len(topology.edge_sites) == 4
        assert len(topology.regional_sites) == 2
        assert len(topology.central_sites) == 1

    def test_latency_ordering_edge_regional_central(self):
        topology = EdgeTopology(EdgeTopologyConfig(seed=1))
        device = topology.devices[0]
        edge = topology.edge_site_of(device.organization)
        regional = topology.nearest_regional(device)
        central = topology.central()
        edge_latency = topology.latency(device, edge, jitter=False)
        regional_latency = topology.latency(device, regional, jitter=False)
        central_latency = topology.latency(device, central, jitter=False)
        assert edge_latency < regional_latency < central_latency

    def test_cross_region_penalty(self):
        topology = EdgeTopology(EdgeTopologyConfig(regions=2, seed=2))
        device = topology.devices[0]
        local_dc = topology.nearest_regional(device)
        remote_dc = next(s for s in topology.regional_sites if s.region != device.region)
        assert topology.latency(device, remote_dc, jitter=False) > topology.latency(
            device, local_dc, jitter=False
        )

    def test_invalid_tier_rejected(self):
        from repro.edge.topology import Site

        with pytest.raises(ValueError):
            Site(name="x", tier="orbital", region="r", organization="o")

    def test_tier_latency_table_ordered(self):
        assert (
            TIER_LATENCIES["device"]
            < TIER_LATENCIES["edge"]
            < TIER_LATENCIES["regional"]
            < TIER_LATENCIES["central"]
        )


class TestPlacement:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_placements(requests=800, seed=3)

    def test_edge_latency_several_fold_lower(self, comparison):
        assert comparison.speedup("cloud-only", "edge-centric") > 3.0

    def test_edge_trust_is_decentralized(self, comparison):
        assert comparison.results["cloud-only"].trust_nakamoto == 1
        assert comparison.results["edge-centric"].trust_nakamoto > 1

    def test_edge_keeps_data_local(self, comparison):
        assert comparison.results["edge-centric"].control_locality > 0.8
        assert comparison.results["cloud-only"].control_locality == 0.0

    def test_regional_between_edge_and_central(self, comparison):
        edge = comparison.results["edge-centric"].p50_latency
        regional = comparison.results["regional-cloud"].p50_latency
        central = comparison.results["cloud-only"].p50_latency
        assert edge < regional < central

    def test_summaries_have_keys(self, comparison):
        for result in comparison.results.values():
            summary = result.summary()
            for key in ("p50_latency_ms", "p99_latency_ms", "trust_nakamoto", "control_locality"):
                assert key in summary

    def test_strategy_presets(self):
        assert PlacementStrategy.cloud_only().name == "cloud-only"
        assert PlacementStrategy.edge_centric().overflow_probability > 0


class TestIslands:
    def test_island_runs_workload(self):
        island = BlockchainIsland(name="supply", domain="supply-chain", organizations=3, seed=1)
        metrics = island.run_intra_island_workload(request_rate=150, duration=2)
        assert metrics.committed_valid > 100
        assert metrics.latencies.mean() < 1.0

    def test_federation_interop_overhead_bounded(self):
        federation = IslandFederation(seed=2)
        federation.add_island(BlockchainIsland(name="trade", domain="supply-chain", seed=3))
        federation.add_island(BlockchainIsland(name="health", domain="healthcare", seed=4))
        federation.connect("trade", "health")
        report = federation.interoperability_overhead("trade", "health",
                                                      request_rate=120, duration=2)
        assert report["cross_island_latency_s"] > report["intra_island_latency_s"]
        assert report["overhead_factor"] < 6.0

    def test_duplicate_island_rejected(self):
        federation = IslandFederation()
        federation.add_island(BlockchainIsland(name="a", domain="finance", organizations=3, seed=5))
        with pytest.raises(ValueError):
            federation.add_island(BlockchainIsland(name="a", domain="finance", organizations=3, seed=6))

    def test_gateway_requires_member_islands(self):
        federation = IslandFederation()
        with pytest.raises(KeyError):
            federation.connect("x", "y")

    def test_federation_trust_spreads_across_orgs(self):
        federation = IslandFederation(seed=7)
        federation.add_island(BlockchainIsland(name="a", domain="finance", organizations=3, seed=8))
        federation.add_island(BlockchainIsland(name="b", domain="energy", organizations=3, seed=9))
        entities = federation.federation_trust_entities()
        assert len(entities) == 6
        assert sum(entities.values()) == pytest.approx(1.0)


class TestWorkloads:
    def test_vertical_workload_domains(self):
        # Every domain's invocations are arguments its chaincode accepts.
        for domain, name in VerticalWorkload.DOMAINS.items():
            workload = VerticalWorkload(domain, entities=50, seed=5)
            chaincode = chaincode_by_name(name)
            assert workload.chaincode == chaincode.name
            for _ in range(20):
                assert chaincode.execute(WorldState(), workload.invocation()).writes

    def test_vertical_workload_unknown_domain(self):
        with pytest.raises(ValueError):
            VerticalWorkload("gaming")


class TestDecisionFramework:
    def test_consortium_without_mutual_trust_gets_permissioned(self):
        result = recommend_architecture(DecisionInput(
            participants_known=True, participants_mutually_trusting=False,
        ))
        assert result.architecture == "permissioned-blockchain"

    def test_latency_sensitive_consortium_gets_edge_centric(self):
        result = recommend_architecture(DecisionInput(
            participants_known=True, participants_mutually_trusting=False,
            latency_sensitive=True,
        ))
        assert result.architecture == "edge-centric-permissioned-blockchain"

    def test_trusted_operator_gets_cloud(self):
        result = recommend_architecture(DecisionInput(single_trusted_operator_acceptable=True))
        assert result.architecture in ("centralized-cloud", "edge-plus-cloud")

    def test_open_anonymous_participation_gets_permissionless_with_warnings(self):
        result = recommend_architecture(DecisionInput(
            open_anonymous_participation_required=True,
            throughput_tps_required=1000,
            latency_sensitive=True,
        ))
        assert result.architecture == "permissionless-blockchain"
        assert len(result.warnings) >= 2


class TestClaimsRegistry:
    def test_sixteen_claims_registered(self):
        assert len(CLAIMS) == 16
        assert {claim.claim_id for claim in CLAIMS} == {f"E{i}" for i in range(1, 17)}

    def test_every_claim_names_a_benchmark_and_modules(self):
        for claim in CLAIMS:
            assert claim.benchmark.startswith("benchmarks/test_")
            assert len(claim.modules) >= 1
            assert claim.section
            assert claim.statement


class TestArchitectureComparison:
    """The ``figure1`` study with every network driven at saturation."""

    @pytest.fixture(scope="class")
    def members(self):
        results = run_study(
            "figure1", seed=2, members=["bitcoin", "ethereum", "fabric", "edge"],
            member_overrides={
                "bitcoin": {"architecture.duration_blocks": 25,
                            "architecture.tx_arrival_rate":
                                BITCOIN_PROTOCOL.capacity_tps * 2.0},
                "ethereum": {"architecture.duration_blocks": 100,
                             "architecture.tx_arrival_rate":
                                 ETHEREUM_PROTOCOL.capacity_tps * 2.0},
                "fabric": {"workload.rate_tps": 1000, "duration": 3},
            })
        return {result.label: result for result in results}

    def test_all_architectures_present(self, members):
        assert set(members) == {"bitcoin", "ethereum", "fabric", "edge"}

    def test_throughput_ordering_matches_paper(self, members):
        assert (members["bitcoin"].metric("throughput_tps")
                < members["ethereum"].metric("throughput_tps") * 2)
        assert members["ethereum"].metric("throughput_tps") < 50
        assert members["fabric"].metric("throughput_tps") > 100
        # The partitioned cloud stays the analytic ceiling.
        assert (REFERENCE_SYSTEMS["visa"].paper_tps_high
                > members["fabric"].metric("throughput_tps"))

    def test_permissionless_energy_dwarfs_everything(self, members):
        assert (members["bitcoin"].metric("energy_per_tx_kwh")
                > 1e5 * members["fabric"].metric("energy_per_tx_kwh"))

    def test_trust_decentralization(self, members):
        assert members["fabric"].metric("trust_nakamoto") > 1
        assert members["edge"].metric("trust_nakamoto") > 1

    def test_finality_gap(self, members):
        assert members["bitcoin"].metric("finality_nominal_s") > 1000
        assert members["fabric"].metric("mean_latency_s") < 1.0

    def test_throughput_gap_is_orders_of_magnitude(self, members):
        assert (members["fabric"].metric("throughput_tps")
                > 20 * members["bitcoin"].metric("throughput_tps"))
