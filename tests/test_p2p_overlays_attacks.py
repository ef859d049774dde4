"""Tests for Chord, Gnutella, superpeer, one-hop overlays, Sybil, free riding, BitTorrent."""

import pytest

from repro.p2p.bittorrent import SwarmConfig, TitForTatSwarm
from repro.p2p.chord import ChordNetwork
from repro.p2p.freeriding import (
    GNUTELLA_2000_REFERENCE,
    ContributionModel,
    analyze_contributions,
    incentive_sensitivity,
)
from repro.p2p.identifiers import key_for, random_id
from repro.p2p.lookup import LookupExperiment, LookupExperimentConfig
from repro.p2p.onehop import OneHopConfig, OneHopOverlay, OverlayCostModel
from repro.p2p.superpeer import SuperpeerConfig, SuperpeerNetwork
from repro.p2p.sybil import SybilAttackConfig, run_sybil_attack
from repro.p2p.unstructured import GnutellaConfig, GnutellaNetwork
from repro.sim.churn import ChurnModel
from repro.sim.rng import SeededRNG


class TestChord:
    def test_ring_is_sorted_and_unique(self):
        network = ChordNetwork(100, seed=1)
        assert network.ring == sorted(set(network.ring))

    def test_responsible_is_successor(self):
        network = ChordNetwork(50, seed=2)
        key = random_id(SeededRNG(3))
        responsible = network.responsible_for(key)
        assert responsible in network.nodes
        # No other node lies between the key and its successor.
        others = [n for n in network.ring if n >= key]
        expected = min(others) if others else network.ring[0]
        assert responsible == expected

    def test_lookup_reaches_responsible_node(self):
        network = ChordNetwork(100, seed=3)
        rng = SeededRNG(4)
        for _ in range(20):
            origin = rng.choice(network.ring)
            key = random_id(rng)
            result = network.lookup(origin, key)
            assert result.success
            assert result.responsible == network.responsible_for(key)

    def test_hops_scale_logarithmically(self):
        def average_hops(network):
            alive = list(network.alive_ids())
            hops = [network.lookup(network.rng.choice(alive), random_id(network.rng)).hops
                    for _ in range(100)]
            return sum(hops) / len(hops)

        small = average_hops(ChordNetwork(50, seed=5))
        large = average_hops(ChordNetwork(400, seed=5))
        assert small < large < small + 6

    def test_failed_nodes_reduce_success(self):
        network = ChordNetwork(100, successor_list_size=2, seed=6)
        network.fail_nodes(0.5)
        rng = SeededRNG(7)
        alive = list(network.alive_ids())
        outcomes = [network.lookup(rng.choice(alive), random_id(rng)) for _ in range(40)]
        assert any(not outcome.success for outcome in outcomes) or all(
            outcome.success for outcome in outcomes
        )
        # Lookups from failed nodes are rejected outright.
        dead = next(n for n in network.ring if n not in network.alive_ids())
        assert not network.lookup(dead, random_id(rng)).success

    def test_routing_state_is_logarithmic(self):
        network = ChordNetwork(200, seed=8)
        assert network.routing_state_per_node() < 60

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ChordNetwork(1)


def mean_over_queries(network, count, field):
    outcomes = network.run_queries(count)
    return sum(getattr(outcome, field) for outcome in outcomes) / len(outcomes)


class TestGnutella:
    def test_flooding_reaches_more_peers_with_higher_ttl(self):
        low = GnutellaNetwork(GnutellaConfig(size=400, ttl=2), seed=1)
        high = GnutellaNetwork(GnutellaConfig(size=400, ttl=5), seed=1)
        assert (mean_over_queries(high, 50, "peers_reached")
                > mean_over_queries(low, 50, "peers_reached"))

    def test_message_cost_grows_with_ttl(self):
        low = GnutellaNetwork(GnutellaConfig(size=400, ttl=2), seed=2)
        high = GnutellaNetwork(GnutellaConfig(size=400, ttl=5), seed=2)
        assert (mean_over_queries(high, 50, "messages")
                > mean_over_queries(low, 50, "messages"))

    def test_recall_drops_when_few_peers_share(self):
        sharing = GnutellaNetwork(GnutellaConfig(size=500, sharing_fraction=1.0, ttl=3), seed=3)
        freeriding = GnutellaNetwork(
            GnutellaConfig(size=500, sharing_fraction=0.05, replicas_per_object=2, ttl=3), seed=3
        )
        assert (mean_over_queries(freeriding, 100, "found")
                < mean_over_queries(sharing, 100, "found"))

    def test_query_outcome_fields(self):
        network = GnutellaNetwork(GnutellaConfig(size=200), seed=4)
        outcome = network.query(0, object_id=0)
        assert outcome.messages > 0
        assert outcome.peers_reached > 1

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            GnutellaNetwork(GnutellaConfig(size=1))


class TestSuperpeer:
    def test_queries_touch_few_superpeers(self):
        network = SuperpeerNetwork(SuperpeerConfig(leaves=500, superpeers=20), seed=1)
        report = network.run_queries(100)
        assert report["mean_hops"] <= 3.5
        assert report["mean_superpeers_contacted"] <= 20

    def test_superpeer_tier_is_centralized(self):
        network = SuperpeerNetwork(SuperpeerConfig(leaves=500, superpeers=20), seed=2)
        report = network.centralization_report()
        assert report["superpeer_fraction_of_peers"] < 0.1
        assert report["index_nakamoto"] <= 20

    def test_recall_reasonable(self):
        network = SuperpeerNetwork(SuperpeerConfig(leaves=400, superpeers=16), seed=3)
        assert network.run_queries(100)["recall"] > 0.3

    def test_requires_superpeer(self):
        with pytest.raises(ValueError):
            SuperpeerNetwork(SuperpeerConfig(superpeers=0))


class TestOneHop:
    def test_onehop_state_grows_linearly(self):
        model = OverlayCostModel()
        assert model.onehop_state_bytes(100_000) == 10 * model.onehop_state_bytes(10_000)

    def test_multihop_state_grows_logarithmically(self):
        model = OverlayCostModel()
        assert model.multihop_state_bytes(100_000) < 2 * model.multihop_state_bytes(1_000)

    def test_onehop_latency_below_multihop(self):
        model = OverlayCostModel()
        assert model.onehop_lookup_latency() < model.multihop_lookup_latency(10_000)

    def test_onehop_feasible_for_stable_10k(self):
        model = OverlayCostModel()
        assert model.onehop_feasible(10_000, churn_events_per_node_hour=0.2)
        assert model.onehop_feasible(100_000, churn_events_per_node_hour=0.2)

    def test_onehop_infeasible_under_heavy_churn_at_scale(self):
        model = OverlayCostModel()
        assert not model.onehop_feasible(
            1_000_000, churn_events_per_node_hour=4.0, bandwidth_budget_kbps=50.0
        )

    def test_maintenance_grows_with_churn(self):
        model = OverlayCostModel()
        calm = model.onehop_maintenance_bps(10_000, 0.5)
        stormy = model.onehop_maintenance_bps(10_000, 5.0)
        assert stormy == pytest.approx(10 * calm)

    def test_overlay_staleness_probability(self):
        stable = OneHopOverlay(OneHopConfig(churn=ChurnModel.stable()), seed=1)
        churny = OneHopOverlay(OneHopConfig(churn=ChurnModel.aggressive()), seed=1)
        assert stable.staleness_probability() < churny.staleness_probability()

    def test_overlay_latencies_sampled(self):
        overlay = OneHopOverlay(OneHopConfig(churn=ChurnModel.stable()), seed=2)
        latencies = overlay.lookup_latencies(lookups=200)
        assert len(latencies) == 200
        assert all(latency > 0 for latency in latencies)

    def test_compare_keys(self):
        report = OverlayCostModel().compare(10_000, 2.0)
        for key in ("onehop_state_mb", "onehop_maintenance_kbps", "multihop_lookup_latency_s"):
            assert key in report


class TestSybilAttack:
    def test_hijack_grows_with_identity_count(self):
        low = run_sybil_attack(
            SybilAttackConfig(honest_nodes=150, attacker_machines=4, identities_per_machine=5,
                              lookups=40, seed=1)
        )
        high = run_sybil_attack(
            SybilAttackConfig(honest_nodes=150, attacker_machines=4, identities_per_machine=100,
                              lookups=40, seed=1)
        )
        assert high.hijack_rate > low.hijack_rate
        assert high.identity_share > low.identity_share

    def test_targeted_attack_is_devastatingly_cheap(self):
        result = run_sybil_attack(
            SybilAttackConfig(
                honest_nodes=150,
                attacker_machines=2,
                identities_per_machine=16,
                lookups=30,
                targeted_key=key_for("victim-content"),
                seed=2,
            )
        )
        assert result.physical_share < 0.02
        assert result.hijack_rate > 0.9

    def test_amplification_exceeds_physical_share(self):
        result = run_sybil_attack(
            SybilAttackConfig(honest_nodes=150, attacker_machines=4, identities_per_machine=80,
                              lookups=40, seed=3)
        )
        assert result.amplification > 1.0

    def test_result_accounting(self):
        result = run_sybil_attack(
            SybilAttackConfig(honest_nodes=100, attacker_machines=2, identities_per_machine=10,
                              lookups=20, seed=4)
        )
        assert result.total_lookups == 20
        assert 0.0 <= result.hijack_rate <= 1.0


class TestFreeRiding:
    def test_reference_shape_reproduced(self):
        model = ContributionModel(peers=8000, free_rider_fraction=0.70)
        report = analyze_contributions(model.generate(seed=1))
        assert abs(report.free_rider_fraction - 0.70) < 0.03
        assert report.top_1pct_share > 0.25
        assert report.top_25pct_share > 0.9
        assert report.matches_reference(GNUTELLA_2000_REFERENCE)

    def test_gini_high_for_skewed_contributions(self):
        report = analyze_contributions(ContributionModel(peers=5000).generate(seed=2))
        assert report.gini > 0.7

    def test_incentives_reduce_free_riding(self):
        reports = incentive_sensitivity([0.0, 0.5, 1.0], peers=3000, seed=3)
        fractions = [report.free_rider_fraction for report in reports]
        assert fractions[0] > fractions[1] > fractions[2]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            analyze_contributions([])
        with pytest.raises(ValueError):
            ContributionModel(free_rider_fraction=1.5).generate()
        with pytest.raises(ValueError):
            incentive_sensitivity([2.0])


class TestTitForTat:
    def test_contributors_finish_faster_than_free_riders(self):
        swarm = TitForTatSwarm(SwarmConfig(leechers=40, seeds=3, file_pieces=200,
                                           free_rider_fraction=0.3), seed=1)
        result = swarm.run()
        assert result.free_rider_penalty() > 1.1

    def test_everyone_eventually_completes(self):
        swarm = TitForTatSwarm(SwarmConfig(leechers=30, seeds=3, file_pieces=150), seed=2)
        result = swarm.run()
        assert len(result.completion_rounds) == 30

    def test_seeding_collapses_after_completion(self):
        config = SwarmConfig(leechers=30, seeds=3, file_pieces=150, seed_lingering_rounds=2)
        swarm = TitForTatSwarm(config, seed=3)
        result = swarm.run()
        # Once downloads finish, almost nobody stays to seed: the remaining
        # seed population is far below the number of peers that completed.
        assert result.seeds_over_time[-1] < 0.3 * (config.leechers + config.seeds)

    def test_uploads_correlate_with_downloads_for_leechers(self):
        swarm = TitForTatSwarm(SwarmConfig(leechers=40, seeds=3, file_pieces=200,
                                           free_rider_fraction=0.25), seed=4)
        result = swarm.run()
        contributor_uploads = sum(result.uploads[p] for p in result.contributors)
        free_rider_uploads = sum(result.uploads[p] for p in result.free_riders)
        assert contributor_uploads > free_rider_uploads


class TestLookupExperimentScenarios:
    def test_kad_scenario_faster_than_mainline(self):
        kad = LookupExperiment(
            LookupExperimentConfig.kad_scenario(network_size=250, lookups=60, seed=5)
        ).run()
        mainline = LookupExperiment(
            LookupExperimentConfig.mainline_scenario(network_size=250, lookups=60, seed=5)
        ).run()
        assert kad.latencies.median() < mainline.latencies.median() / 5
        assert kad.summary()["fraction_within_5s"] > 0.7

    def test_stable_network_beats_churny_network(self):
        stable = LookupExperiment(
            LookupExperimentConfig(network_size=250, lookups=60, churn=None, seed=6)
        ).run()
        churny = LookupExperiment(
            LookupExperimentConfig(network_size=250, lookups=60, churn=ChurnModel.aggressive(), seed=6)
        ).run()
        assert stable.latencies.mean() <= churny.latencies.mean()
        assert stable.failure_rate <= churny.failure_rate + 0.05
