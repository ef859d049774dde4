"""Tests for the identifier space and the Kademlia DHT simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p.identifiers import (
    ID_SPACE,
    bucket_index,
    closest,
    key_for,
    random_id,
    ring_distance,
    xor_distance,
)
from repro.p2p.kademlia import KademliaConfig, KademliaNetwork
from repro.sim.rng import SeededRNG


class TestIdentifiers:
    def test_random_id_in_range(self):
        rng = SeededRNG(1)
        for _ in range(100):
            assert 0 <= random_id(rng) < ID_SPACE

    def test_key_for_deterministic(self):
        assert key_for("hello") == key_for("hello")
        assert key_for("hello") != key_for("world")
        assert 0 <= key_for("hello") < ID_SPACE

    def test_xor_distance_properties(self):
        assert xor_distance(5, 5) == 0
        assert xor_distance(3, 10) == xor_distance(10, 3)

    def test_ring_distance_wraps(self):
        assert ring_distance(10, 20) == 10
        assert ring_distance(20, 10) == ID_SPACE - 10
        assert ring_distance(7, 7) == 0

    def test_bucket_index(self):
        assert bucket_index(0, 1) == 0
        assert bucket_index(0, 2) == 1
        assert bucket_index(0, 1 << 159) == 159
        assert bucket_index(5, 5) == -1

    def test_closest_sorting(self):
        ids = [0b1000, 0b0001, 0b0011]
        assert closest(ids, 0b0000, count=2) == [0b0001, 0b0011]

    @given(st.integers(min_value=0, max_value=ID_SPACE - 1), st.integers(min_value=0, max_value=ID_SPACE - 1))
    @settings(max_examples=80, deadline=None)
    def test_xor_distance_symmetry_and_identity(self, a, b):
        assert xor_distance(a, b) == xor_distance(b, a)
        assert xor_distance(a, a) == 0

    @given(
        st.integers(min_value=0, max_value=ID_SPACE - 1),
        st.integers(min_value=0, max_value=ID_SPACE - 1),
        st.integers(min_value=0, max_value=ID_SPACE - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_xor_triangle_inequality(self, a, b, c):
        assert xor_distance(a, c) <= xor_distance(a, b) + xor_distance(b, c)

    @given(st.integers(min_value=0, max_value=ID_SPACE - 1), st.integers(min_value=0, max_value=ID_SPACE - 1))
    @settings(max_examples=80, deadline=None)
    def test_ring_distance_in_range(self, a, b):
        assert 0 <= ring_distance(a, b) < ID_SPACE


def small_dht(size=60, config=None, seed=1):
    return KademliaNetwork(size=size, config=config or KademliaConfig(), seed=seed)


class TestKademliaRoutingTable:
    def test_network_requires_two_nodes(self):
        with pytest.raises(ValueError):
            KademliaNetwork(size=1)

    def test_bootstrap_populates_buckets(self):
        dht = small_dht()
        assert all(len(node.contacts()) > 0 for node in dht.nodes.values())

    def test_bucket_size_respected(self):
        dht = small_dht(config=KademliaConfig(k=4))
        for node in dht.nodes.values():
            for bucket in node.buckets.values():
                assert len(bucket) <= 4

    def test_observe_moves_to_most_recent(self):
        dht = small_dht()
        node = next(iter(dht.nodes.values()))
        contact = node.contacts()[0]
        node.observe(contact)
        index = max(
            (i for i, bucket in node.buckets.items() if contact in bucket), default=None
        )
        assert node.buckets[index][-1] == contact

    def test_observe_ignores_self(self):
        dht = small_dht()
        node = next(iter(dht.nodes.values()))
        before = len(node.contacts())
        node.observe(node.node_id)
        assert len(node.contacts()) == before

    def test_evict_removes_contact(self):
        dht = small_dht()
        node = next(iter(dht.nodes.values()))
        contact = node.contacts()[0]
        node.evict(contact)
        assert contact not in node.contacts()

    def test_closest_contacts_sorted_by_distance(self):
        dht = small_dht()
        node = next(iter(dht.nodes.values()))
        target = random_id(SeededRNG(9))
        result = node.closest_contacts(target, count=5)
        distances = [xor_distance(c, target) for c in result]
        assert distances == sorted(distances)

    def test_stale_injection_increases_staleness(self):
        clean = small_dht(config=KademliaConfig(initial_stale_fraction=0.0))
        stale = small_dht(config=KademliaConfig(initial_stale_fraction=0.5))
        assert stale.routing_table_staleness() > clean.routing_table_staleness()


class TestKademliaLookup:
    def test_lookup_completes_and_finds_close_nodes(self):
        dht = small_dht(size=80)
        rng = SeededRNG(5)
        target = random_id(rng)
        results = []
        dht.lookup(dht.node_ids()[0], target, results.append)
        dht.sim.run(until=300.0)
        assert len(results) == 1
        result = results[0]
        assert result.success
        assert result.hops > 0
        assert len(result.closest) > 0
        # The closest found should be among the true closest of the whole network.
        true_closest = set(closest(dht.node_ids(), target, count=10))
        assert set(result.closest[:3]) & true_closest

    def test_lookup_event_triggered_with_result(self):
        dht = small_dht(size=50)
        rng = SeededRNG(6)
        results = []
        assert dht.lookup(dht.node_ids()[0], random_id(rng), results.append) is None
        dht.sim.run(until=300.0)
        (result,) = results
        assert result.success

    def test_lookup_latency_increases_with_offline_nodes(self):
        fast = small_dht(size=80, seed=7)
        slow = small_dht(size=80, seed=7)
        for node_id in slow.node_ids()[: len(slow.node_ids()) // 2]:
            slow.set_node_online(node_id, False)
        rng = SeededRNG(8)
        targets = [random_id(rng) for _ in range(10)]

        def run(network):
            results = []
            online = [n.node_id for n in network.online_nodes()]
            for index, target in enumerate(targets):
                network.lookup(online[index % len(online)], target, results.append)
            network.sim.run(until=2000.0)
            return sum(r.latency for r in results if r.success) / max(
                1, sum(1 for r in results if r.success)
            )

        assert run(slow) > run(fast)

    def test_metrics_recorded(self):
        dht = small_dht(size=50)
        rng = SeededRNG(10)
        dht.lookup(dht.node_ids()[0], random_id(rng))
        dht.sim.run(until=200.0)
        assert dht.metrics.counter("lookups").value == 1
        assert dht.metrics.sample("lookup_latency").count() == 1

    def test_maintenance_reduces_staleness(self):
        dht = small_dht(size=100, config=KademliaConfig(initial_stale_fraction=0.4), seed=3)
        before = dht.routing_table_staleness()
        dht.warm_up(passes=3)
        assert dht.routing_table_staleness() < before

    def test_config_presets_differ(self):
        kad = KademliaConfig.kad_like()
        mainline = KademliaConfig.mainline_like()
        assert kad.rpc_timeout < mainline.rpc_timeout
        assert kad.alpha > mainline.alpha
        assert kad.initial_stale_fraction < mainline.initial_stale_fraction
