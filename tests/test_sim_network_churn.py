"""Tests for the network model, node dispatch and churn processes."""

import pytest

from repro.sim.churn import ChurnModel, ChurnProcess
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkParams
from repro.sim.node import Node
from repro.sim.rng import SeededRNG


class EchoNode(Node):
    """Test node that records pings and replies with pongs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pings = []
        self.pongs = []
        self.unknown = []

    def on_ping(self, message):
        self.pings.append(message)
        self.send(message.sender, "pong", message.payload)

    def on_pong(self, message):
        self.pongs.append(message)

    def on_unknown(self, message):
        self.unknown.append(message)


def make_pair(params=None, seed=0):
    sim = Simulator()
    network = Network(sim, params, rng=SeededRNG(seed))
    a = EchoNode("a", sim, network)
    b = EchoNode("b", sim, network)
    return sim, network, a, b


class TestNetwork:
    def test_message_delivery_and_reply(self):
        sim, network, a, b = make_pair()
        a.send("b", "ping", {"n": 1})
        sim.run()
        assert len(b.pings) == 1
        assert len(a.pongs) == 1
        assert network.messages_delivered == 2

    def test_delivery_has_positive_latency(self):
        sim, network, a, b = make_pair()
        a.send("b", "ping")
        sim.run()
        assert b.pings[0].latency > 0

    def test_larger_messages_take_longer(self):
        params = NetworkParams(latency_jitter=0.0, bandwidth_bps=1_000_000.0)
        sim, network, a, b = make_pair(params)
        small = network.send("a", "b", "ping", size_bytes=100)
        large = network.send("a", "b", "ping", size_bytes=1_000_000)
        sim.run()
        # With no jitter the difference is exactly the serialisation term.
        assert large.latency - small.latency == pytest.approx(
            (1_000_000 - 100) * 8.0 / params.bandwidth_bps)

    def test_inter_region_latency_larger(self):
        sim = Simulator()
        params = NetworkParams(latency_jitter=0.0)
        network = Network(sim, params, rng=SeededRNG(0))
        network.register("x", lambda m: None, region="eu")
        network.register("y", lambda m: None, region="us")
        network.register("z", lambda m: None, region="eu")
        cross = network.send("x", "y", "ping", size_bytes=10)
        local = network.send("x", "z", "ping", size_bytes=10)
        sim.run()
        assert cross.latency > local.latency > 0

    def test_offline_node_drops_messages(self):
        sim, network, a, b = make_pair()
        b.go_offline()
        a.send("b", "ping")
        sim.run()
        assert b.pings == []
        assert network.messages_dropped >= 1

    def test_node_back_online_receives_again(self):
        sim, network, a, b = make_pair()
        b.go_offline()
        b.go_online()
        a.send("b", "ping")
        sim.run()
        assert len(b.pings) == 1

    def test_loss_rate_drops_some_messages(self):
        params = NetworkParams(loss_rate=1.0)
        sim, network, a, b = make_pair(params)
        a.send("b", "ping")
        sim.run()
        assert b.pings == []

    def test_broadcast_excludes_sender(self):
        sim = Simulator()
        network = Network(sim, rng=SeededRNG(0))
        nodes = [EchoNode(f"n{i}", sim, network) for i in range(5)]
        count = network.broadcast("n0", [node.node_id for node in nodes], "ping")
        sim.run()
        assert count == 4
        assert nodes[0].pings == []
        assert all(len(node.pings) == 1 for node in nodes[1:])

    def test_unknown_message_type_hits_on_unknown(self):
        sim, network, a, b = make_pair()
        a.send("b", "mystery")
        sim.run()
        assert len(b.unknown) == 1

    def test_unregistered_recipient_dropped(self):
        sim, network, a, b = make_pair()
        network.unregister("b")
        a.send("b", "ping")
        sim.run()
        assert network.messages_dropped >= 1

    def test_shutdown_removes_node(self):
        sim, network, a, b = make_pair()
        b.shutdown()
        assert list(network.nodes()) == ["a"]


class TestChurnModel:
    def test_availability_formula(self):
        model = ChurnModel(mean_session=3600.0, mean_downtime=1800.0)
        assert model.availability == pytest.approx(2.0 / 3.0)

    def test_presets_have_sensible_availability(self):
        assert 0.4 < ChurnModel.kad_like().availability < 0.8
        assert 0.3 < ChurnModel.bittorrent_like().availability < 0.7
        assert ChurnModel.stable().availability > 0.99

    def test_sample_session_positive(self):
        rng = SeededRNG(1)
        for model in (ChurnModel.kad_like(), ChurnModel.bittorrent_like(), ChurnModel.aggressive()):
            assert all(model.sample_session(rng) > 0 for _ in range(50))

    def test_constant_distribution(self):
        model = ChurnModel(session_distribution="constant", mean_session=100.0)
        assert model.sample_session(SeededRNG(0)) == 100.0

    def test_exponential_and_pareto_distributions(self):
        rng = SeededRNG(2)
        exponential = ChurnModel(session_distribution="exponential", mean_session=50.0)
        pareto = ChurnModel(session_distribution="pareto", mean_session=50.0)
        assert exponential.sample_session(rng) > 0
        assert pareto.sample_session(rng) > 0

    def test_unknown_distribution_raises(self):
        model = ChurnModel(session_distribution="cauchy")
        with pytest.raises(ValueError):
            model.sample_session(SeededRNG(0))

    def test_weibull_mean_approximately_correct(self):
        model = ChurnModel(session_distribution="weibull", mean_session=1000.0, weibull_shape=0.7)
        rng = SeededRNG(3)
        values = [model.sample_session(rng) for _ in range(20000)]
        assert abs(sum(values) / len(values) - 1000.0) < 100.0


class TestChurnProcess:
    def test_nodes_leave_and_join(self):
        sim = Simulator()
        model = ChurnModel(session_distribution="exponential", mean_session=100.0, mean_downtime=100.0)
        joined, left = [], []
        process = ChurnProcess(
            sim, list(range(50)), model, rng=SeededRNG(1),
            on_join=joined.append, on_leave=left.append,
        )
        process.start()
        sim.run(until=1000.0)
        assert len(left) > 0
        assert len(joined) > 0
        assert process.churn_rate_per_hour() > 0

    def test_steady_state_init_matches_availability(self):
        sim = Simulator()
        model = ChurnModel(session_distribution="exponential", mean_session=300.0, mean_downtime=300.0)
        process = ChurnProcess(
            sim, list(range(2000)), model, rng=SeededRNG(2), steady_state_init=True
        )
        online_fraction = sum(process.online.values()) / 2000
        assert abs(online_fraction - model.availability) < 0.05

    def test_stable_model_keeps_nodes_online(self):
        sim = Simulator()
        process = ChurnProcess(sim, list(range(30)), ChurnModel.stable(), rng=SeededRNG(3))
        process.start()
        sim.run(until=3600.0)
        assert sum(process.online.values()) >= 28

    def test_is_online_tracks_state(self):
        sim = Simulator()
        model = ChurnModel(session_distribution="constant", mean_session=10.0, mean_downtime=1e9)
        process = ChurnProcess(sim, ["n"], model, rng=SeededRNG(4))
        process.start()
        assert process.online["n"]
        sim.run(until=100.0)
        assert not process.online["n"]


class TestNetworkPresets:
    def test_by_name_returns_fresh_instances(self):
        first = NetworkParams.by_name("lan")
        first.base_latency = 99.0
        assert NetworkParams.by_name("lan").base_latency == 0.0005

    def test_preset_ordering_is_physical(self):
        lan = NetworkParams.by_name("lan")
        wan = NetworkParams.by_name("wan")
        geo = NetworkParams.by_name("geo")
        assert lan.base_latency < wan.base_latency < geo.base_latency
        assert (lan.inter_region_latency < wan.inter_region_latency
                < geo.inter_region_latency)
        assert lan.bandwidth_bps > wan.bandwidth_bps > geo.bandwidth_bps

    def test_wan_preset_matches_stock_defaults(self):
        assert NetworkParams.by_name("wan") == NetworkParams()

    def test_unknown_preset_lists_names(self):
        with pytest.raises(KeyError, match="lan, wan"):
            NetworkParams.by_name("interplanetary")

    def test_from_spec_accepts_all_declarative_forms(self):
        assert NetworkParams.from_spec(None) is None
        assert NetworkParams.from_spec("geo") == NetworkParams.by_name("geo")
        assert NetworkParams.from_spec({"base_latency": 0.01}).base_latency == 0.01
        params = NetworkParams(loss_rate=0.2)
        assert NetworkParams.from_spec(params) is params
        with pytest.raises(TypeError, match="preset name"):
            NetworkParams.from_spec(42)

    def test_presets_shape_delivery_latency(self):
        def mean_latency(preset):
            sim = Simulator()
            network = Network(sim, params=NetworkParams.by_name(preset),
                              rng=SeededRNG(1))
            latencies = []
            network.register("sink", lambda msg: latencies.append(msg.latency))
            for _ in range(50):
                network.send("source", "sink", "ping", size_bytes=256)
            sim.run()
            return sum(latencies) / len(latencies)

        assert mean_latency("lan") < mean_latency("wan") < mean_latency("geo")
