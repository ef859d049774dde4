"""Tests for the network model, node dispatch and churn processes."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.runstore import RunStore
from repro.consensus.base import CpuBoundNode
from repro.run import EXIT_USAGE
from repro.run import main as run_main
from repro.scenarios import run_scenario
from repro.sim.churn import ChurnModel, ChurnProcess
from repro.sim.engine import Simulator
from repro.sim.network import NETWORK_PRESETS, Message, Network, NetworkParams
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


def network_of(value):
    """``topology.network`` resolved the way every experiment resolves it."""
    from repro.scenarios.adapters import EXPERIMENTS
    from repro.scenarios.spec import ScenarioSpec

    topology = {} if value is None else {"network": value}
    return EXPERIMENTS[("overlay", "kad")].knobs.value(
        ScenarioSpec(name="net", family="overlay", topology=topology),
        "topology.network")


class TestNetworkPresets:
    def test_presets_are_fresh_instances(self):
        first = network_of("lan")
        first.base_latency = 99.0
        assert network_of("lan").base_latency == 0.0005

    def test_preset_ordering_is_physical(self):
        lan, wan, geo = (network_of(name) for name in ("lan", "wan", "geo"))
        assert lan.base_latency < wan.base_latency < geo.base_latency
        assert (lan.inter_region_latency < wan.inter_region_latency
                < geo.inter_region_latency)
        assert lan.bandwidth_bps > wan.bandwidth_bps > geo.bandwidth_bps

    def test_wan_preset_matches_stock_defaults(self):
        assert network_of("wan") == NetworkParams()

    def test_unknown_preset_lists_names(self):
        from repro.scenarios import SpecError

        with pytest.raises(SpecError,
                           match="topology.network .*geo, lan, wan"):
            network_of("interplanetary")

    def test_every_declarative_form_resolves(self):
        from repro.scenarios import SpecError

        assert network_of(None) is None
        assert network_of("geo") == NETWORK_PRESETS["geo"]()
        assert network_of("GEO") == network_of("geo")
        assert network_of({"base_latency": 0.01}).base_latency == 0.01
        assert network_of({"base_latency": 1}).base_latency == 1.0
        with pytest.raises(SpecError, match="preset name"):
            network_of(42)
        with pytest.raises(SpecError,
                           match="unknown key topology.network.latency"):
            network_of({"latency": 0.01})

    def test_presets_shape_delivery_latency(self):
        def mean_latency(preset):
            sim = Simulator()
            network = Network(sim, params=NETWORK_PRESETS[preset](),
                              rng=SeededRNG(1))
            latencies = []
            network.register("sink", lambda msg: latencies.append(msg.latency))
            for _ in range(50):
                network.send("source", "sink", "ping", size_bytes=256)
            sim.run()
            return sum(latencies) / len(latencies)

        assert mean_latency("lan") < mean_latency("wan") < mean_latency("geo")


class WrappedNetwork(Network):
    """The network as written against :class:`SeededRNG`'s checked draw
    helpers (``bernoulli``, ``lognormal``) with one ``schedule`` call per
    delivery: the oracle of :class:`Network`'s draw stream and its
    delivery order."""

    def send(self, sender, recipient, msg_type, payload=None, size_bytes=256):
        sim = self.sim
        message = Message(sender, recipient, msg_type, payload, size_bytes, sim.now)
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if sender in self._offline or recipient in self._offline:
            self.messages_dropped += 1
            return message
        mean_latency, bandwidth, loss = self._resolve_link(sender, recipient)
        rng = self.rng
        if loss > 0 and rng.bernoulli(loss):
            self.messages_dropped += 1
            return message
        jitter_sigma = self.params.latency_jitter
        if jitter_sigma > 0:
            latency = mean_latency * rng.lognormal(0.0, jitter_sigma)
        else:
            latency = mean_latency
        if bandwidth > 0:
            latency += (size_bytes * 8.0) / bandwidth
        if latency < 1e-6:
            latency = 1e-6
        sim.schedule(latency, self._deliver, message)
        return message

    def broadcast(self, sender, recipients, msg_type, payload=None, size_bytes=256):
        count = 0
        for recipient in recipients:
            if recipient != sender:
                count += 1
                self.send(sender, recipient, msg_type, payload, size_bytes)
        return count


class ScriptedRandom(random.Random):
    """A generator whose ``random()`` replays ``script``, then draws normally."""

    script = ()

    def random(self):
        if self.script:
            return self.script.pop(0)
        return super().random()


def drive(network_class, params, regions, seed, script=None, send_first=False):
    """Mixed unicast/broadcast traffic over 6 nodes, one offline and one
    unregistered; returns every delivery, the counters and the RNG state."""
    sim = Simulator()
    rng = SeededRNG(seed)
    if script is not None:
        rng._random = ScriptedRandom(seed)
        rng._random.script = list(script)
        rng.random = rng._random.random
    network = network_class(sim, params, rng=rng)
    delivered = []

    def handler(message):
        delivered.append((message.sender, message.recipient, message.msg_type,
                          message.payload, message.delivered_at))

    names = [f"n{index}" for index in range(6)]
    for index, name in enumerate(names):
        network.register(name, handler, region=f"r{index % regions}")
    network.set_offline("n5")
    everyone = names + ["ghost"]
    for step in range(12):
        sender = names[step % len(names)]
        calls = [
            lambda: network.broadcast(sender, everyone, "block", step,
                                      size_bytes=100 + 997 * step),
            lambda: network.send(sender, names[(step * 7 + 1) % len(names)],
                                 "ping", step, size_bytes=64 * (step + 1)),
        ]
        for call in calls[::-1] if send_first else calls:
            call()
        sim.run(until=sim.now + 0.05)
    sim.run()
    counters = (network.messages_sent, network.messages_delivered,
                network.messages_dropped, network.bytes_sent,
                sim.processed, sim.pending)
    return delivered, counters, rng._random.getstate()


class TestInlineDrawMatchesTheWrappedNetwork:
    """``send``/``broadcast`` draw loss and jitter from the bound generator
    with the stdlib formula inline; :class:`WrappedNetwork` pins them to the
    same draws, in the same order, with the same delivery times."""

    @pytest.mark.parametrize("regions", [1, 2])
    @pytest.mark.parametrize("bandwidth", [0.0, 1e6])
    @pytest.mark.parametrize("loss", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("jitter", [0.0, 0.3, 1.5])
    def test_matches_over_the_grid(self, jitter, loss, bandwidth, regions):
        params = NetworkParams(base_latency=0.02, inter_region_latency=0.11,
                               latency_jitter=jitter, bandwidth_bps=bandwidth,
                               loss_rate=loss)
        for seed in range(8):
            got = drive(Network, params, regions, seed)
            assert got == drive(WrappedNetwork, params, regions, seed), seed
            assert got[0] or loss == 1.0

    def test_matches_on_the_boundary_draws(self):
        # A draw equal to the loss rate keeps the message (``<``, not
        # ``<=``).  ``u1 = 0.5`` with a first jitter draw of 0.0 gives
        # ``z = 0`` and ``-log(u2) = -0.0``: the stdlib accepts it (``<=``).
        script = [0.3, 0.5, 0.0, 0.9, 0.3, 0.25, 0.5, 0.0] * 4
        params = NetworkParams(latency_jitter=0.4, loss_rate=0.3)
        for regions, send_first in itertools.product((1, 2), (False, True)):
            got = drive(Network, params, regions, 5, script, send_first)
            assert got == drive(WrappedNetwork, params, regions, 5, script,
                                send_first)


class TestNetworkParamsValidation:
    BAD = [
        ("base_latency", -0.2),
        ("inter_region_latency", -1.0),
        ("latency_jitter", -0.5),
        ("bandwidth_bps", -5),
        ("base_latency", math.inf),
        ("latency_jitter", math.nan),
        ("bandwidth_bps", math.inf),
        ("loss_rate", 1.5),
        ("loss_rate", -0.1),
        ("loss_rate", math.nan),
    ]

    @pytest.mark.parametrize("field,value", BAD)
    def test_rejects_nonsense_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"NetworkParams.{field} "):
            NetworkParams(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("base_latency", -0.2), ("inter_region_latency", -1.0),
        ("latency_jitter", math.nan), ("bandwidth_bps", math.inf),
        ("loss_rate", 1.5)])
    def test_building_a_network_checks_fields_set_after_construction(
            self, field, value):
        params = NetworkParams()
        setattr(params, field, value)
        with pytest.raises(ValueError, match=f"NetworkParams.{field} "):
            Network(Simulator(), params, rng=SeededRNG(0))

    def test_edges_stay_valid(self):
        NetworkParams(base_latency=0.0, inter_region_latency=0.0,
                      latency_jitter=0.0, loss_rate=0.0)
        NetworkParams(loss_rate=1.0)

    def test_zero_bandwidth_means_no_serialisation_delay(self):
        sim = Simulator()
        network = Network(sim, NetworkParams(latency_jitter=0.0, bandwidth_bps=0),
                          rng=SeededRNG(0))
        network.register("b", lambda message: None)
        message = network.send("a", "b", "ping", size_bytes=10**6)
        sim.run()
        assert message.latency == 0.05

    TRIM = {"architecture.duration_blocks": 5}

    @pytest.mark.parametrize("field,value", [
        ("bandwidth_bps", -5), ("latency_jitter", -0.5),
        ("base_latency", -0.2), ("loss_rate", 1.5)])
    def test_run_scenario_names_the_field(self, field, value):
        overrides = {**self.TRIM, "topology.network": {field: value}}
        with pytest.raises(ValueError, match=f"NetworkParams.{field} "):
            run_scenario("pow-baseline", overrides=overrides)

    @pytest.mark.parametrize("field,value", [
        ("latency_jitter", -0.5), ("base_latency", -0.2), ("loss_rate", 1.5)])
    def test_cli_run_fails_before_saving(self, tmp_path, capsys, field,
                                         value):
        argv = ["pow-baseline", "--quiet", "--runs-dir", str(tmp_path),
                "--save", "bad", "--set", "architecture.duration_blocks=5",
                "--set", f'topology.network={{"{field}": {value}}}']
        assert run_main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"NetworkParams.{field} " in err
        assert RunStore(tmp_path).list() == []

    def test_cli_exit_is_nonzero_and_names_the_field(self, tmp_path):
        argv = [sys.executable, "-m", "repro.run", "pow-baseline", "--quiet",
                "--runs-dir", str(tmp_path), "--save", "bad",
                "--set", "architecture.duration_blocks=5",
                "--set", 'topology.network={"bandwidth_bps": -5}']
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)
        assert done.returncode == EXIT_USAGE
        assert "NetworkParams.bandwidth_bps must be finite and >= 0" in done.stderr
        assert RunStore(tmp_path).list() == []


class Recorder(CpuBoundNode):
    """A CPU-bound node that records what it handles."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pings = []
        self.unknown = []

    def on_ping(self, message):
        self.pings.append((self.node_id, message.payload))

    def on_unknown(self, message):
        self.unknown.append(message.msg_type)


class TestDispatch:
    """One cached dispatch site for :class:`Node` and :class:`CpuBoundNode`."""

    def test_unknown_type_reaches_on_unknown_on_both(self):
        sim = Simulator()
        network = Network(sim, rng=SeededRNG(0))
        plain = EchoNode("plain", sim, network)
        cpu = Recorder("cpu", sim, network)
        for _ in range(2):   # the second message hits the cached entry
            network.send("x", "plain", "mystery")
            network.send("x", "cpu", "mystery")
        sim.run()
        assert [m.msg_type for m in plain.unknown] == ["mystery", "mystery"]
        assert cpu.unknown == ["mystery", "mystery"]

    def test_offline_between_receive_and_dispatch_drops(self):
        sim = Simulator()
        network = Network(sim, rng=SeededRNG(0))
        node = Recorder("cpu", sim, network)
        node.receive(Message("x", "cpu", "ping", 1, sent_at=sim.now))
        assert sim.pending == 1           # queued behind the CPU
        node.go_offline()
        sim.run()
        assert node.pings == [] and node.unknown == []

    def test_each_instance_dispatches_to_its_own_handler(self):
        sim = Simulator()
        network = Network(sim, rng=SeededRNG(0))
        first, second = (Recorder(name, sim, network) for name in ("a", "b"))
        network.send("x", "a", "ping", 1)
        sim.run()
        network.send("x", "b", "ping", 2)
        network.send("x", "a", "ping", 3)
        sim.run()
        assert first.pings == [("a", 1), ("a", 3)]
        assert second.pings == [("b", 2)]
        plain = [EchoNode(name, sim, network) for name in ("c", "d")]
        network.send("x", "d", "pong", 4)
        network.send("x", "c", "pong", 5)
        sim.run()
        assert [m.payload for m in plain[0].pongs] == [5]
        assert [m.payload for m in plain[1].pongs] == [4]
