"""Vectorized overlay state (repro.sim.vecstate) and the large-N fast path.

The fast path trades the scalar simulator's per-node objects for parallel
arrays, so the things worth testing are the exactness claims (``xor_closest``
is true XOR nearest-neighbour; bucket subtree ranges match the definition;
churn is counter-deterministic) and the table invariants every maintenance
pass must preserve (no duplicate contacts in a bucket, contacts inside their
subtree, no self-contacts).  On top sit the end-to-end guarantees the
scenario layer relies on: :class:`repro.p2p.fastkad.FastKademliaOverlay`
is deterministic, reports the scalar summary contract, and is reachable
through the ``kad-fast`` overlay adapter and the CLI.
"""

import numpy as np
import pytest

from repro.p2p.fastkad import FastKademliaConfig, FastKademliaOverlay
from repro.p2p.kademlia import KademliaConfig
from repro.sim.churn import ChurnModel
from repro.sim.vecstate import (
    EMPTY,
    VecChurn,
    VecIdSpace,
    VecRoutingTable,
    draw_durations,
    hashed_u64,
    hashed_uniform,
    splitmix64,
    stream_key,
    xor_closest,
)

from test_cli_errors import usage_error


class TestHashing:
    def test_splitmix64_is_a_pure_function(self):
        x = np.arange(1000, dtype=np.uint64)
        assert np.array_equal(splitmix64(x.copy()), splitmix64(x.copy()))

    def test_splitmix64_known_vector(self):
        # First output of the reference splitmix64 stream seeded with 0
        # (golden-ratio increment + finalizer): 0xE220A8397B1DCDAF.
        assert int(splitmix64(np.array([0], dtype=np.uint64))[0]) == \
            0xE220A8397B1DCDAF
        # and inputs must scramble away from themselves.
        scrambled = splitmix64(np.array([1, 2, 3], dtype=np.uint64))
        assert not np.any(scrambled == np.array([1, 2, 3], dtype=np.uint64))

    def test_stream_keys_separate_labels_and_seeds(self):
        assert stream_key(0, "a") != stream_key(0, "b")
        assert stream_key(0, "a") != stream_key(1, "a")
        assert stream_key(3, "churn") == stream_key(3, "churn")

    def test_hashed_uniform_is_in_unit_interval_and_deterministic(self):
        key = stream_key(9, "test")
        u = hashed_uniform(key, np.arange(100_000, dtype=np.uint64))
        assert np.all(u > 0.0) and np.all(u <= 1.0)
        assert abs(float(u.mean()) - 0.5) < 0.01
        again = hashed_uniform(key, np.arange(100_000, dtype=np.uint64))
        assert np.array_equal(u, again)

    def test_hashed_u64_counters_matter(self):
        key = stream_key(0, "ctr")
        nodes = np.arange(64, dtype=np.uint64)
        a = hashed_u64(key, nodes, np.uint64(0))
        b = hashed_u64(key, nodes, np.uint64(1))
        assert not np.array_equal(a, b)

    def test_draw_durations_match_the_scalar_families(self):
        u = np.array([0.1, 0.5, 0.9])
        exponential = ChurnModel(mean_session=100.0, mean_downtime=10.0,
                                 session_distribution="exponential")
        assert draw_durations(exponential, 100.0, u) == pytest.approx(
            -100.0 * np.log(u))
        weibull = ChurnModel(mean_session=100.0, mean_downtime=10.0,
                             session_distribution="weibull",
                             weibull_shape=0.5)
        drawn = draw_durations(weibull, 100.0, u)
        assert np.all(drawn > 0)
        # Mean preserved: scale = mean / gamma(1 + 1/shape).
        big = draw_durations(
            weibull, 100.0,
            hashed_uniform(stream_key(0, "w"), np.arange(200_000, dtype=np.uint64)))
        assert float(big.mean()) == pytest.approx(100.0, rel=0.05)


class TestIdSpace:
    def test_ids_unique_sorted_and_deterministic(self):
        space = VecIdSpace(5000, seed=3)
        assert len(space) == 5000
        assert len(np.unique(space.ids)) == 5000
        assert np.array_equal(space.ids, np.sort(space.ids))
        assert np.array_equal(space.ids, VecIdSpace(5000, seed=3).ids)
        assert not np.array_equal(space.ids, VecIdSpace(5000, seed=4).ids)

    def test_rejects_degenerate_population(self):
        with pytest.raises(ValueError):
            VecIdSpace(1)


class TestXorClosest:
    def test_sorted_neighbour_shortcut_counterexample(self):
        # t=8 against [0, 7]: numerically nearest is 7, XOR-nearest is 0
        # (8^0=8 < 8^7=15).  The descent must get this right.
        ids = np.array([0, 7], dtype=np.uint64)
        indices, distances = xor_closest(ids, np.array([8], dtype=np.uint64))
        assert indices[0] == 0
        assert distances[0] == 8

    def test_matches_brute_force(self):
        space = VecIdSpace(700, seed=1)
        key = stream_key(99, "targets")
        targets = hashed_u64(key, np.arange(300, dtype=np.uint64))
        # Include exact members and near-boundary targets.
        targets = np.concatenate([targets, space.ids[::97],
                                  space.ids[::89] ^ np.uint64(1),
                                  np.array([0, 2**64 - 1], dtype=np.uint64)])
        indices, distances = xor_closest(space.ids, targets)
        brute = (space.ids[None, :] ^ targets[:, None]).min(axis=1)
        assert np.array_equal(distances, brute)
        assert np.array_equal(space.ids[indices] ^ targets, brute)

    def test_subset_population(self):
        space = VecIdSpace(500, seed=2)
        online = space.ids[::3]
        targets = hashed_u64(stream_key(5, "t"), np.arange(64, dtype=np.uint64))
        _, distances = xor_closest(online, targets)
        brute = (online[None, :] ^ targets[:, None]).min(axis=1)
        assert np.array_equal(distances, brute)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            xor_closest(np.array([], dtype=np.uint64),
                        np.array([1], dtype=np.uint64))


def table_invariants(table: VecRoutingTable) -> None:
    """No self-contacts, no in-bucket duplicates, contacts in-subtree."""
    ids = table.space.ids
    n, buckets, k = table.table.shape
    for bucket in range(buckets):
        rows = table.table[:, bucket, :]
        filled = rows != EMPTY
        # in-subtree: every contact sits inside the precomputed range.
        lo = table.range_lo[:, bucket][:, None]
        hi = lo + table.range_len[:, bucket][:, None]
        assert np.all(~filled | ((rows >= lo) & (rows < hi)))
        # no self-contacts (a node is never inside its own sibling subtree,
        # so this follows from in-subtree; assert it directly anyway).
        own = np.arange(n, dtype=np.int64)[:, None]
        assert not np.any(filled & (rows == own))
        # no duplicates within one bucket row.
        ordered = np.sort(np.where(filled, rows, np.int32(-1 - own)), axis=1)
        assert not np.any((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0))


class TestRoutingTable:
    def test_bucket_ranges_match_the_xor_subtree_definition(self):
        space = VecIdSpace(400, seed=0)
        table = VecRoutingTable(space, k=4, seed=0)
        ids = space.ids
        for node in (0, 17, 399):
            for bucket in range(table.bucket_count):
                bit = 63 - bucket
                mask = (np.uint64(1) << np.uint64(bit)) - np.uint64(1)
                base = (ids[node] ^ (np.uint64(1) << np.uint64(bit))) & ~mask
                member = (ids & ~mask) == base
                lo = table.range_lo[node, bucket]
                length = table.range_len[node, bucket]
                assert member.sum() == length
                if length:
                    assert member[lo] and member[lo + length - 1]

    def test_bootstrap_invariants_and_determinism(self):
        space = VecIdSpace(600, seed=5)
        table = VecRoutingTable(space, k=4, seed=5, stale_fraction=0.25)
        table_invariants(table)
        stale_fraction = float(table.stale[table.table != EMPTY].mean())
        assert stale_fraction == pytest.approx(0.25, abs=0.05)
        again = VecRoutingTable(space, k=4, seed=5, stale_fraction=0.25)
        assert np.array_equal(table.table, again.table)
        assert np.array_equal(table.stale, again.stale)

    def test_small_buckets_hold_the_whole_subtree(self):
        space = VecIdSpace(300, seed=1)
        table = VecRoutingTable(space, k=8, seed=1)
        # Wherever the subtree has at most k members, the bucket must
        # hold every one of them (sequential fill, no sampling).
        counts = (table.table != EMPTY).sum(axis=2)
        small = table.range_len <= table.k
        assert np.array_equal(counts[small], table.range_len[small])

    def test_evict_offline_clears_dead_entries(self):
        space = VecIdSpace(500, seed=2)
        table = VecRoutingTable(space, k=4, seed=2)
        online = np.ones(500, dtype=bool)
        online[::2] = False
        before = int((table.table != EMPTY).sum())
        evicted = table.evict_offline(online, detection=1.0)
        assert evicted > 0
        filled = table.table != EMPTY
        assert int(filled.sum()) == before - evicted
        # detection=1.0 leaves no offline contact behind.
        assert np.all(online[np.where(filled, table.table, np.int32(0))]
                      | ~filled)
        table_invariants(table)

    def test_refresh_fills_only_with_live_contacts_and_keeps_invariants(self):
        space = VecIdSpace(500, seed=3)
        table = VecRoutingTable(space, k=4, seed=3)
        online = np.zeros(500, dtype=bool)
        online[::2] = True
        table.evict_offline(online, detection=1.0)
        filled_before = int((table.table != EMPTY).sum())
        added = 0
        for _ in range(6):
            added += table.refresh(online, samples=4)
        filled_after = int((table.table != EMPTY).sum())
        assert added == filled_after - filled_before
        assert added > 0
        table_invariants(table)
        # Every slot refresh filled points at an online node.
        filled = table.table != EMPTY
        assert np.all(online[np.where(filled, table.table, np.int32(0))]
                      | ~filled)

    def test_staleness_counts_stale_and_offline(self):
        space = VecIdSpace(200, seed=4)
        table = VecRoutingTable(space, k=4, seed=4)
        everyone = np.ones(200, dtype=bool)
        assert table.staleness(everyone) == 0.0
        nobody = np.zeros(200, dtype=bool)
        assert table.staleness(nobody) == 1.0


class TestVecChurn:
    MODEL = ChurnModel.kad_like()

    def test_steady_state_availability(self):
        churn = VecChurn(50_000, self.MODEL, seed=0)
        expected = self.MODEL.availability
        assert churn.online.mean() == pytest.approx(expected, abs=0.01)

    def test_exponential_equilibrium_is_stationary(self):
        # For memoryless sessions the fresh-draw init IS the stationary
        # law, so hours of churn must not move the online fraction.  (The
        # heavy-tailed kad model legitimately relaxes below availability
        # at first — the inspection paradox — so only the exponential
        # case pins an exact level.)
        model = ChurnModel(session_distribution="exponential",
                           mean_session=3600.0, mean_downtime=1800.0)
        churn = VecChurn(50_000, model, seed=0)
        expected = model.availability
        assert churn.online.mean() == pytest.approx(expected, abs=0.01)
        churn.advance(6 * 3600.0)
        assert churn.online.mean() == pytest.approx(expected, abs=0.01)

    def test_advance_schedule_invariance(self):
        """The trajectory is a pure function of (seed, node, epoch): one
        big advance and many small ones land in the identical state."""
        coarse = VecChurn(2000, self.MODEL, seed=7)
        fine = VecChurn(2000, self.MODEL, seed=7)
        coarse.advance(7200.0)
        for step in range(1, 721):
            fine.advance(step * 10.0)
        assert np.array_equal(coarse.online, fine.online)
        assert np.array_equal(coarse.next_transition, fine.next_transition)
        assert np.array_equal(coarse.epoch, fine.epoch)
        assert coarse.join_events == fine.join_events
        assert coarse.leave_events == fine.leave_events

    def test_transitions_counted_and_rate_positive(self):
        churn = VecChurn(5000, self.MODEL, seed=1)
        transitions = churn.advance(3600.0)
        assert transitions == churn.join_events + churn.leave_events
        assert transitions > 0
        assert churn.churn_rate_per_hour() > 0.0

    def test_zero_downtime_does_not_stall(self):
        model = ChurnModel(mean_session=60.0, mean_downtime=0.0)
        churn = VecChurn(200, model, seed=0)
        churn.advance(3600.0)  # must terminate
        assert churn.now == 3600.0


def fast_config(**overrides) -> FastKademliaConfig:
    defaults = dict(network_size=2000, lookups=300, lookup_interval=0.05,
                    kademlia=KademliaConfig.kad_like(),
                    churn=ChurnModel.kad_like(), seed=7, warmup=300.0,
                    wave_size=128)
    defaults.update(overrides)
    return FastKademliaConfig(**defaults)


class TestFastKademliaOverlay:
    def test_run_is_deterministic(self):
        first = FastKademliaOverlay(fast_config()).run()
        second = FastKademliaOverlay(fast_config()).run()
        assert first == second

    def test_summary_matches_the_scalar_contract(self):
        summary = FastKademliaOverlay(fast_config()).run()
        scalar_keys = {
            "lookups", "median_latency_s", "p90_latency_s", "p99_latency_s",
            "mean_latency_s", "failure_rate", "timeouts_per_lookup",
            "hops_per_lookup", "routing_staleness", "fraction_within_5s",
        }
        assert scalar_keys <= summary.keys()
        assert summary["lookups"] == 300.0
        assert 0.0 <= summary["failure_rate"] < 0.5
        assert summary["median_latency_s"] > 0.0
        assert summary["p99_latency_s"] >= summary["p90_latency_s"] >= \
            summary["median_latency_s"]
        assert summary["hops_per_lookup"] >= 1.0
        assert summary["events_processed"] > 0.0

    def test_streaming_metrics_same_trajectory(self):
        exact = FastKademliaOverlay(
            fast_config(metrics="exact", lookups=1500)).run()
        streaming = FastKademliaOverlay(
            fast_config(metrics="streaming", lookups=1500)).run()
        # The trajectory (and so every non-sketched metric) is identical;
        # only percentile-derived values may move within the sketch error.
        for key in ("lookups", "failure_rate", "hops_per_lookup",
                    "timeouts_per_lookup", "events_processed",
                    "routing_staleness", "mean_latency_s"):
            assert streaming[key] == pytest.approx(exact[key], rel=1e-9), key
        for key in ("median_latency_s", "p90_latency_s", "p99_latency_s"):
            assert streaming[key] == pytest.approx(exact[key], rel=0.025), key

    def test_churnless_network_rarely_fails(self):
        summary = FastKademliaOverlay(
            fast_config(churn=None, warmup=0.0)).run()
        assert summary["failure_rate"] < 0.05
        assert summary["online_fraction"] == 1.0


class TestScenarioIntegration:
    def test_kad_fast_adapter_round_trip(self):
        from repro.scenarios.registry import get_scenario
        from repro.scenarios.runner import run_sweep

        spec = get_scenario("kademlia-churn-100k")
        assert spec.architecture["overlay"] == "kad-fast"
        assert spec.metrics == "streaming"
        results = run_sweep("kademlia-churn-100k",
                            overrides={"topology.size": 1500,
                                       "workload.lookups": 100})
        (result,) = results
        assert result.metrics["lookups"] == 100.0
        assert result.metrics["median_latency_s"] > 0.0

    @pytest.mark.parametrize("seed", [11, 12, 14, 15, 16, 18])
    def test_refresh_survives_an_empty_range_past_the_last_node(self, seed):
        # At these seeds some (node, bucket) has an empty subtree range
        # whose start is n itself; refresh used to index online[n].
        from repro.scenarios.runner import run_sweep

        (result,) = run_sweep("kademlia-churn-100k", seed=seed,
                              overrides={"topology.size": 2000,
                                         "workload.lookups": 100})
        assert result.metrics["lookups"] == 100.0

    def test_metrics_knob_only_appears_when_non_default(self):
        from repro.scenarios.registry import get_scenario

        exact_spec = get_scenario("kad-lookup")
        assert exact_spec.metrics == "exact"
        assert "metrics" not in exact_spec.to_dict()
        streaming_spec = get_scenario("kademlia-churn-100k")
        assert streaming_spec.to_dict()["metrics"] == "streaming"

    def test_spec_rejects_unknown_metrics_mode(self):
        from repro.scenarios.spec import ScenarioSpec

        with pytest.raises(ValueError):
            ScenarioSpec(name="x", family="overlay", metrics="bogus")

    def test_overlay_scaling_large_sweeps_the_fast_path(self):
        from repro.scenarios.registry import get_scenario

        spec = get_scenario("overlay-scaling-large")
        assert spec.architecture["overlay"] == "kad-fast"
        assert spec.sweeps["topology.size"][-1] >= 10_000

    def test_cli_profile_flag_end_to_end(self, tmp_path, capsys):
        from repro.run import main as run_main

        base = ["kademlia-churn-100k", "--quiet",
                "--set", "topology.size=1500",
                "--set", "workload.lookups=400",
                "--runs-dir", str(tmp_path)]
        assert run_main(base + ["--save", "exact",
                                "--set", "metrics=exact"]) == 0
        assert run_main(base + ["--save", "sketch"]) == 0
        capsys.readouterr()
        # Zero tolerance: the sketched percentiles drift.
        strict = run_main(["diff", "exact", "sketch", "--quiet",
                           "--runs-dir", str(tmp_path)])
        assert strict == 1
        # The sketch profile absorbs exactly that drift; --tol can still
        # override a profile entry back to zero tolerance.
        assert run_main(["diff", "exact", "sketch", "--quiet",
                         "--profile", "sketch",
                         "--runs-dir", str(tmp_path)]) == 0
        assert run_main(["diff", "exact", "sketch", "--quiet",
                         "--profile", "sketch",
                         "--tol", "p99_latency_s=0",
                         "--runs-dir", str(tmp_path)]) == 1

    def test_cli_unknown_profile_is_a_clean_error(self, tmp_path, capsys):
        from repro.run import main as run_main

        assert "unknown tolerance profile" in usage_error(
            capsys, ["diff", "a", "b", "--profile", "nope",
                     "--runs-dir", str(tmp_path)])
