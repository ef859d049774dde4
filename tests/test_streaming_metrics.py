"""Streaming metrics: sketch-vs-exact agreement, memory bounds, Sample fixes.

The :class:`repro.sim.metrics.StreamingSample` sketch backs the
``metrics: streaming`` scenario knob, and the ``sketch`` tolerance
profile of ``repro-run diff`` encodes exactly how far its numbers may
sit from the exact list-backed :class:`Sample` over the *same*
trajectory.  These tests pin both sides of that contract: percentiles
within the profile's 2.5% allowance across distribution shapes and
sizes, moment statistics exact, memory flat in stream length, and the
batched/cached ``Sample`` fast paths identical to the naive ones.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.diff import (
    TOLERANCE_PROFILES,
    Tolerance,
    tolerance_for,
    tolerance_profile,
)
from repro.sim.metrics import (
    SAMPLE_MODES,
    MetricsRegistry,
    Sample,
    StreamingSample,
    make_sample,
)

#: The relative percentile slack the ``sketch`` diff profile promises
#: (sketch error + rank-interpolation discreteness); the distribution
#: grid below asserts the sketch actually stays inside it.
PROFILE_REL = 0.025

DISTRIBUTIONS = {
    "uniform": lambda rng: rng.uniform(0.1, 10.0),
    "exponential": lambda rng: rng.expovariate(1.0 / 3.0),
    "lognormal": lambda rng: rng.lognormvariate(0.0, 1.0),
    "pareto": lambda rng: 0.5 * (rng.paretovariate(2.5)),
}


def draw(distribution, size, seed=7):
    rng = random.Random(seed)
    sampler = DISTRIBUTIONS[distribution]
    return [sampler(rng) for _ in range(size)]


class TestSketchVsExactAgreement:
    @pytest.mark.parametrize("distribution", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("size", [1000, 10_000])
    def test_percentiles_within_declared_tolerance(self, distribution, size):
        """At the stream lengths streaming mode exists for (10^3+), the
        sketched percentiles sit inside the ``sketch`` profile allowance
        of the exact interpolated ones.  (At a few hundred observations
        rank-interpolation discreteness dominates the sketch error and
        there is no reason to be streaming in the first place.)"""
        values = draw(distribution, size)
        exact, sketch = Sample(), StreamingSample()
        exact.extend(values)
        sketch.extend(values)
        for q in (10, 50, 90, 99):
            reference = exact.percentile(q)
            assert sketch.percentile(q) == pytest.approx(
                reference, rel=PROFILE_REL), (distribution, size, q)

    @pytest.mark.parametrize("distribution", sorted(DISTRIBUTIONS))
    def test_moment_statistics_are_exact(self, distribution):
        values = draw(distribution, 5000)
        exact, sketch = Sample(), StreamingSample()
        exact.extend(values)
        sketch.extend(values)
        assert sketch.count() == exact.count()
        assert sketch.total() == pytest.approx(exact.total(), rel=1e-12)
        assert sketch.minimum() == exact.minimum()
        assert sketch.maximum() == exact.maximum()
        assert sketch.mean() == pytest.approx(exact.mean(), rel=1e-9)
        assert sketch.stdev() == pytest.approx(exact.stdev(), rel=1e-9)

    def test_fraction_below_tracks_exact(self):
        values = draw("lognormal", 10_000)
        exact, sketch = Sample(), StreamingSample()
        exact.extend(values)
        sketch.extend(values)
        for threshold in (0.5, 1.0, 2.0, 5.0):
            assert sketch.fraction_below(threshold) == pytest.approx(
                exact.fraction_below(threshold), abs=0.02)

    def test_mixed_sign_and_zero_stream(self):
        values = [-4.0, -1.0, 0.0, 0.0, 1.0, 2.0, 8.0]
        sketch = StreamingSample()
        sketch.extend(values)
        assert sketch.minimum() == -4.0
        assert sketch.maximum() == 8.0
        assert sketch.percentile(0) == -4.0
        assert sketch.percentile(100) == 8.0
        # The two zeros sit at ranks 2-3 of 7: the median is exactly 0.
        assert sketch.median() == 0.0
        assert sketch.fraction_below(0.0) == pytest.approx(2 / 7)

    def test_summary_has_the_same_keys(self):
        values = draw("uniform", 500)
        exact, sketch = Sample(), StreamingSample()
        exact.extend(values)
        sketch.extend(values)
        assert sketch.summary().keys() == exact.summary().keys()
        assert sketch.summary()["count"] == exact.summary()["count"]

    def test_empty_sketch_mirrors_empty_sample(self):
        exact, sketch = Sample(), StreamingSample()
        assert sketch.summary() == exact.summary()
        assert sketch.fraction_below(1.0) == 0.0

    @given(values=st.lists(st.floats(min_value=1e-3, max_value=1e6),
                           min_size=1, max_size=300),
           q=st.integers(min_value=0, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_percentile_lands_on_a_nearby_order_statistic(self, values, q):
        """Any quantile is within the sketch error of the order statistic
        bracketing the requested rank (the DDSketch guarantee)."""
        sketch = StreamingSample()
        sketch.extend(values)
        ordered = sorted(values)
        rank = (q / 100.0) * (len(ordered) - 1)
        bracket = {ordered[math.floor(rank)], ordered[math.ceil(rank)]}
        reported = sketch.percentile(q)
        assert any(abs(reported - x) <= sketch.relative_error * abs(x) + 1e-12
                   for x in bracket)


class TestStreamingMemory:
    def test_bucket_count_is_flat_in_stream_length(self):
        rng = random.Random(11)
        sketch = StreamingSample()
        for _ in range(10_000):
            sketch.observe(rng.lognormvariate(0.0, 1.0))
        early = sketch.bucket_count()
        for _ in range(190_000):
            sketch.observe(rng.lognormvariate(0.0, 1.0))
        # 20x the observations, far from 20x the sketch: buckets only
        # appear when a draw lands outside the covered value range, and
        # the lognormal's range grows like sqrt(log n).
        assert sketch.count() == 200_000
        assert sketch.bucket_count() < 2 * early
        assert sketch.bucket_count() <= sketch.max_buckets

    def test_collapse_bounds_buckets_and_keeps_the_tail_sharp(self):
        sketch = StreamingSample(max_buckets=8)
        values = [10.0 ** exponent for exponent in range(20)]
        sketch.extend(values)
        assert sketch.bucket_count() <= 8
        assert sketch.count() == 20
        # Collapse merges the *low*-magnitude buckets; the tail keeps
        # full resolution and the exact envelope stays exact.
        assert sketch.maximum() == 1e19
        assert sketch.percentile(100) == 1e19
        assert sketch.percentile(95) == pytest.approx(1e18, rel=PROFILE_REL)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StreamingSample(relative_error=0.0)
        with pytest.raises(ValueError):
            StreamingSample(relative_error=1.5)
        with pytest.raises(ValueError):
            StreamingSample(max_buckets=4)


class TestSampleFastPaths:
    def test_extend_matches_observe_loop(self):
        batched, looped = Sample(), Sample()
        values = draw("uniform", 1000)
        batched.extend(values)
        for value in values:
            looped.observe(value)
        assert batched.values == looped.values
        assert batched.summary() == looped.summary()

    def test_extend_accepts_a_generator(self):
        sample = Sample()
        sample.extend(value * 0.5 for value in range(10))
        assert sample.count() == 10
        assert sample.maximum() == 4.5

    def test_sorted_cache_survives_summary_and_invalidates_on_write(self):
        sample = Sample()
        sample.extend([3.0, 1.0, 2.0])
        assert sample.median() == 2.0
        assert sample._ordered() is sample._ordered()  # cached between reads
        sample.observe(0.0)
        assert sample.median() == 1.5
        sample.extend([10.0, 11.0])
        assert sample.percentile(100) == 11.0

    def test_sorted_cache_detects_direct_appends(self):
        sample = Sample()
        sample.extend([2.0, 1.0])
        assert sample.median() == 1.5
        # Legacy callers append to .values directly; the length guard
        # must still spot the new observation.
        sample.values.append(0.0)
        assert sample.median() == 1.0


class TestModeSelection:
    def test_make_sample_modes(self):
        assert isinstance(make_sample("x", "exact"), Sample)
        assert isinstance(make_sample("x", "streaming"), StreamingSample)
        with pytest.raises(ValueError):
            make_sample("x", "approximate")

    def test_registry_mode_controls_sample_type(self):
        exact = MetricsRegistry()
        streaming = MetricsRegistry(mode="streaming")
        assert isinstance(exact.sample("latency"), Sample)
        assert isinstance(streaming.sample("latency"), StreamingSample)

    def test_registry_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            MetricsRegistry(mode="bogus")

    def test_registry_snapshot_covers_streaming_samples(self):
        registry = MetricsRegistry(mode="streaming")
        registry.sample("latency").extend([1.0, 2.0, 3.0])
        assert registry.snapshot()["samples"]["latency"] == pytest.approx(2.0)

    def test_sample_modes_is_the_authoritative_list(self):
        assert SAMPLE_MODES == ("exact", "streaming")


class TestToleranceProfiles:
    def test_glob_resolution_order(self):
        tolerances = {
            "mean_latency_s": Tolerance(rel=0.01),
            "p9?_latency_s": Tolerance(rel=0.10),
            "*_latency_s": Tolerance(rel=0.20),
            "*": Tolerance(rel=0.30),
        }
        # Exact name first, then globs in declaration order, then "*".
        assert tolerance_for("mean_latency_s", tolerances).rel == 0.01
        assert tolerance_for("p90_latency_s", tolerances).rel == 0.10
        assert tolerance_for("median_latency_s", tolerances).rel == 0.20
        assert tolerance_for("failure_rate", tolerances).rel == 0.30

    def test_star_resolves_last_regardless_of_position(self):
        tolerances = {"*": Tolerance(rel=0.5), "p99_latency_s": Tolerance(rel=0.1)}
        assert tolerance_for("p99_latency_s", tolerances).rel == 0.1

    def test_unmatched_metric_without_star_is_exact(self):
        assert tolerance_for("tps", {"*_latency_s": Tolerance(rel=0.2)}) \
            == Tolerance()

    def test_sketch_profile_shape(self):
        profile = tolerance_profile("sketch")
        assert tolerance_for("median_latency_s", profile).rel == \
            pytest.approx(PROFILE_REL)
        # Means are exact in both modes; only float-summation slack.
        assert tolerance_for("mean_latency_s", profile).rel <= 1e-9
        assert tolerance_for("fraction_within_5s", profile).abs == \
            pytest.approx(0.02)
        # Anything not latency-derived must agree exactly under "sketch".
        assert tolerance_for("failure_rate", profile) == Tolerance()

    def test_profiles_are_copied_not_shared(self):
        profile = tolerance_profile("latency")
        profile["p99_latency_s"] = Tolerance(rel=9.0)
        assert TOLERANCE_PROFILES["latency"]["p99_latency_s"].rel != 9.0

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown tolerance profile"):
            tolerance_profile("nope")


class TestStreamingEndToEnd:
    def test_sketch_profile_accepts_streaming_vs_exact_run(self):
        """A streaming-metrics run of the same trajectory diffs clean
        against the exact run under ``--profile sketch`` — the exact
        contract the profile was written for."""
        from repro.analysis.diff import diff_resultsets
        from repro.scenarios.runner import run_sweep

        overrides = {"topology.size": 2000, "workload.lookups": 800}
        exact = run_sweep("kademlia-churn-100k",
                          overrides={**overrides, "metrics": "exact"})
        streaming = run_sweep("kademlia-churn-100k",
                              overrides={**overrides, "metrics": "streaming"})
        strict = diff_resultsets(exact, streaming)
        profiled = diff_resultsets(exact, streaming,
                                   tolerances=tolerance_profile("sketch"))
        # The metrics knob is observational (same trajectory), so the two
        # runs pair as one unit; the strict diff sees the sketched
        # percentiles move, the profile absorbs exactly that.
        assert not strict.identical
        assert any(unit.changed_metrics for unit in strict.units)
        assert profiled.identical
