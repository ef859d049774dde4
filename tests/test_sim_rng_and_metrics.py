"""Tests for the seeded RNG, metrics and statistics helpers."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    bootstrap_ci,
    describe,
    mean,
    percentile,
    stdev,
)
from repro.analysis.tables import ResultTable
from repro.sim.metrics import Counter, MetricsRegistry, Sample
from repro.sim.rng import SeededRNG


class TestSeededRNG:
    def test_same_seed_same_sequence(self):
        a = SeededRNG(42)
        b = SeededRNG(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seed_differs(self):
        assert SeededRNG(1).random() != SeededRNG(2).random()

    def test_fork_is_reproducible_and_independent(self):
        parent = SeededRNG(7)
        child_a = parent.fork("alpha")
        child_b = SeededRNG(7).fork("alpha")
        other = parent.fork("beta")
        assert child_a.random() == child_b.random()
        assert SeededRNG(7).fork("alpha").random() != other.random()

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda rng: pickle.loads(pickle.dumps(rng))])
    def test_a_copy_draws_from_its_own_generator(self, clone):
        original = SeededRNG(11)
        original.random()
        twin = clone(original)
        ahead = [twin.random(), twin.uniform(0.0, 1.0), twin.random()]
        assert [original.random(), original.random(),
                original.random()] == ahead

    def test_exponential_mean(self):
        rng = SeededRNG(3)
        values = [rng.exponential(10.0) for _ in range(20000)]
        assert abs(mean(values) - 10.0) < 0.5

    def test_exponential_rejects_non_positive_mean(self):
        with pytest.raises(ValueError):
            SeededRNG(0).exponential(0.0)

    def test_weibull_positive(self):
        rng = SeededRNG(4)
        assert all(rng.weibull(0.5, 100.0) > 0 for _ in range(100))

    def test_pareto_respects_scale(self):
        rng = SeededRNG(5)
        assert all(rng.pareto(1.5, 2.0) >= 2.0 for _ in range(200))

    def test_zipf_rank_bounds_and_skew(self):
        rng = SeededRNG(7)
        ranks = [rng.zipf_rank(100, 1.0) for _ in range(5000)]
        assert all(1 <= rank <= 100 for rank in ranks)
        top_fraction = sum(1 for rank in ranks if rank <= 10) / len(ranks)
        assert top_fraction > 0.4   # Zipf concentrates mass on low ranks

    def test_bernoulli_bounds(self):
        rng = SeededRNG(9)
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)
        assert rng.bernoulli(1.0) is True
        assert rng.bernoulli(0.0) is False

    def test_weighted_choice_prefers_heavy_weight(self):
        rng = SeededRNG(10)
        picks = [rng.weighted_choice(["a", "b"], [0.95, 0.05]) for _ in range(500)]
        assert picks.count("a") > 400

    def test_weighted_choice_length_mismatch(self):
        with pytest.raises(ValueError):
            SeededRNG(0).weighted_choice(["a"], [0.5, 0.5])

    def test_sample_and_shuffle(self):
        rng = SeededRNG(11)
        population = list(range(50))
        sampled = rng.sample(population, 10)
        assert len(set(sampled)) == 10
        shuffled = rng.shuffle(list(range(10)))
        assert sorted(shuffled) == list(range(10))


class TestMetrics:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().increment(-1)

    def test_sample_summary(self):
        sample = Sample()
        sample.extend([1.0, 2.0, 3.0, 4.0])
        summary = sample.summary()
        assert summary["count"] == 4
        assert summary["mean"] == 2.5
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0

    def test_sample_percentile_interpolates(self):
        sample = Sample()
        sample.extend([0.0, 10.0])
        assert sample.percentile(50) == pytest.approx(5.0)

    def test_sample_percentile_bounds(self):
        sample = Sample()
        sample.observe(1.0)
        with pytest.raises(ValueError):
            sample.percentile(150)

    def test_sample_fraction_below(self):
        sample = Sample()
        sample.extend([1, 2, 3, 4, 5])
        assert sample.fraction_below(3) == pytest.approx(0.4)

    def test_empty_sample_statistics(self):
        sample = Sample()
        assert sample.mean() == 0.0
        assert sample.percentile(90) == 0.0

    def test_registry_creates_and_reuses(self):
        registry = MetricsRegistry()
        registry.counter("x").increment()
        registry.counter("x").increment()
        assert registry.counter("x").value == 2
        registry.sample("lat").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["x"] == 2.0
        assert snapshot["samples"]["lat"] == 1.0


class TestStatsHelpers:
    def test_mean_and_stdev(self):
        assert mean([1, 2, 3]) == 2.0
        assert stdev([2, 2, 2]) == 0.0
        assert stdev([]) == 0.0

    def test_percentile_edges(self):
        values = [5.0]
        assert percentile(values, 0) == 5.0
        assert percentile(values, 100) == 5.0
        assert percentile([], 50) == 0.0

    def test_describe_keys(self):
        report = describe([1.0, 2.0, 3.0])
        for key in ("count", "mean", "p50", "p90", "p99", "max"):
            assert key in report

    def test_bootstrap_ci_contains_mean(self):
        low, high = bootstrap_ci([10.0] * 50, seed=1)
        assert low == pytest.approx(10.0)
        assert high == pytest.approx(10.0)

    def test_bootstrap_ci_spans_true_mean(self):
        values = list(range(100))
        low, high = bootstrap_ci(values, seed=2)
        assert low < mean(values) < high

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentile_within_range(self, values):
        p50 = percentile(values, 50)
        assert min(values) <= p50 <= max(values)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_stdev_non_negative(self, values):
        assert stdev(values) >= 0.0


class TestResultTable:
    def test_add_row_positional_and_named(self):
        table = ResultTable(["a", "b"])
        table.add_row(1, 2)
        table.add_row(a=3, b=4)
        assert table.rows == [["1", "2"], ["3", "4"]]

    def test_add_row_wrong_arity(self):
        table = ResultTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_add_row_missing_named_column(self):
        table = ResultTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(a=1)

    def test_render_contains_title_and_values(self):
        table = ResultTable(["metric", "value"], title="My table")
        table.add_row("tps", 123.456)
        text = table.render()
        assert "My table" in text
        assert "tps" in text

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            ResultTable([])
