"""Tests for concentration metrics, market dynamics, pricing and mining economics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.economics.concentration import (
    concentration_report,
    gini_coefficient,
    herfindahl_hirschman_index,
    nakamoto_coefficient,
    normalize_shares,
    top_k_share,
)
from repro.economics.incentives import (
    HARDWARE_PROFILES,
    MinerProfile,
    MiningEconomics,
    MiningEconomicsParams,
)
from repro.economics.market import MarketModel, MarketParams, observed_market_reference
from repro.economics.pricing import (
    CloudPricingModel,
    TokenPricingModel,
    compare_cost_stability,
)


class TestConcentrationMetrics:
    def test_normalize(self):
        assert normalize_shares([1, 1, 2]) == [0.25, 0.25, 0.5]
        assert normalize_shares([]) == []
        assert normalize_shares([0, 0]) == [0.0, 0.0]

    def test_negative_shares_rejected(self):
        with pytest.raises(ValueError):
            normalize_shares([-1, 2])

    def test_top_k(self):
        shares = [0.5, 0.3, 0.1, 0.1]
        assert top_k_share(shares, 1) == pytest.approx(0.5)
        assert top_k_share(shares, 2) == pytest.approx(0.8)
        assert top_k_share(shares, 10) == pytest.approx(1.0)

    def test_top_k_accepts_mapping(self):
        assert top_k_share({"a": 3.0, "b": 1.0}, 1) == pytest.approx(0.75)

    def test_hhi_monopoly_and_uniform(self):
        assert herfindahl_hirschman_index([1.0]) == pytest.approx(10_000.0)
        uniform = herfindahl_hirschman_index([1.0] * 100)
        assert uniform == pytest.approx(100.0)

    def test_gini_extremes(self):
        assert gini_coefficient([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-9)
        unequal = gini_coefficient([0.0] * 99 + [1.0])
        assert unequal > 0.9

    def test_nakamoto_coefficient(self):
        assert nakamoto_coefficient([0.6, 0.2, 0.2]) == 1
        assert nakamoto_coefficient([0.3, 0.3, 0.2, 0.2]) == 2
        assert nakamoto_coefficient([0.25] * 4) == 3
        assert nakamoto_coefficient([]) == 0

    def test_nakamoto_threshold_validation(self):
        with pytest.raises(ValueError):
            nakamoto_coefficient([0.5, 0.5], threshold=0.0)

    def test_report_keys(self):
        report = concentration_report([0.4, 0.3, 0.2, 0.1])
        for key in ("top1", "top3", "top5", "hhi", "gini", "nakamoto"):
            assert key in report

    @given(st.lists(st.floats(min_value=0.001, max_value=1000.0), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_top_k_monotone_in_k(self, shares):
        assert top_k_share(shares, 1) <= top_k_share(shares, 3) <= top_k_share(shares, 10) + 1e-9

    @given(st.lists(st.floats(min_value=0.001, max_value=1000.0), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_gini_in_unit_interval(self, shares):
        value = gini_coefficient(shares)
        assert -1e-9 <= value < 1.0

    @given(st.lists(st.floats(min_value=0.001, max_value=1000.0), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_nakamoto_at_least_one(self, shares):
        assert 1 <= nakamoto_coefficient(shares) <= len(shares)


class TestMarketModel:
    def test_preferential_attachment_concentrates(self):
        model = MarketModel(MarketParams(providers=20), seed=1)
        final = model.run(steps=200, arrivals_per_step=200)
        metrics = final.concentration()
        assert metrics["top3"] > 0.6
        assert metrics["nakamoto"] <= 5

    def test_uniform_attachment_stays_fragmented(self):
        model = MarketModel(
            MarketParams(providers=20, preferential_exponent=0.0, scale_advantage=0.0),
            seed=1,
        )
        final = model.run(steps=120, arrivals_per_step=200)
        assert final.concentration()["top3"] < 0.35

    def test_preferential_beats_uniform(self):
        preferential = MarketModel(MarketParams(), seed=2).run(100, 200)
        uniform = MarketModel(
            MarketParams(preferential_exponent=0.0, scale_advantage=0.0), seed=2
        ).run(100, 200)
        assert preferential.concentration()["top3"] > uniform.concentration()["top3"]

    def test_shares_sum_to_one(self):
        model = MarketModel(seed=3)
        model.run(steps=10, arrivals_per_step=50)
        assert sum(model.shares().values()) == pytest.approx(1.0)

    def test_history_grows_per_step(self):
        model = MarketModel(seed=4)
        model.run(steps=5, arrivals_per_step=10)
        assert len(model.history) == 6

    def test_needs_at_least_one_provider(self):
        with pytest.raises(ValueError):
            MarketModel(MarketParams(providers=0))

    def test_reference_numbers_present(self):
        reference = observed_market_reference()
        assert reference["cdn"]["top3_share"] == pytest.approx(0.75)
        assert reference["cloud"]["top5_share"] == pytest.approx(0.60)


class TestPricing:
    def test_token_volatility_is_high(self):
        series = TokenPricingModel(annual_volatility=0.8).generate(365, seed=1)
        assert series.annualized_volatility() > 0.4
        assert 0 < series.max_drawdown() <= 1.0

    def test_cloud_prices_decline_slowly(self):
        series = CloudPricingModel().generate(730, seed=1)
        assert series.prices[-1] <= series.prices[0]
        assert series.annualized_volatility() < 0.1

    def test_comparison_ratio_large(self):
        report = compare_cost_stability(periods=365, seed=3)
        assert report["comparison"]["volatility_ratio"] > 5.0
        assert report["token"]["coefficient_of_variation"] > report["cloud"]["coefficient_of_variation"]

    def test_price_series_returns_length(self):
        series = TokenPricingModel().generate(100, seed=2)
        assert len(series.prices) == 101
        assert len(series.returns()) <= 100


class TestMiningEconomics:
    def test_hardware_profiles_ordering(self):
        economics = MiningEconomics()
        cpu = economics.expected_daily_revenue_usd(HARDWARE_PROFILES["desktop-cpu"])
        farm = economics.expected_daily_revenue_usd(HARDWARE_PROFILES["asic-farm"])
        assert farm > cpu * 1e6

    def test_desktop_cpu_is_hopeless(self):
        economics = MiningEconomics()
        profile = HARDWARE_PROFILES["desktop-cpu"]
        assert economics.daily_profit_usd(profile) < 0
        assert economics.expected_days_per_block(profile) > 365 * 100

    def test_asic_farm_profitable(self):
        economics = MiningEconomics()
        assert economics.daily_profit_usd(HARDWARE_PROFILES["asic-farm"]) > 0

    def test_hashrate_share_scales_with_units(self):
        economics = MiningEconomics()
        profile = HARDWARE_PROFILES["asic-miner"]
        assert economics.hashrate_share(profile, 10) == pytest.approx(
            10 * economics.hashrate_share(profile, 1)
        )

    def test_profitability_report_rows(self):
        rows = MiningEconomics().profitability_report()
        assert len(rows) == len(HARDWARE_PROFILES)
        assert all("profit_per_day_usd" in row for row in rows)

    def test_zero_hashrate_network_rejected(self):
        with pytest.raises(ValueError):
            MiningEconomics(MiningEconomicsParams(network_hashrate=0.0))
