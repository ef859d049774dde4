"""Mining economics: the hardware arms race that prices out ordinary users.

Problem 1 of Section III-C: "Huge commercial BitFarms with specialized
hardware emerged to mine bitcoins. ... Nowadays it is almost impossible for
a normal user to mine bitcoins with a normal desktop computer."

:class:`MiningEconomics` computes expected rewards and profitability for a
mix of miner hardware profiles (CPU, GPU, ASIC, industrial farm) given the
total network hashrate, block reward and electricity prices.  Experiment E9
uses it to show that the expected daily revenue of a desktop CPU miner is
effectively zero while industrial ASIC farms remain profitable, which is the
mechanism behind pool/farm concentration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class MinerProfile:
    """Hardware class participating in proof-of-work mining.

    Attributes
    ----------
    name:
        Human-readable label ("desktop-cpu", "asic-farm", ...).
    hashrate:
        Hashes per second produced by one unit of this hardware.
    power_watts:
        Electrical draw of one unit in watts.
    hardware_cost:
        Purchase cost of one unit in dollars.
    electricity_price:
        $/kWh paid by the operator of this hardware (industrial farms get
        cheaper power than households).
    """

    name: str
    hashrate: float
    power_watts: float
    hardware_cost: float
    electricity_price: float = 0.10


#: Representative 2018-era hardware profiles (orders of magnitude are what
#: matter; exact device models do not).
HARDWARE_PROFILES: Dict[str, MinerProfile] = {
    "desktop-cpu": MinerProfile("desktop-cpu", hashrate=20e6, power_watts=95.0,
                                hardware_cost=0.0, electricity_price=0.15),
    "gaming-gpu": MinerProfile("gaming-gpu", hashrate=500e6, power_watts=220.0,
                               hardware_cost=600.0, electricity_price=0.15),
    "asic-miner": MinerProfile("asic-miner", hashrate=14e12, power_watts=1400.0,
                               hardware_cost=2000.0, electricity_price=0.10),
    "asic-farm": MinerProfile("asic-farm", hashrate=14e15, power_watts=1.4e6,
                              hardware_cost=2_000_000.0, electricity_price=0.04),
}


@dataclass
class MiningEconomicsParams:
    """Network-level constants for profitability calculations."""

    network_hashrate: float = 40e18          # ~40 EH/s (2018-era Bitcoin)
    block_reward_btc: float = 12.5
    fees_per_block_btc: float = 0.5
    btc_price_usd: float = 6500.0
    blocks_per_day: float = 144.0


class MiningEconomics:
    """Expected-reward and profitability model for proof-of-work miners."""

    def __init__(self, params: Optional[MiningEconomicsParams] = None) -> None:
        self.params = params or MiningEconomicsParams()
        if self.params.network_hashrate <= 0:
            raise ValueError("network hashrate must be positive")

    # ------------------------------------------------------------------
    # Per-miner quantities
    # ------------------------------------------------------------------
    def hashrate_share(self, profile: MinerProfile, units: int = 1) -> float:
        """Fraction of the network hashrate contributed by ``units`` devices."""
        return (profile.hashrate * units) / self.params.network_hashrate

    def expected_blocks_per_day(self, profile: MinerProfile, units: int = 1) -> float:
        """Expected number of blocks found per day."""
        return self.hashrate_share(profile, units) * self.params.blocks_per_day

    def expected_daily_revenue_usd(self, profile: MinerProfile, units: int = 1) -> float:
        """Expected revenue per day in dollars (reward + fees)."""
        reward_per_block = (
            self.params.block_reward_btc + self.params.fees_per_block_btc
        ) * self.params.btc_price_usd
        return self.expected_blocks_per_day(profile, units) * reward_per_block

    def daily_electricity_cost_usd(self, profile: MinerProfile, units: int = 1) -> float:
        """Electricity cost per day in dollars."""
        kwh_per_day = profile.power_watts * units * 24.0 / 1000.0
        return kwh_per_day * profile.electricity_price

    def daily_profit_usd(self, profile: MinerProfile, units: int = 1) -> float:
        """Expected profit per day (revenue minus electricity, ignoring capex)."""
        return self.expected_daily_revenue_usd(profile, units) - self.daily_electricity_cost_usd(
            profile, units
        )

    def expected_days_per_block(self, profile: MinerProfile, units: int = 1) -> float:
        """Expected waiting time, in days, for this miner to find one block solo."""
        blocks_per_day = self.expected_blocks_per_day(profile, units)
        return float("inf") if blocks_per_day == 0 else 1.0 / blocks_per_day

    # ------------------------------------------------------------------
    # Comparative reports
    # ------------------------------------------------------------------
    def profitability_report(
        self, profiles: Optional[Dict[str, MinerProfile]] = None
    ) -> List[Dict[str, float]]:
        """Per-hardware-class profitability table (Experiment E9)."""
        profiles = profiles or HARDWARE_PROFILES
        rows: List[Dict[str, float]] = []
        for name, profile in profiles.items():
            rows.append(
                {
                    "name": name,
                    "hashrate_share": self.hashrate_share(profile),
                    "revenue_per_day_usd": self.expected_daily_revenue_usd(profile),
                    "electricity_per_day_usd": self.daily_electricity_cost_usd(profile),
                    "profit_per_day_usd": self.daily_profit_usd(profile),
                    "days_per_block_solo": self.expected_days_per_block(profile),
                }
            )
        return rows
