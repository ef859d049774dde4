"""Preferential-attachment market-share dynamics (Experiment E1).

The paper argues that the observed concentration of the CDN and cloud
markets ("more than 75% of the CDN market is controlled by three providers,
while five cloud service providers control around 60%") is "likely a natural
effect of market dynamics such as preferential attachment and a
manifestation of power-law rather than a consequence of any technological
bottlenecks".

:class:`MarketModel` makes that generative claim testable: customers arrive
over time and pick a provider with probability proportional to
``(provider share)^alpha`` blended with a uniform exploration term, plus
economies-of-scale price advantages for large providers and a small churn
flow.  With preferential attachment switched on, the market converges to the
concentration levels the paper quotes; with uniform attachment it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.economics.concentration import concentration_report
from repro.sim.rng import SeededRNG


@dataclass
class MarketParams:
    """Parameters of the market formation model.

    Attributes
    ----------
    providers:
        Number of competing providers (e.g. CDNs or cloud vendors).
    initial_customers_per_provider:
        Seed customer count so early steps are well defined.
    preferential_exponent:
        Exponent ``alpha`` on the provider's current share when customers
        choose; 0 disables preferential attachment (uniform choice),
        1 is classic proportional attachment, >1 super-linear.
    exploration_rate:
        Probability that an arriving customer ignores market share and picks
        uniformly at random (keeps small providers alive).
    scale_advantage:
        Economies-of-scale term: a provider's attractiveness is multiplied by
        ``1 + scale_advantage * share`` reflecting lower unit prices at scale.
    churn_rate:
        Per-step fraction of existing customers that re-evaluate and may
        switch providers.
    """

    providers: int = 20
    initial_customers_per_provider: int = 5
    preferential_exponent: float = 1.2
    exploration_rate: float = 0.05
    scale_advantage: float = 1.0
    churn_rate: float = 0.02


@dataclass
class MarketSnapshot:
    """State of the market at one point in time."""

    step: int
    customers: Dict[str, int]

    @property
    def shares(self) -> Dict[str, float]:
        """Market shares, normalized to sum to 1."""
        total = sum(self.customers.values())
        if total == 0:
            return {name: 0.0 for name in self.customers}
        return {name: count / total for name, count in self.customers.items()}

    def concentration(self) -> Dict[str, float]:
        """Concentration metrics of this snapshot."""
        return concentration_report(list(self.shares.values()))


class MarketModel:
    """Simulates customer arrivals choosing among competing providers."""

    def __init__(self, params: Optional[MarketParams] = None, seed: int = 0) -> None:
        self.params = params or MarketParams()
        if self.params.providers < 1:
            raise ValueError("need at least one provider")
        self.rng = SeededRNG(seed)
        self.customers: Dict[str, int] = {
            f"provider-{index}": self.params.initial_customers_per_provider
            for index in range(self.params.providers)
        }
        self.step_count = 0
        self.history: List[MarketSnapshot] = [self.snapshot()]

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def _attractiveness(self) -> Dict[str, float]:
        total = sum(self.customers.values())
        weights: Dict[str, float] = {}
        for name, count in self.customers.items():
            share = count / total if total > 0 else 0.0
            preferential = share ** self.params.preferential_exponent if share > 0 else 0.0
            scale_bonus = 1.0 + self.params.scale_advantage * share
            weights[name] = max(1e-9, preferential * scale_bonus)
        return weights

    def _choose_provider(self) -> str:
        names = list(self.customers.keys())
        if self.rng.bernoulli(self.params.exploration_rate):
            return self.rng.choice(names)
        if self.params.preferential_exponent <= 0:
            return self.rng.choice(names)
        weights = self._attractiveness()
        return self.rng.weighted_choice(names, [weights[name] for name in names])

    def step(self, arrivals: int = 100) -> MarketSnapshot:
        """Advance one period: new customers arrive and some existing ones switch."""
        for _ in range(arrivals):
            self.customers[self._choose_provider()] += 1
        self._apply_churn()
        self.step_count += 1
        snapshot = self.snapshot()
        self.history.append(snapshot)
        return snapshot

    def _apply_churn(self) -> None:
        if self.params.churn_rate <= 0:
            return
        for name in list(self.customers.keys()):
            count = self.customers[name]
            leavers = sum(
                1 for _ in range(count) if self.rng.bernoulli(self.params.churn_rate)
            )
            if leavers == 0:
                continue
            self.customers[name] -= leavers
            for _ in range(leavers):
                self.customers[self._choose_provider()] += 1

    def run(self, steps: int = 100, arrivals_per_step: int = 100) -> MarketSnapshot:
        """Run the market for ``steps`` periods and return the final snapshot."""
        snapshot = self.snapshot()
        for _ in range(steps):
            snapshot = self.step(arrivals_per_step)
        return snapshot

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> MarketSnapshot:
        """Current market state."""
        return MarketSnapshot(step=self.step_count, customers=dict(self.customers))

    def shares(self) -> Dict[str, float]:
        """Current normalized market shares."""
        return self.snapshot().shares

    def concentration(self) -> Dict[str, float]:
        """Current concentration metrics."""
        return self.snapshot().concentration()


def observed_market_reference() -> Dict[str, Dict[str, float]]:
    """The concentration figures quoted in Section I of the paper.

    Returns a mapping from market name to the quoted shares, used by
    Experiment E1 to compare the generative model against the paper's
    numbers (Datanyze CDN market share, Canalys cloud market share 2018).
    """
    return {
        "cdn": {"top3_share": 0.75, "top1_share": 0.40},
        "cloud": {"top5_share": 0.60, "top1_share": 0.33},
    }
