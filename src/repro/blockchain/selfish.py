"""Selfish mining (Eyal & Sirer): "Majority is not enough" (Experiment E10).

Section III-C, Problem 1: "Some recent research work [30] indicates that the
incentive mechanism of Bitcoin is furthermore flawed.  They present an attack
where a minority colluding pool can obtain more revenue than the pool's fair
share."

Two implementations are provided and cross-checked:

* :func:`selfish_mining_revenue` — the closed-form relative revenue from the
  original paper (Eyal & Sirer 2014/2018, eq. 8), a function of the selfish
  pool's hash-power share ``alpha`` and the fraction ``gamma`` of honest
  miners that mine on the selfish branch during a tie.
* :func:`simulate_selfish_mining` — a Monte-Carlo simulation of the selfish
  mining state machine (private branch lead, tie races, branch releases),
  which reproduces the same curve and exposes the intermediate quantities
  (stale rate, tie races won).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.rng import SeededRNG


def selfish_mining_revenue(alpha: float, gamma: float = 0.0) -> float:
    """Relative revenue of the selfish pool (Eyal–Sirer closed form).

    Parameters
    ----------
    alpha:
        The selfish pool's share of total hash power, in [0, 0.5).
    gamma:
        Fraction of the honest hash power that mines on the selfish pool's
        block during a 1-1 tie (how well the pool wins propagation races).

    Returns
    -------
    The fraction of main-chain blocks (and hence reward) won by the pool.
    Honest behaviour would earn exactly ``alpha``; any excess is the attack's
    gain.
    """
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must be in [0, 0.5) for the closed form")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    if alpha == 0.0:
        return 0.0
    numerator = alpha * (1 - alpha) ** 2 * (4 * alpha + gamma * (1 - 2 * alpha)) - alpha ** 3
    denominator = 1 - alpha * (1 + (2 - alpha) * alpha)
    if denominator <= 0:
        return 1.0
    return numerator / denominator


def profitability_threshold(gamma: float) -> float:
    """Minimum alpha at which selfish mining beats honest mining (closed form)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    return (1.0 - gamma) / (3.0 - 2.0 * gamma)


@dataclass
class SelfishMiningResult:
    """Outcome of a Monte-Carlo selfish-mining run."""

    alpha: float
    gamma: float
    blocks_simulated: int
    selfish_main_chain_blocks: int
    honest_main_chain_blocks: int
    stale_blocks: int
    tie_races: int

    @property
    def relative_revenue(self) -> float:
        """Share of main-chain blocks won by the selfish pool."""
        total = self.selfish_main_chain_blocks + self.honest_main_chain_blocks
        return self.selfish_main_chain_blocks / total if total else 0.0

    @property
    def advantage(self) -> float:
        """Excess revenue relative to the pool's fair share ``alpha``."""
        return self.relative_revenue - self.alpha

    @property
    def stale_rate(self) -> float:
        """Stale blocks as a fraction of all blocks found."""
        total = (
            self.selfish_main_chain_blocks
            + self.honest_main_chain_blocks
            + self.stale_blocks
        )
        return self.stale_blocks / total if total else 0.0


def simulate_selfish_mining(
    alpha: float = 1.0 / 3.0,
    gamma: float = 0.0,
    blocks: int = 100_000,
    seed: int = 0,
) -> SelfishMiningResult:
    """Monte-Carlo simulation of the Eyal–Sirer selfish mining state machine.

    The state is the selfish pool's private lead over the public chain.  Each
    step one block is found: by the pool with probability ``alpha``, by the
    honest network otherwise.  The pool follows the published strategy
    (withhold; release one-for-one when threatened; publish the whole branch
    when its lead collapses from two to one).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    rng = SeededRNG(seed)
    lead = 0                    # private chain length minus public chain length
    tie = False                 # a 1-1 race is in progress
    selfish_blocks = 0
    honest_blocks = 0
    stale_blocks = 0
    tie_races = 0

    for _ in range(blocks):
        pool_found = rng.bernoulli(alpha)
        if pool_found:
            if tie:
                # Pool mines on its own branch and wins the race outright:
                # both its blocks join the main chain, the honest rival is stale.
                selfish_blocks += 2
                stale_blocks += 1
                tie = False
                lead = 0
            else:
                lead += 1
        else:
            if tie:
                # Honest network extends one of the two competing branches.
                if rng.bernoulli(gamma):
                    # Extends the pool's branch: pool keeps its block, honest
                    # miner gets the new one, the rival honest block is stale.
                    selfish_blocks += 1
                    honest_blocks += 1
                    stale_blocks += 1
                else:
                    # Extends the honest branch: the pool's block is stale.
                    honest_blocks += 2
                    stale_blocks += 1
                tie = False
                lead = 0
            elif lead == 0:
                honest_blocks += 1
            elif lead == 1:
                # Honest network catches up: the pool publishes its block and
                # a 1-1 race begins.
                tie = True
                tie_races += 1
                lead = 0
            elif lead == 2:
                # Pool publishes the whole private branch and takes both
                # blocks; the honest block is orphaned.
                selfish_blocks += 2
                stale_blocks += 1
                lead = 0
            else:
                # Pool stays ahead: it reveals one block (which will end up on
                # the main chain); the honest block just found is doomed to be
                # orphaned when the rest of the private branch is published.
                selfish_blocks += 1
                stale_blocks += 1
                lead -= 1

    # Flush any remaining private lead at the end of the run.
    selfish_blocks += max(0, lead)

    return SelfishMiningResult(
        alpha=alpha,
        gamma=gamma,
        blocks_simulated=blocks,
        selfish_main_chain_blocks=selfish_blocks,
        honest_main_chain_blocks=honest_blocks,
        stale_blocks=stale_blocks,
        tie_races=tie_races,
    )


def revenue_curve(
    alphas: List[float],
    gamma: float = 0.0,
    blocks: int = 100_000,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Analytic and simulated relative revenue for a sweep of alphas."""
    rows = []
    for alpha in alphas:
        analytic = selfish_mining_revenue(alpha, gamma) if alpha < 0.5 else float("nan")
        simulated = simulate_selfish_mining(alpha, gamma, blocks=blocks, seed=seed)
        rows.append(
            {
                "alpha": alpha,
                "gamma": gamma,
                "honest_revenue": alpha,
                "analytic_revenue": analytic,
                "simulated_revenue": simulated.relative_revenue,
                "advantage": simulated.advantage,
            }
        )
    return rows
