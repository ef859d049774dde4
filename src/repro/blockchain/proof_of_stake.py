"""Proof-of-stake, nothing-at-stake and the cost-of-attack comparison (E14).

Section III-C, Problem 2: "Alternative approaches based on proof-of-X, where
X could be stake, space, activity, etc. seem not be able to fully address
this problem so far", citing Houy's "It will cost you nothing to 'kill' a
proof-of-stake crypto-currency".

Two models back Experiment E14:

* :class:`NothingAtStakeModel` — fork persistence under naive (slashing-free)
  proof-of-stake.  Because validating on every fork is costless and weakly
  dominant, rational validators multi-vote and forks persist far longer than
  under proof-of-work, where hash power spent on one branch cannot be spent
  on another.
* :func:`attack_cost_comparison` — the out-of-pocket cost of attacking PoW
  (hardware + energy for >50% hash power) versus naive PoS (Houy's argument:
  a credible buyer can acquire old keys or bribe stakeholders at a price not
  tied to any physical resource), and versus PoS with slashing, where the
  attacker must burn the stake it bonded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.rng import SeededRNG


@dataclass
class ProofOfStakeParams:
    """Stake distribution and protocol behaviour."""

    validators: int = 100
    stake_pareto_shape: float = 1.16
    multi_vote_fraction: float = 1.0      # fraction of validators that vote on all forks
    slashing_enabled: bool = False
    rounds: int = 2000
    fork_probability: float = 0.05        # chance a round produces two candidate blocks
    seed: int = 0


@dataclass
class ForkPersistenceResult:
    """How long forks survive under a given validator behaviour."""

    forks_started: int
    mean_fork_duration_rounds: float
    max_fork_duration_rounds: int
    rounds_with_open_fork: int
    total_rounds: int

    @property
    def fork_open_fraction(self) -> float:
        """Fraction of rounds during which consensus was split."""
        return self.rounds_with_open_fork / self.total_rounds if self.total_rounds else 0.0


class NothingAtStakeModel:
    """Round-based fork persistence model for chain-based PoS."""

    def __init__(self, params: Optional[ProofOfStakeParams] = None) -> None:
        self.params = params or ProofOfStakeParams()
        rng = SeededRNG(self.params.seed)
        shape = self.params.stake_pareto_shape
        if self.params.validators > 0 and shape <= 0:
            raise ValueError("pareto shape and scale must be positive")
        # Pareto(shape) stakes of minimum 1, drawn as the stdlib's
        # ``paretovariate`` draws them: one uniform per validator.
        draw = rng.random
        raw = [(1.0 - draw()) ** (-1.0 / shape)
               for _ in range(self.params.validators)]
        total = sum(raw)
        self.stakes = [value / total for value in raw]
        self.rng = rng

    def run(self) -> ForkPersistenceResult:
        """Simulate fork creation and resolution over the configured rounds.

        A fork resolves in a given round only when the stake that votes on a
        *single* branch (because it refuses to multi-vote, or because slashing
        makes multi-voting irrational) exceeds half of all stake; otherwise
        both branches keep collecting signatures and the split persists.

        Draws, in order: one per validator (does it multi-vote?), then per
        round one fork draw while no fork is open and one branch-split draw
        while one is.
        """
        params = self.params
        multi_vote = (
            0.0 if params.slashing_enabled else params.multi_vote_fraction
        )
        fork_probability = params.fork_probability
        if params.validators > 0 and not 0.0 <= multi_vote <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if params.rounds > 0 and not 0.0 <= fork_probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        draw = self.rng.random
        fork_open = False
        fork_started_round = 0
        forks_started = 0
        durations: List[int] = []
        rounds_open = 0

        # Which validators multi-vote is fixed per run (it is a behaviour);
        # the rest commit their stake to a single branch.
        single_branch_stake = sum([
            stake for stake in self.stakes if draw() >= multi_vote])

        for round_index in range(params.rounds):
            if not fork_open and draw() < fork_probability:
                fork_open = True
                fork_started_round = round_index
                forks_started += 1
            if fork_open:
                rounds_open += 1
                # The committed (single-branch) stake splits between the two
                # branches; the fork resolves when one branch's exclusive
                # support exceeds half of the total stake.
                branch_support = single_branch_stake * (
                    0.4 + (0.6 - 0.4) * draw())
                decisive = max(branch_support, single_branch_stake - branch_support)
                if decisive > 0.5:
                    durations.append(round_index - fork_started_round + 1)
                    fork_open = False
        if fork_open:
            durations.append(params.rounds - fork_started_round)
        return ForkPersistenceResult(
            forks_started=forks_started,
            mean_fork_duration_rounds=(
                sum(durations) / len(durations) if durations else 0.0
            ),
            max_fork_duration_rounds=max(durations) if durations else 0,
            rounds_with_open_fork=rounds_open,
            total_rounds=params.rounds,
        )


def attack_cost_comparison(
    network_hashrate_th: float = 40_000_000.0,
    asic_cost_per_th_usd: float = 70.0,
    energy_cost_per_th_hour_usd: float = 0.006,
    attack_duration_hours: float = 6.0,
    total_stake_usd: float = 5_000_000_000.0,
    old_key_discount: float = 0.01,
    bonded_fraction: float = 0.10,
) -> Dict[str, Dict[str, float]]:
    """Cost of acquiring a majority under PoW, naive PoS and slashing PoS.

    * PoW: buy (or build) hardware matching the honest network and power it
      for the attack duration — a physical, externally-priced resource.
    * Naive PoS (Houy's argument): past stakeholders can sell old keys for
      almost nothing since using them costs them nothing; the attacker's
      out-of-pocket cost is a small fraction of the stake's face value.
    * PoS with slashing: the attacker must bond and then forfeit real stake,
      so the cost is the burned bond.
    """
    pow_capital = network_hashrate_th * 1.02 * asic_cost_per_th_usd
    pow_energy = network_hashrate_th * 1.02 * energy_cost_per_th_hour_usd * attack_duration_hours
    naive_pos_cost = total_stake_usd * 0.51 * old_key_discount
    slashing_cost = total_stake_usd * bonded_fraction * 0.34  # 1/3+ of bonded stake burned
    return {
        "pow": {
            "capital_usd": pow_capital,
            "operating_usd": pow_energy,
            "total_usd": pow_capital + pow_energy,
        },
        "naive_pos": {
            "capital_usd": naive_pos_cost,
            "operating_usd": 0.0,
            "total_usd": naive_pos_cost,
        },
        "slashing_pos": {
            "capital_usd": slashing_cost,
            "operating_usd": 0.0,
            "total_usd": slashing_cost,
        },
    }
