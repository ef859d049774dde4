"""Proof-of-work mining as a Poisson process, plus difficulty retargeting.

Section III-A: "the miner looks for a random number called nonce ... The
difficulty target is periodically adjusted in such a way that a new block is
generated every 10 minutes."

Because each hash attempt is an independent Bernoulli trial, block discovery
by a miner with a given hashrate is a Poisson process; the time to the next
block is exponential with mean ``difficulty / hashrate``.  The simulator uses
that equivalence directly instead of grinding nonces.  The
:class:`DifficultyAdjuster` reproduces Bitcoin's retargeting rule (every 2016
blocks, clamped to a 4x change), which Experiment E8 exercises: after a
hashrate shock, the average inter-block interval converges back to the
10-minute target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import SeededRNG


@dataclass
class MinerSpec:
    """Static description of a miner participating in the network."""

    name: str
    hashrate: float                  # hashes per second (arbitrary consistent unit)
    region: str = "default"
    strategy: str = "honest"         # "honest" or "selfish" (used by the network sim)


class DifficultyAdjuster:
    """Bitcoin-style periodic difficulty retargeting.

    Difficulty is expressed directly as the expected number of hashes needed
    to find a block, so ``expected_interval = difficulty / network_hashrate``.
    """

    def __init__(
        self,
        target_interval: float = 600.0,
        retarget_window: int = 2016,
        max_adjustment_factor: float = 4.0,
        initial_difficulty: Optional[float] = None,
        initial_hashrate: float = 1.0,
    ) -> None:
        if target_interval <= 0:
            raise ValueError("target interval must be positive")
        if retarget_window < 1:
            raise ValueError("retarget window must be at least one block")
        if max_adjustment_factor < 1.0:
            raise ValueError("max adjustment factor must be >= 1")
        self.target_interval = target_interval
        self.retarget_window = retarget_window
        self.max_adjustment_factor = max_adjustment_factor
        self.difficulty = (
            initial_difficulty
            if initial_difficulty is not None
            else target_interval * initial_hashrate
        )
        self._window_start_time: Optional[float] = None
        self._blocks_in_window = 0
        self.adjustment_history: List[float] = [self.difficulty]

    def record_block(self, timestamp: float) -> bool:
        """Record a block on the main chain; returns ``True`` when a retarget fired."""
        if self._window_start_time is None:
            self._window_start_time = timestamp
            return False
        self._blocks_in_window += 1
        if self._blocks_in_window < self.retarget_window:
            return False
        elapsed = max(1e-9, timestamp - self._window_start_time)
        actual_interval = elapsed / self._blocks_in_window
        ratio = self.target_interval / actual_interval
        ratio = max(1.0 / self.max_adjustment_factor, min(self.max_adjustment_factor, ratio))
        self.difficulty *= ratio
        self.adjustment_history.append(self.difficulty)
        self._window_start_time = timestamp
        self._blocks_in_window = 0
        return True


class MiningProcess:
    """Schedules exponential block-discovery times for one miner.

    The process is memoryless, so a change of the block being mined on
    (because a new tip arrived) does not require rescheduling; a change of
    difficulty or hashrate does, which :meth:`reschedule` handles.
    """

    def __init__(
        self,
        sim: Simulator,
        miner: MinerSpec,
        rng: SeededRNG,
        difficulty: Callable[[], float],
        on_block_found: Callable[[MinerSpec], None],
    ) -> None:
        self.sim = sim
        self.miner = miner
        self.rng = rng
        self.difficulty = difficulty
        self.on_block_found = on_block_found
        self.active = False
        self._pending = None
        self.blocks_found = 0

    def start(self) -> None:
        """Begin mining."""
        self.active = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop mining (miner switched off or went bankrupt)."""
        self.active = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def reschedule(self) -> None:
        """Re-draw the next block time (after a difficulty or hashrate change)."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        if self.active:
            self._schedule_next()

    def _schedule_next(self) -> None:
        if self.miner.hashrate <= 0:
            return
        mean_time = self.difficulty() / self.miner.hashrate
        delay = self.rng.exponential(mean_time)
        self._pending = self.sim.schedule(delay, self._found)

    def _found(self) -> None:
        if not self.active:
            return
        self._pending = None
        self.blocks_found += 1
        self.on_block_found(self.miner)
        self._schedule_next()
