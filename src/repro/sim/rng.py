"""Seeded random source with the distributions used across the library.

Every simulator takes a :class:`SeededRNG` (or a seed from which it builds
one) so that experiments are reproducible.  The class wraps
:class:`random.Random` rather than NumPy's generator because most draws are
scalar and interleaved with simulation logic; helpers that need vectorised
draws convert explicitly.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class SeededRNG:
    """Deterministic random number generator with domain-specific helpers."""

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)
        #: Uniform float in ``[0, 1)``: the generator's own C method, so a
        #: draw is one call with no Python frame in between.
        self.random = self._random.random

    def __getstate__(self) -> Dict[str, object]:
        # ``copy.deepcopy`` copies a bound C method by reference: a copy
        # rebinds ``random`` to its own generator instead.
        state = dict(self.__dict__)
        del state["random"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.random = self._random.random

    # ------------------------------------------------------------------
    # Core draws
    # ------------------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def getrandbits(self, bits: int) -> int:
        """Uniform integer with ``bits`` random bits."""
        return self._random.getrandbits(bits)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of ``items``."""
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """Sample ``k`` distinct elements of ``items`` without replacement."""
        return self._random.sample(items, k)

    def shuffle(self, items: List[T]) -> List[T]:
        """Shuffle ``items`` in place and return it for convenience."""
        self._random.shuffle(items)
        return items

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal draw."""
        return self._random.gauss(mu, sigma)

    # ------------------------------------------------------------------
    # Heavy-tailed / lifetime distributions
    # ------------------------------------------------------------------
    def exponential(self, mean: float) -> float:
        """Exponential draw with the given mean (not rate)."""
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        return self._random.expovariate(1.0 / mean)

    def pareto(self, shape: float, scale: float = 1.0) -> float:
        """Pareto (Lomax-style, ``scale`` is the minimum value) draw."""
        if shape <= 0 or scale <= 0:
            raise ValueError("pareto shape and scale must be positive")
        return scale * (self._random.paretovariate(shape))

    def weibull(self, shape: float, scale: float) -> float:
        """Weibull draw; shape < 1 gives the heavy-tailed sessions seen in P2P."""
        if shape <= 0 or scale <= 0:
            raise ValueError("weibull shape and scale must be positive")
        return self._random.weibullvariate(scale, shape)

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normal draw (parameters of the underlying normal)."""
        return self._random.lognormvariate(mu, sigma)

    def zipf_rank(self, n: int, exponent: float = 1.0) -> int:
        """Draw a 1-based rank from a Zipf distribution over ``n`` items."""
        if n <= 0:
            raise ValueError("zipf population must be positive")
        weights = self._zipf_weights(n, exponent)
        target = self._random.random() * weights[-1]
        # Binary search in the cumulative weights.
        low, high = 0, n - 1
        while low < high:
            mid = (low + high) // 2
            if weights[mid] < target:
                low = mid + 1
            else:
                high = mid
        return low + 1

    def _zipf_weights(self, n: int, exponent: float) -> List[float]:
        key = (n, exponent)
        cache = getattr(self, "_zipf_cache", None)
        if cache is None:
            cache = {}
            self._zipf_cache = cache
        if key not in cache:
            cumulative: List[float] = []
            total = 0.0
            for rank in range(1, n + 1):
                total += 1.0 / (rank ** exponent)
                cumulative.append(total)
            cache[key] = cumulative
        return cache[key]

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def bernoulli(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        return self._random.random() < probability

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element of ``items`` proportionally to ``weights``."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        return self._random.choices(list(items), weights=list(weights), k=1)[0]

    def fork(self, label: str) -> "SeededRNG":
        """Derive an independent, reproducible child generator.

        Child streams are keyed on ``(parent seed, label)`` so that adding a
        new consumer of randomness does not perturb existing ones.  The
        derivation must not use the builtin ``hash`` — string hashing is
        randomized per process (PYTHONHASHSEED), which would make fixed-seed
        runs differ between invocations.
        """
        digest = hashlib.sha256(f"{self.seed!r}:{label}".encode("utf-8")).digest()
        child_seed = int.from_bytes(digest[:8], "big") & 0x7FFFFFFF
        return SeededRNG(child_seed)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SeededRNG(seed={self.seed!r})"
