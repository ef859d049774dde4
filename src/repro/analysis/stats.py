"""Small, dependency-light statistics helpers.

These are intentionally simple re-implementations (mean, percentile,
bootstrap confidence intervals, least-squares fit) so that experiment code
reads clearly and works on plain Python lists produced by the simulators.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two values."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((value - mu) ** 2 for value in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile with ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    # Interpolate as low + delta*w (not low*(1-w) + high*w) and clamp: the
    # two-product form can round outside [low, high] for denormal values.
    interpolated = ordered[low] + (ordered[high] - ordered[low]) * weight
    return min(max(interpolated, ordered[low]), ordered[high])


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Headline summary statistics as a dictionary."""
    values = list(values)
    return {
        "count": float(len(values)),
        "mean": mean(values),
        "stdev": stdev(values),
        "min": min(values) if values else 0.0,
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "max": max(values) if values else 0.0,
    }


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    iterations: int = 1000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Bootstrap confidence interval for the mean of ``values``."""
    values = list(values)
    if not values:
        return (0.0, 0.0)
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = random.Random(seed)
    resampled_means = []
    for _ in range(iterations):
        resample = [rng.choice(values) for _ in range(len(values))]
        resampled_means.append(mean(resample))
    alpha = (1.0 - confidence) / 2.0
    return (
        percentile(resampled_means, 100.0 * alpha),
        percentile(resampled_means, 100.0 * (1.0 - alpha)),
    )
