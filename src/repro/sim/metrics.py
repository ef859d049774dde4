"""Metric collection for simulation runs.

Two primitives cover everything the experiments need:

* :class:`Counter` — monotonically increasing event counts.
* :class:`Sample` — a bag of observations with percentile/summary helpers
  (lookup latencies, block intervals, transaction confirmation times).

A :class:`MetricsRegistry` groups them under string names so simulators can
expose everything they measured in a single object.

Two sample implementations share one API (the :class:`Sample` surface):

* :class:`Sample` — exact, list-backed.  The default everywhere; every
  committed golden was produced through it and stays byte-identical.
* :class:`StreamingSample` — **O(1) memory**: a Welford accumulator for
  mean/stdev (plus exact count/total/min/max) and a logarithmically
  bucketed histogram sketch (DDSketch-style, relative-accuracy
  ``relative_error``) for percentiles and ``fraction_below``.
  Long-horizon high-rate runs opt in via ``MetricsRegistry(mode=
  "streaming")`` (scenario specs: ``metrics: streaming``) so per-event
  observation lists stop growing with run length — the prerequisite for
  10^5–10^6-node simulations.

Streaming percentiles agree with the exact ones within the sketch's
declared relative error; ``repro-run diff --profile sketch`` carries the
matching per-metric tolerance profile (:mod:`repro.analysis.diff`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


class Counter:
    """A named monotonically increasing counter."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> int:
        """Add ``amount`` (default 1) and return the new value."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount
        return self.value

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Counter({self.name!r}, {self.value})"


class Sample:
    """A collection of scalar observations with summary statistics."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.values: List[float] = []
        #: Cached ascending view of :attr:`values`; invalidated on write so
        #: ``summary()`` (four percentile calls) sorts once, not four times.
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.values.append(float(value))
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        """Record many observations (batch-appends the backing store)."""
        self.values.extend(float(value) for value in values)
        self._sorted = None

    def _ordered(self) -> List[float]:
        """The observations in ascending order (cached between writes)."""
        if self._sorted is None or len(self._sorted) != len(self.values):
            self._sorted = sorted(self.values)
        return self._sorted

    def count(self) -> int:
        """Number of observations recorded."""
        return len(self.values)

    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return sum(self.values) / len(self.values) if self.values else 0.0

    def total(self) -> float:
        """Sum of all observations."""
        return sum(self.values)

    def minimum(self) -> float:
        """Smallest observation (0.0 when empty)."""
        return min(self.values) if self.values else 0.0

    def maximum(self) -> float:
        """Largest observation (0.0 when empty)."""
        return max(self.values) if self.values else 0.0

    def stdev(self) -> float:
        """Population standard deviation (0.0 for fewer than two samples)."""
        if len(self.values) < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(sum((value - mu) ** 2 for value in self.values) / len(self.values))

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100]."""
        if not self.values:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ordered = self._ordered()
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        weight = rank - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    def median(self) -> float:
        """50th percentile."""
        return self.percentile(50.0)

    def fraction_below(self, threshold: float) -> float:
        """Fraction of observations strictly below ``threshold``."""
        if not self.values:
            return 0.0
        return sum(1 for value in self.values if value < threshold) / len(self.values)

    def summary(self) -> Dict[str, float]:
        """Dictionary of the headline statistics (for reports and tests)."""
        return {
            "count": float(self.count()),
            "mean": self.mean(),
            "stdev": self.stdev(),
            "min": self.minimum(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.maximum(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Sample({self.name!r}, n={len(self.values)}, mean={self.mean():.4g})"


class StreamingSample:
    """O(1)-memory drop-in for :class:`Sample`.

    Moment statistics (count, total, min, max, mean, population stdev) are
    exact: mean/variance use Welford's online update, which is numerically
    stable over arbitrarily long streams.  Order statistics (percentiles,
    ``fraction_below``) come from a logarithmically bucketed
    histogram: a positive value ``v`` lands in bucket
    ``ceil(log(v) / log(gamma))`` with ``gamma = (1 + a) / (1 - a)`` for
    relative error ``a``, so any reported quantile is within a factor
    ``(1 ± a)`` of the exact one.  Negative values use a mirrored bucket
    map and zeros an exact counter, so the full real line is covered.

    The bucket maps are bounded by ``max_buckets`` (lowest-magnitude
    buckets collapse first, preserving tail accuracy); with the default
    1% error, 4096 buckets span ~35 decades, so collapse never happens in
    practice and memory is a few KB regardless of stream length.
    """

    def __init__(self, name: str = "", relative_error: float = 0.01,
                 max_buckets: int = 4096) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError("relative_error must be in (0, 1)")
        if max_buckets < 8:
            raise ValueError("max_buckets must be at least 8")
        self.name = name
        self.relative_error = relative_error
        self.max_buckets = max_buckets
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._mean = 0.0
        self._m2 = 0.0
        #: bucket index -> count, positive and negative magnitudes apart.
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zeros = 0

    # -- ingest --------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation in O(1) time and memory."""
        value = float(value)
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value > 0.0:
            self._bump(self._pos, self._bucket_index(value))
        elif value < 0.0:
            self._bump(self._neg, self._bucket_index(-value))
        else:
            self._zeros += 1

    def extend(self, values: Iterable[float]) -> None:
        """Record many observations."""
        for value in values:
            self.observe(value)

    def _bucket_index(self, magnitude: float) -> int:
        return int(math.ceil(math.log(magnitude) / self._log_gamma))

    def _bump(self, buckets: Dict[int, int], index: int) -> None:
        buckets[index] = buckets.get(index, 0) + 1
        if len(buckets) > self.max_buckets:
            # Collapse the two lowest-magnitude buckets into one; the tail
            # (large magnitudes) keeps full resolution.
            low, second = sorted(buckets)[:2]
            buckets[second] += buckets.pop(low)

    # -- exact moment statistics ---------------------------------------
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty; exact via Welford)."""
        return self._mean if self._count else 0.0

    def total(self) -> float:
        """Sum of all observations."""
        return self._total

    def minimum(self) -> float:
        """Smallest observation (0.0 when empty)."""
        return self._min if self._count else 0.0

    def maximum(self) -> float:
        """Largest observation (0.0 when empty)."""
        return self._max if self._count else 0.0

    def stdev(self) -> float:
        """Population standard deviation (0.0 for fewer than two samples)."""
        if self._count < 2:
            return 0.0
        return math.sqrt(max(self._m2, 0.0) / self._count)

    # -- sketched order statistics -------------------------------------
    def _bucket_value(self, index: int) -> float:
        """Representative value of one positive bucket (relative midpoint)."""
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def _ordered_buckets(self) -> List[Tuple[float, int]]:
        """(representative value, count) pairs in ascending value order."""
        ordered: List[Tuple[float, int]] = []
        for index in sorted(self._neg, reverse=True):
            ordered.append((-self._bucket_value(index), self._neg[index]))
        if self._zeros:
            ordered.append((0.0, self._zeros))
        for index in sorted(self._pos):
            ordered.append((self._bucket_value(index), self._pos[index]))
        return ordered

    def percentile(self, q: float) -> float:
        """Sketched percentile, within the declared relative error."""
        if not self._count:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        # The extremes are tracked exactly; don't answer them off a
        # bucket representative.
        if q == 0.0:
            return self._min
        if q == 100.0:
            return self._max
        rank = (q / 100.0) * (self._count - 1)
        cumulative = 0
        for value, count in self._ordered_buckets():
            cumulative += count
            if cumulative > rank:
                # Clamp into the exact envelope so p0/p100 stay sharp.
                return min(max(value, self._min), self._max)
        return self._max

    def median(self) -> float:
        """50th percentile (sketched)."""
        return self.percentile(50.0)

    def fraction_below(self, threshold: float) -> float:
        """Approximate fraction of observations below ``threshold``."""
        if not self._count:
            return 0.0
        below = sum(count for value, count in self._ordered_buckets()
                    if value < threshold)
        return below / self._count

    def summary(self) -> Dict[str, float]:
        """Same headline statistics as :meth:`Sample.summary`."""
        return {
            "count": float(self.count()),
            "mean": self.mean(),
            "stdev": self.stdev(),
            "min": self.minimum(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.maximum(),
        }

    def bucket_count(self) -> int:
        """Live sketch buckets (bounded by ``max_buckets``); memory proxy."""
        return len(self._pos) + len(self._neg) + (1 if self._zeros else 0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"StreamingSample({self.name!r}, n={self._count}, "
                f"mean={self.mean():.4g}, buckets={self.bucket_count()})")


#: Sample implementations by metrics mode (``MetricsRegistry(mode=...)``).
SAMPLE_MODES = ("exact", "streaming")


def make_sample(name: str = "", mode: str = "exact"):
    """A sample of the requested mode (``exact`` list / ``streaming`` sketch)."""
    if mode == "exact":
        return Sample(name)
    if mode == "streaming":
        return StreamingSample(name)
    raise ValueError(f"unknown metrics mode {mode!r}; pick one of {SAMPLE_MODES}")


@dataclass
class MetricsRegistry:
    """Named collection of counters and samples.

    ``mode`` selects the sample implementation handed out by
    :meth:`sample`: ``"exact"`` (default, list-backed :class:`Sample`)
    or ``"streaming"`` (:class:`StreamingSample`, O(1) memory per
    metric).  Scenario specs select it with the ``metrics: streaming``
    knob; nothing else about the registry changes.
    """

    counters: Dict[str, Counter] = field(default_factory=dict)
    samples: Dict[str, Sample] = field(default_factory=dict)
    mode: str = "exact"

    def __post_init__(self) -> None:
        if self.mode not in SAMPLE_MODES:
            raise ValueError(
                f"unknown metrics mode {self.mode!r}; pick one of {SAMPLE_MODES}")

    def counter(self, name: str) -> Counter:
        """Get or create the counter with the given name."""
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def sample(self, name: str) -> Sample:
        """Get or create the sample with the given name (per :attr:`mode`)."""
        if name not in self.samples:
            self.samples[name] = make_sample(name, self.mode)
        return self.samples[name]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Flatten everything into plain dictionaries for reporting."""
        result: Dict[str, Dict[str, float]] = {"counters": {}, "samples": {}}
        for name, counter in self.counters.items():
            result["counters"][name] = float(counter.value)
        for name, sample in self.samples.items():
            result["samples"][name] = sample.mean()
        return result
