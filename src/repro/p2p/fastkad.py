"""Large-N Kademlia fast path over vectorized population state.

:class:`FastKademliaOverlay` answers the same questions as the scalar
:mod:`repro.p2p.lookup` experiment — lookup latency distribution,
failure rate, timeouts and hops under churn and routing-table staleness
— but holds the whole population in the arrays of
:mod:`repro.sim.vecstate` and advances it in *waves*: a batch of
concurrent lookups is driven hop-by-hop with whole-wave array
operations, churn flips cohorts between waves, and maintenance passes
sweep every routing table at once.  That turns the per-event Python
dispatch cost into a handful of numpy kernels per hop and makes a
10^5-node overlay under churn tractable in seconds (the scalar
simulator's per-node objects stop being practical around 10^3).  The
table's bootstrap and maintenance kernels work in fixed node blocks
spread over every core the process may use; the summary is the same
bytes whatever the core count.

Model, relative to the scalar message-level simulator:

* identifiers are 64-bit (:class:`~repro.sim.vecstate.VecIdSpace`)
  instead of 160 — order-equivalent while n << 2^64;
* a lookup is iterative greedy descent: each hop queries the current
  node's table, moves to the closest *live* contact, and pays one
  jittered round trip plus ``rpc_timeout / alpha`` for every dead or
  stale contact that sits closer than the chosen next hop (those are
  exactly the RPCs an alpha-parallel client would have burned a timeout
  on first); it terminates when no live contact improves the distance;
* success means the lookup reached the node that is *globally*
  XOR-closest to the target among currently-online nodes (computed
  exactly with :func:`~repro.sim.vecstate.xor_closest`), the same
  ground-truth criterion the scalar experiment uses;
* wave membership is frozen while a wave's hops run; churn advances
  between waves, so ``wave_size * lookup_interval`` bounds the
  membership-staleness granularity.

Metrics go through :class:`~repro.sim.metrics.MetricsRegistry`, and the
``metrics`` knob selects exact list-backed samples (default) or the
O(1)-memory streaming sketches — at 10^5+ lookups the streaming mode is
what keeps memory flat over run duration.  The reported summary uses
the same keys as :meth:`repro.p2p.lookup.LookupStats.summary` so
cross-substrate studies can pivot on them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.p2p.kademlia import KademliaConfig
from repro.sim.churn import ChurnModel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import NetworkParams
from repro.sim.vecstate import (
    EMPTY,
    VecChurn,
    VecIdSpace,
    VecRoutingTable,
    hashed_u64,
    hashed_uniform,
    stream_key,
    xor_closest,
)

_UMAX = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class FastKademliaConfig:
    """Parameters of a vectorized large-N lookup experiment.

    Mirrors :class:`repro.p2p.lookup.LookupExperimentConfig` (network
    size, lookup workload, client config, churn model, network preset,
    seed) and adds the fast-path knobs:

    wave_size:
        Lookups driven concurrently per batch.  Bigger waves amortize
        the per-hop array operations better; membership is frozen
        within a wave, so ``wave_size * lookup_interval`` is the churn
        granularity.  At least 1.
    metrics:
        ``"exact"`` or ``"streaming"`` —
        :class:`~repro.sim.metrics.MetricsRegistry` mode for the
        latency sample (scenario specs set this via their own
        ``metrics`` field).
    max_hops:
        Safety bound on iterative descent (never reached in practice:
        greedy XOR descent halves the distance every hop).  At least 1.
    """

    network_size: int = 100_000
    lookups: int = 10_000
    lookup_interval: float = 0.05
    kademlia: KademliaConfig = field(default_factory=KademliaConfig)
    churn: Optional[ChurnModel] = None
    network_params: Optional[NetworkParams] = None
    seed: int = 0
    warmup: float = 0.0
    wave_size: int = 1024
    metrics: str = "exact"
    max_hops: int = 64

    def __post_init__(self) -> None:
        # A wave of zero lookups would never advance the workload.
        for name in ("wave_size", "max_hops"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


class FastKademliaOverlay:
    """Runs the wave-based lookup workload over vectorized state."""

    def __init__(self, config: Optional[FastKademliaConfig] = None) -> None:
        self.config = config or FastKademliaConfig()
        cfg = self.config
        kad = cfg.kademlia
        self.space = VecIdSpace(cfg.network_size, seed=cfg.seed)
        self.table = VecRoutingTable(
            self.space,
            k=kad.k,
            seed=cfg.seed,
            stale_fraction=kad.initial_stale_fraction,
        )
        self.churn: Optional[VecChurn] = None
        if cfg.churn is not None:
            self.churn = VecChurn(cfg.network_size, cfg.churn, seed=cfg.seed)
        params = cfg.network_params or NetworkParams()
        # Mean-field link model: a two-region deployment sees in-region
        # latency half the time and cross-region the other half.
        if params.inter_region_latency > 0:
            self._one_way = 0.5 * (params.base_latency + params.inter_region_latency)
        else:
            self._one_way = params.base_latency
        self._jitter = params.latency_jitter
        self.metrics = MetricsRegistry(mode=cfg.metrics)
        self.events_processed = 0
        self._lookups_done = 0
        self._failures = 0
        self._hops = 0
        self._timeouts = 0
        self._now = 0.0
        self._next_refresh = kad.refresh_interval
        self._origin_key = stream_key(cfg.seed, "fastkad-origins")
        self._target_key = stream_key(cfg.seed, "fastkad-targets")
        self._rtt_key = stream_key(cfg.seed, "fastkad-rtt")

    # ------------------------------------------------------------------
    # Time and maintenance
    # ------------------------------------------------------------------
    def _online_mask(self) -> np.ndarray:
        if self.churn is not None:
            return self.churn.online
        return np.ones(self.space.n, dtype=bool)

    def _advance_to(self, t: float) -> None:
        """Advance churn and run maintenance passes up to virtual time ``t``."""
        kad = self.config.kademlia
        while self._next_refresh <= t:
            if self.churn is not None:
                self.events_processed += self.churn.advance(self._next_refresh)
            online = self._online_mask()
            self.events_processed += self.table.evict_offline(
                online, detection=kad.refresh_detection)
            self.events_processed += self.table.refresh(
                online, samples=kad.refresh_samples)
            self._next_refresh += kad.refresh_interval
        if self.churn is not None:
            self.events_processed += self.churn.advance(t)
        self._now = t

    def _rtt(self, wave: int, size: int, hop: int) -> np.ndarray:
        """Jittered per-lookup round-trip times for one hop of a wave.

        Log-normal multiplicative jitter with sigma ``latency_jitter``
        (the same shape the scalar :class:`~repro.sim.network.Network`
        applies per delivery), via Box-Muller over hashed uniforms.
        """
        lanes = np.arange(size, dtype=np.uint64)
        u1 = hashed_uniform(self._rtt_key, lanes, np.uint64(wave),
                            np.uint64(2 * hop))
        u2 = hashed_uniform(self._rtt_key, lanes, np.uint64(wave),
                            np.uint64(2 * hop + 1))
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return 2.0 * self._one_way * np.exp(self._jitter * z)

    # ------------------------------------------------------------------
    # Lookup waves
    # ------------------------------------------------------------------
    def _run_wave(self, wave: int, size: int) -> None:
        cfg = self.config
        kad = cfg.kademlia
        ids = self.space.ids
        online = self._online_mask()
        online_idx = np.flatnonzero(online)
        if len(online_idx) < 2:
            # A near-empty overlay: every lookup in the wave fails.
            self._lookups_done += size
            self._failures += size
            return
        lanes = np.arange(size, dtype=np.uint64)
        origin_u = hashed_uniform(self._origin_key, lanes, np.uint64(wave))
        origins = online_idx[np.minimum(
            (origin_u * len(online_idx)).astype(np.int64), len(online_idx) - 1)]
        targets = hashed_u64(self._target_key,
                             np.uint64(self._lookups_done) + lanes)
        # Exact ground truth: the globally closest online node per target.
        _, goal_dist = xor_closest(ids[online_idx], targets)

        cur = origins.astype(np.int64)
        cur_dist = ids[cur] ^ targets
        latency = np.zeros(size)
        hops = np.zeros(size, dtype=np.int64)
        timeouts = np.zeros(size, dtype=np.int64)
        active = np.ones(size, dtype=bool)
        rows = np.arange(size)
        for hop in range(cfg.max_hops):
            contacts = self.table.contacts_of(cur)          # (size, B*k)
            stale = self.table.stale_of(cur)
            valid = contacts != EMPTY
            safe = np.where(valid, contacts, 0)
            dist = ids[safe] ^ targets[:, None]
            dist[~valid] = _UMAX
            alive = valid & online[safe] & ~stale
            dist_alive = np.where(alive, dist, _UMAX)
            pos = np.argmin(dist_alive, axis=1)
            best = dist_alive[rows, pos]
            improved = active & (best < cur_dist)
            # Dead/stale contacts closer than the chosen hop would have
            # been tried first by a real client and burned a timeout
            # each; alpha-way parallelism amortizes the wall-clock cost.
            threshold = np.minimum(best, cur_dist)
            dead_closer = (valid & ~alive) & (dist < threshold[:, None])
            n_dead = dead_closer.sum(axis=1)
            step_cost = self._rtt(wave, size, hop) + n_dead * (
                kad.rpc_timeout / kad.alpha)
            latency += np.where(active, step_cost, 0.0)
            timeouts += np.where(active, n_dead, 0)
            hops += improved.astype(np.int64)
            self.events_processed += int(active.sum()) + int(
                n_dead[active].sum())
            cur = np.where(improved, contacts[rows, pos].astype(np.int64), cur)
            cur_dist = np.where(improved, best, cur_dist)
            active = improved
            if not active.any():
                break
        success = cur_dist == goal_dist
        self._lookups_done += size
        self._failures += int((~success).sum())
        self._hops += int(hops.sum())
        self._timeouts += int(timeouts.sum())
        if success.any():
            self.metrics.sample("lookup_latency_s").extend(latency[success])

    def run(self) -> Dict[str, float]:
        """Run warmup, every lookup wave, and return :meth:`summary`."""
        cfg = self.config
        if cfg.warmup > 0:
            self._advance_to(cfg.warmup)
        issued = 0
        wave = 0
        while issued < cfg.lookups:
            size = min(cfg.wave_size, cfg.lookups - issued)
            self._advance_to(
                cfg.warmup + (issued + size) * cfg.lookup_interval)
            self._run_wave(wave, size)
            issued += size
            wave += 1
        return self.summary()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Headline metrics, keyed like the scalar lookup experiment."""
        latencies = self.metrics.sample("lookup_latency_s")
        count = self._lookups_done
        online = self._online_mask()
        result = {
            "lookups": float(count),
            "median_latency_s": latencies.median(),
            "p90_latency_s": latencies.percentile(90),
            "p99_latency_s": latencies.percentile(99),
            "mean_latency_s": latencies.mean(),
            "failure_rate": self._failures / count if count else 0.0,
            "timeouts_per_lookup": self._timeouts / count if count else 0.0,
            "hops_per_lookup": self._hops / count if count else 0.0,
            "routing_staleness": self.table.staleness(online),
            "fraction_within_5s": latencies.fraction_below(5.0),
            "online_fraction": float(online.mean()),
            "events_processed": float(self.events_processed),
        }
        if self.churn is not None:
            result["churn_rate_per_hour"] = self.churn.churn_rate_per_hour()
        return result
