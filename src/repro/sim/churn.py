"""Churn models for open peer-to-peer membership.

Measurement studies of deployed DHTs (Steiner et al. on KAD, Stutzbach &
Rejaie on Gnutella/BitTorrent) report heavy-tailed session lengths that are
well fit by Weibull distributions with shape < 1: most sessions are very
short, a few last days.  The paper's Problem 2 ("performance problems due to
instability, heterogeneity and churn") is driven by exactly this dynamic.

:class:`ChurnModel` describes the statistical shape (session and inter-session
time distributions); :class:`ChurnProcess` drives a population of nodes on a
simulator, flipping them online/offline and reporting the empirical churn
rate.  A ``stable()`` model with effectively infinite sessions represents the
cloud/consortium deployments the paper contrasts against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import SeededRNG


@dataclass
class ChurnModel:
    """Statistical description of peer session behaviour.

    Attributes
    ----------
    session_distribution:
        ``"weibull"``, ``"exponential"``, ``"pareto"`` or ``"constant"``.
    mean_session:
        Mean session length in seconds.
    mean_downtime:
        Mean time a peer stays offline between sessions.
    weibull_shape:
        Shape parameter when the session distribution is Weibull
        (shape < 1 gives the heavy tail observed in P2P measurements).
    availability:
        Derived long-run fraction of time a peer is online.
    """

    session_distribution: str = "weibull"
    mean_session: float = 3600.0
    mean_downtime: float = 3600.0
    weibull_shape: float = 0.59
    pareto_shape: float = 1.5

    @property
    def availability(self) -> float:
        """Long-run fraction of time a peer spends online."""
        total = self.mean_session + self.mean_downtime
        return self.mean_session / total if total > 0 else 1.0

    def sample_session(self, rng: SeededRNG) -> float:
        """Draw a session length."""
        return self._draw(rng, self.mean_session)

    def sample_downtime(self, rng: SeededRNG) -> float:
        """Draw an offline interval between sessions."""
        # Downtimes are usually modelled exponentially regardless of the
        # session distribution; the session heavy tail is what matters.
        return rng.exponential(self.mean_downtime) if self.mean_downtime > 0 else 0.0

    def _draw(self, rng: SeededRNG, mean: float) -> float:
        if mean <= 0:
            return 0.0
        if self.session_distribution == "constant":
            return mean
        if self.session_distribution == "exponential":
            return rng.exponential(mean)
        if self.session_distribution == "pareto":
            shape = self.pareto_shape
            scale = mean * (shape - 1.0) / shape if shape > 1 else mean
            return rng.pareto(shape, scale)
        if self.session_distribution == "weibull":
            # scale = mean / Gamma(1 + 1/shape); use a rational approximation
            # of the gamma function via math.gamma.
            import math

            scale = mean / math.gamma(1.0 + 1.0 / self.weibull_shape)
            return rng.weibull(self.weibull_shape, scale)
        raise ValueError(f"unknown session distribution {self.session_distribution!r}")

    # ------------------------------------------------------------------
    # Declarative construction (scenario specs)
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec) -> Optional["ChurnModel"]:
        """Build a churn model from declarative scenario data.

        Accepts ``None`` / ``"none"`` (no churn), an existing
        :class:`ChurnModel` (passed through), a preset name (``"kad"``,
        ``"bittorrent"``, ``"stable"``, ``"aggressive"``) or a dict of
        constructor arguments.  This is the hook
        :mod:`repro.scenarios` uses so a :class:`ScenarioSpec` can stay
        plain JSON-serialisable data.
        """
        if spec is None:
            return None
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            name = spec.replace("_", "-").lower()
            if name in ("none", "off"):
                return None
            presets = {
                "kad": cls.kad_like,
                "bittorrent": cls.bittorrent_like,
                "stable": cls.stable,
                "aggressive": cls.aggressive,
            }
            if name not in presets:
                raise ValueError(
                    f"unknown churn preset {spec!r}; pick one of {sorted(presets)} or 'none'"
                )
            return presets[name]()
        if isinstance(spec, dict):
            return cls(**spec)
        raise TypeError(f"cannot build a ChurnModel from {type(spec).__name__}")

    # ------------------------------------------------------------------
    # Presets calibrated to published measurement studies
    # ------------------------------------------------------------------
    @classmethod
    def kad_like(cls) -> "ChurnModel":
        """Heavy-tailed churn comparable to eMule KAD measurements."""
        return cls(
            session_distribution="weibull",
            mean_session=4.0 * 3600.0,
            mean_downtime=2.0 * 3600.0,
            weibull_shape=0.59,
        )

    @classmethod
    def bittorrent_like(cls) -> "ChurnModel":
        """Shorter, churn-heavy sessions typical of BitTorrent Mainline DHT."""
        return cls(
            session_distribution="weibull",
            mean_session=1.0 * 3600.0,
            mean_downtime=1.0 * 3600.0,
            weibull_shape=0.5,
        )

    @classmethod
    def stable(cls, mean_session: float = 30 * 24 * 3600.0) -> "ChurnModel":
        """Cloud/consortium-like membership: nodes essentially never leave."""
        return cls(
            session_distribution="exponential",
            mean_session=mean_session,
            mean_downtime=60.0,
        )

    @classmethod
    def aggressive(cls) -> "ChurnModel":
        """Very high churn used for stress experiments."""
        return cls(
            session_distribution="weibull",
            mean_session=600.0,
            mean_downtime=1200.0,
            weibull_shape=0.5,
        )


class ChurnProcess:
    """Drives a population of peers on/offline according to a churn model.

    The process calls ``on_join(node_id)`` / ``on_leave(node_id)`` callbacks
    when a peer's state changes, so protocol simulators can update routing
    state.  It also records join/leave counts to report the realised churn
    rate (events per node per hour).
    """

    def __init__(
        self,
        sim: Simulator,
        node_ids: List,
        model: ChurnModel,
        rng: Optional[SeededRNG] = None,
        on_join: Optional[Callable] = None,
        on_leave: Optional[Callable] = None,
        initially_online: bool = True,
        steady_state_init: bool = False,
    ) -> None:
        self.sim = sim
        self.model = model
        self.rng = rng or SeededRNG(0)
        self.on_join = on_join
        self.on_leave = on_leave
        self.online: Dict = {}
        self.join_events = 0
        self.leave_events = 0
        self._started_at = sim.now
        for node_id in node_ids:
            if steady_state_init:
                # Start from the stationary regime instead of "everyone online":
                # each peer is online with probability equal to its long-run
                # availability, which avoids a large transient wave of departures.
                self.online[node_id] = self.rng.bernoulli(model.availability)
            else:
                self.online[node_id] = initially_online

    def start(self) -> None:
        """Schedule the first transition for every peer."""
        for node_id, is_online in self.online.items():
            if is_online:
                remaining = self.model.sample_session(self.rng) * self.rng.random()
                self.sim.schedule(remaining, self._leave, node_id)
            else:
                wait = self.model.sample_downtime(self.rng) * self.rng.random()
                self.sim.schedule(wait, self._join, node_id)

    def churn_rate_per_hour(self) -> float:
        """Average membership change events per node per hour so far."""
        elapsed = self.sim.now - self._started_at
        if elapsed <= 0 or not self.online:
            return 0.0
        events = self.join_events + self.leave_events
        return events / len(self.online) / (elapsed / 3600.0)

    # ------------------------------------------------------------------
    # Internal transitions
    # ------------------------------------------------------------------
    def _leave(self, node_id) -> None:
        if not self.online.get(node_id, False):
            return
        self.online[node_id] = False
        self.leave_events += 1
        if self.on_leave is not None:
            self.on_leave(node_id)
        downtime = self.model.sample_downtime(self.rng)
        self.sim.schedule(downtime, self._join, node_id)

    def _join(self, node_id) -> None:
        if self.online.get(node_id, False):
            return
        self.online[node_id] = True
        self.join_events += 1
        if self.on_join is not None:
            self.on_join(node_id)
        session = self.model.sample_session(self.rng)
        self.sim.schedule(session, self._leave, node_id)
