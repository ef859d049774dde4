"""Discrete-event simulation kernel used by every simulator in :mod:`repro`.

The kernel is deliberately small and deterministic:

* :class:`~repro.sim.engine.Simulator` — a virtual clock and one event loop
  over one programming model, callback scheduling (``schedule`` /
  ``cancel`` / ``run(until=None)``).
* :class:`~repro.sim.rng.SeededRNG` — a seeded random source with the
  distributions used across the library (exponential, Pareto, Weibull,
  Zipf, log-normal).
* :class:`~repro.sim.network.Network` — a latency/bandwidth message-passing
  model between named nodes; delay comes from the two nodes' regions, failure
  is a dropped message (offline node or random loss).
* :mod:`~repro.sim.churn` — session/arrival processes used to model open
  peer-to-peer membership dynamics.
* :mod:`~repro.sim.metrics` — counters and samples collected during a
  run; exact by default, O(1)-memory streaming sketches on
  request (``metrics: streaming`` in scenario specs).
* :mod:`~repro.sim.vecstate` — vectorized (numpy) node-population state
  for large-N overlays: packed ``uint64`` id spaces, batch XOR-distance
  routing tables and array-backed churn, used by the
  ``architecture: {overlay: kad-fast}`` scenarios.

Everything is seeded explicitly; running the same scenario twice with the
same seed produces the same trajectory.  A public name lives here only while
a model, claim benchmark, example or the end-to-end benchmark uses it
(``tests/test_reachability.py``).
"""

from repro.sim.engine import Simulator
from repro.sim.rng import SeededRNG
from repro.sim.network import NETWORK_PRESETS, Message, Network, NetworkParams
from repro.sim.node import Node
from repro.sim.churn import ChurnModel, ChurnProcess
from repro.sim.metrics import (
    Counter,
    MetricsRegistry,
    Sample,
    StreamingSample,
    make_sample,
)

__all__ = [
    "Simulator",
    "SeededRNG",
    "Message",
    "Network",
    "NETWORK_PRESETS",
    "NetworkParams",
    "Node",
    "ChurnModel",
    "ChurnProcess",
    "Counter",
    "MetricsRegistry",
    "Sample",
    "StreamingSample",
    "make_sample",
]
