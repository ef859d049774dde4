"""repro — simulation & analysis library reproducing
"Please, do not Decentralize the Internet with (Permissionless) Blockchains!"
(Garcia Lopez, Montresor, Datta — ICDCS 2019).

The library builds, from scratch, every system the paper's argument rests on
and exposes the paper's quantitative claims as runnable experiments:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel.
* :mod:`repro.p2p` — open peer-to-peer overlays (DHTs, flooding, superpeers,
  one-hop), churn, Sybil attacks, free riding and tit-for-tat.
* :mod:`repro.blockchain` — permissionless proof-of-work networks, mining
  pools, selfish mining, double-spend analysis, energy, proof-of-stake and
  the scalability trilemma.
* :mod:`repro.consensus` — PBFT and Raft replication substrates.
* :mod:`repro.permissioned` — a Hyperledger-Fabric-like permissioned
  blockchain (execute-order-validate, channels, MVCC).
* :mod:`repro.edge` — edge-centric topologies, placement and blockchain
  islands.
* :mod:`repro.economics` — market concentration, pricing volatility and
  mining economics.
* :mod:`repro.core` — the decision framework and the claim registry
  (E1-E16).
* :mod:`repro.scenarios` — the declarative scenario framework: one
  :class:`~repro.scenarios.ScenarioSpec` per experiment, five architecture
  adapters, a named registry and the ``python -m repro.run`` /
  ``repro-run`` CLI.

Quickstart::

    from repro.scenarios import run_scenario, run_study
    print(run_scenario("pow-baseline").metric("throughput_tps"))
    print(run_study("figure1").to_table().render())
"""

__version__ = "1.0.0"
