"""The paper's contribution, operationalized.

The paper's argument is a comparison: permissionless blockchains cannot be
the substrate of a decentralized Internet, but permissioned blockchains plus
edge-centric computing (with the cloud as a utility) can.  The comparison
itself is the registered ``figure1`` study (:mod:`repro.scenarios.study`);
this package holds what surrounds it:

* :mod:`~repro.core.decision` — the "when is which architecture
  appropriate" decision framework implied by Sections III-D, IV and V.
* :mod:`~repro.core.claims` — the registry of every quantitative claim in
  the paper (E1–E16), with the paper's value and the module that reproduces
  it, used by ``EXPERIMENTS.md`` and the benchmark suite.
"""

from repro.core.decision import (
    DecisionInput,
    Recommendation,
    recommend_architecture,
)
from repro.core.claims import Claim, CLAIMS

__all__ = [
    "DecisionInput",
    "Recommendation",
    "recommend_architecture",
    "Claim",
    "CLAIMS",
]
