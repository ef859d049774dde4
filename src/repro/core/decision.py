"""Decision framework: which architecture fits a given application.

The paper's closing argument ("when it is appropriate to use decentralized
technologies like blockchains, and when it is unnecessary or even completely
absurd") reduces to a handful of questions about the application:

* Do the participants already trust a single operator?  Then a centralized
  cloud service is simpler, faster and cheaper.
* Are the participants a known consortium that does not fully trust each
  other?  Then a permissioned blockchain provides the shared, auditable
  state without a trusted third party.
* Is the service latency-sensitive or data-local?  Then control should sit
  at the edge, with the consortium chain for trust and the cloud as a
  utility (the paper's proposal).
* Is censorship-resistant open participation by anonymous parties the whole
  point (a cryptocurrency)?  Only then is a permissionless blockchain the
  fitting tool — and only for that self-contained purpose.

``recommend_architecture`` encodes exactly that flow and returns both the
recommendation and the reasons, so examples and tests can check the logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class DecisionInput:
    """Characteristics of the application being placed."""

    participants_known: bool = True
    participants_mutually_trusting: bool = False
    single_trusted_operator_acceptable: bool = False
    open_anonymous_participation_required: bool = False
    latency_sensitive: bool = False
    data_locality_required: bool = False
    throughput_tps_required: float = 100.0
    audit_trail_required: bool = True


@dataclass
class Recommendation:
    """The recommended architecture plus the reasoning trail."""

    architecture: str
    reasons: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


def recommend_architecture(application: DecisionInput) -> Recommendation:
    """Apply the paper's decision logic to one application profile."""
    reasons: List[str] = []
    warnings: List[str] = []

    if application.open_anonymous_participation_required:
        reasons.append(
            "open participation by unidentified parties is a hard requirement, "
            "which only a permissionless network provides"
        )
        if application.throughput_tps_required > 20:
            warnings.append(
                "required throughput exceeds what permissionless blockchains sustain "
                "(single-digit to low-double-digit tps)"
            )
        if application.latency_sensitive:
            warnings.append("probabilistic finality takes minutes to hours; unfit for low latency")
        return Recommendation("permissionless-blockchain", reasons, warnings)

    if application.single_trusted_operator_acceptable or application.participants_mutually_trusting:
        reasons.append(
            "participants accept a single trusted operator (or trust each other), "
            "so a conventional cloud service is simpler, faster and cheaper"
        )
        architecture = "centralized-cloud"
        if application.latency_sensitive or application.data_locality_required:
            architecture = "edge-plus-cloud"
            reasons.append("latency/data-locality push the serving path to the edge")
        return Recommendation(architecture, reasons, warnings)

    if application.participants_known:
        reasons.append(
            "participants are known organizations that do not fully trust each other: "
            "a permissioned blockchain replaces the trusted third party"
        )
        architecture = "permissioned-blockchain"
        if application.latency_sensitive or application.data_locality_required:
            architecture = "edge-centric-permissioned-blockchain"
            reasons.append(
                "control and data stay at the edge; the consortium chain provides "
                "decentralized trust (the paper's proposal)"
            )
        if application.throughput_tps_required > 10_000:
            warnings.append(
                "very high throughput: shard by channel or keep high-rate paths off-chain"
            )
        if not application.audit_trail_required:
            warnings.append(
                "no audit requirement: a replicated database among the parties may be enough"
            )
        return Recommendation(architecture, reasons, warnings)

    reasons.append(
        "participants are neither known nor willing to trust an operator; "
        "reconsider whether the application is viable at all"
    )
    warnings.append("a permissionless blockchain is the only remaining option, with all its costs")
    return Recommendation("permissionless-blockchain", reasons, warnings)
