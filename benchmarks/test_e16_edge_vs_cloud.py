"""E16 — edge-centric computing plus permissioned blockchains (Section V, Figure 1).

Paper: control and data should sit at the edge ("everything is in the
edge"), with permissioned blockchains providing decentralized trust and the
cloud acting as a utility; blockchain islands interoperate across domains.

The placement comparison and the island federation run through the scenario
framework (``edge-placement`` and ``edge-federation``); the whole-stack
comparison (E16c) is the registered ``figure1`` study — every family through
one code path — driven at saturation instead of its matched 25 tps.
"""

from repro.analysis.tables import ResultTable
from repro.blockchain.network import BITCOIN_PROTOCOL, ETHEREUM_PROTOCOL
from repro.scenarios import run_scenario, run_study

#: Every network at saturation: PoW at twice its protocol capacity, the
#: consortium at 1000 tps.
SATURATION = {
    "bitcoin": {"architecture.duration_blocks": 25,
                "architecture.tx_arrival_rate": BITCOIN_PROTOCOL.capacity_tps * 2.0},
    "ethereum": {"architecture.duration_blocks": 100,
                 "architecture.tx_arrival_rate": ETHEREUM_PROTOCOL.capacity_tps * 2.0},
    "fabric": {"workload.rate_tps": 1000, "duration": 4},
}

#: What "time to finality" is called in each family's metrics.
FINALITY_METRIC = {"bitcoin": "finality_nominal_s", "ethereum": "finality_nominal_s",
                   "fabric": "mean_latency_s", "edge": "intra_island_latency_s"}


def _run_all():
    placements = run_scenario("edge-placement").metrics
    interop = run_scenario("edge-federation").metrics
    architectures = run_study("figure1", seed=3, members=list(FINALITY_METRIC),
                              member_overrides=SATURATION)
    return placements, interop, architectures


def test_e16_edge_vs_cloud(once):
    placements, interop, architectures = once(_run_all)

    table = ResultTable(
        ["placement", "p50_ms", "p99_ms", "trust_nakamoto", "data stays local"],
        title="E16: Figure 1 as numbers — centralized cloud vs edge-centric federation",
    )
    for name in ("cloud-only", "regional-cloud", "edge-centric"):
        table.add_row(name, placements[f"{name}.p50_latency_ms"],
                      placements[f"{name}.p99_latency_ms"],
                      placements[f"{name}.trust_nakamoto"],
                      placements[f"{name}.control_locality"])
    table.print()

    interop_table = ResultTable(
        ["quantity", "value"],
        title="E16b: blockchain-island interoperability overhead",
    )
    interop_table.add_row("intra-island latency (s)", interop["intra_island_latency_s"])
    interop_table.add_row("cross-island latency (s)", interop["cross_island_latency_s"])
    interop_table.add_row("overhead factor", interop["overhead_factor"])
    interop_table.print()

    arch_table = ResultTable(
        ["architecture", "throughput_tps", "finality_s", "trust_nakamoto"],
        title="E16c: whole-architecture comparison",
    )
    fabric = architectures.only(label="fabric")
    for label, finality in FINALITY_METRIC.items():
        member = architectures.only(label=label)
        # Settlement runs on the consortium chain, so the federation inherits
        # the permissioned ledger's sustained rate.
        rate = fabric if label == "edge" else member
        arch_table.add_row(label, rate.metric("throughput_tps"),
                           member.metric(finality), member.metric("trust_nakamoto"))
    arch_table.print()

    # Shape: edge placement is several-fold faster, keeps data local, and its
    # trust is spread over the federation instead of one provider.
    assert placements["speedup_cloud_to_edge"] > 3.0
    assert placements["edge-centric.trust_nakamoto"] > 1
    assert placements["cloud-only.trust_nakamoto"] == 1
    assert placements["edge-centric.control_locality"] > 0.8
    # Shape: interoperability costs roughly one extra island transaction, not more.
    assert 1.5 < interop["overhead_factor"] < 6.0
    # Shape: the proposed stack keeps multi-party trust while being orders of
    # magnitude faster than the permissionless chains.
    assert architectures.only(label="edge").metric("trust_nakamoto") > 1
    assert fabric.metric("trust_nakamoto") > 1
    assert fabric.metric("throughput_tps") > 50 * architectures.only(
        label="bitcoin").metric("throughput_tps")
