"""Workload generators shared by the experiments, scenarios and examples."""

from repro.workloads.generators import (
    LookupWorkload,
    PaymentWorkload,
    VerticalWorkload,
    WORKLOAD_KINDS,
    WorkloadEvent,
    ZipfObjectWorkload,
)

__all__ = [
    "LookupWorkload",
    "PaymentWorkload",
    "VerticalWorkload",
    "WORKLOAD_KINDS",
    "WorkloadEvent",
    "ZipfObjectWorkload",
]
