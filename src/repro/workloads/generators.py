"""Workload generators: payments, lookups, object requests, vertical domains.

Each generator produces a deterministic (seeded) stream of
:class:`WorkloadEvent` items that the simulators consume, so benchmarks can
drive every architecture with the same offered load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.blockchain.primitives import Transaction
from repro.sim.rng import SeededRNG


@dataclass(frozen=True)
class WorkloadEvent:
    """One request in a generated workload."""

    timestamp: float
    kind: str
    payload: Dict[str, object] = field(default_factory=dict)


class PaymentWorkload:
    """Poisson stream of payment transactions between Zipf-popular accounts."""

    def __init__(
        self,
        rate_tps: float = 10.0,
        accounts: int = 10_000,
        zipf_exponent: float = 0.9,
        mean_amount: float = 50.0,
        fee_per_byte: float = 0.0005,
        tx_bytes: int = 400,
        seed: int = 0,
    ) -> None:
        if rate_tps <= 0:
            raise ValueError("rate must be positive")
        self.rate_tps = rate_tps
        self.accounts = accounts
        self.zipf_exponent = zipf_exponent
        self.mean_amount = mean_amount
        self.fee_per_byte = fee_per_byte
        self.tx_bytes = tx_bytes
        self.rng = SeededRNG(seed)
        self._counter = 0

    def _account(self) -> str:
        rank = self.rng.zipf_rank(self.accounts, self.zipf_exponent)
        return f"account-{rank}"

    def events(self, duration: float, start: float = 0.0) -> Iterator[WorkloadEvent]:
        """Generate payment events for ``duration`` seconds of virtual time."""
        now = start
        while True:
            now += self.rng.exponential(1.0 / self.rate_tps)
            if now > start + duration:
                return
            self._counter += 1
            yield WorkloadEvent(
                timestamp=now,
                kind="payment",
                payload={
                    "payer": self._account(),
                    "payee": self._account(),
                    "amount": max(0.01, self.rng.lognormal(0.0, 1.0) * self.mean_amount),
                    "tx_id": f"pay-{self._counter}",
                },
            )

    def transactions(self, duration: float, start: float = 0.0) -> List[Transaction]:
        """The same stream as ready-made :class:`Transaction` objects."""
        result = []
        for event in self.events(duration, start):
            result.append(
                Transaction(
                    tx_id=str(event.payload["tx_id"]),
                    payer=str(event.payload["payer"]),
                    payee=str(event.payload["payee"]),
                    amount=float(event.payload["amount"]),
                    fee=self.fee_per_byte * self.tx_bytes,
                    size_bytes=self.tx_bytes,
                    created_at=event.timestamp,
                )
            )
        return result


class LookupWorkload:
    """Poisson stream of DHT key lookups with Zipf key popularity."""

    def __init__(
        self,
        rate_per_second: float = 1.0,
        keys: int = 100_000,
        zipf_exponent: float = 0.8,
        seed: int = 0,
    ) -> None:
        self.rate = rate_per_second
        self.keys = keys
        self.zipf_exponent = zipf_exponent
        self.rng = SeededRNG(seed)

    def events(self, duration: float, start: float = 0.0) -> Iterator[WorkloadEvent]:
        """Generate lookup events for ``duration`` seconds."""
        now = start
        while True:
            now += self.rng.exponential(1.0 / self.rate)
            if now > start + duration:
                return
            rank = self.rng.zipf_rank(self.keys, self.zipf_exponent)
            yield WorkloadEvent(timestamp=now, kind="lookup", payload={"key": f"key-{rank}"})


class ZipfObjectWorkload:
    """Object-request workload (file sharing / CDN style)."""

    def __init__(
        self,
        objects: int = 10_000,
        zipf_exponent: float = 1.0,
        mean_object_mb: float = 25.0,
        seed: int = 0,
    ) -> None:
        self.objects = objects
        self.zipf_exponent = zipf_exponent
        self.mean_object_mb = mean_object_mb
        self.rng = SeededRNG(seed)

    def sample_object(self) -> Dict[str, object]:
        """One object request (identifier and size)."""
        rank = self.rng.zipf_rank(self.objects, self.zipf_exponent)
        size = max(0.1, self.rng.lognormal(0.0, 0.8) * self.mean_object_mb)
        return {"object_id": f"object-{rank}", "size_mb": size}


class VerticalWorkload:
    """Domain workloads for the Section V-A use cases.

    Each domain produces chaincode invocations with the access pattern of the
    corresponding vertical: supply-chain custody events, healthcare consent
    grants, education credential issuance/verification, and energy grid
    meter settlements.
    """

    DOMAINS = ("supply-chain", "healthcare", "education", "energy")

    def __init__(self, domain: str, rate_tps: float = 50.0, entities: int = 2000, seed: int = 0) -> None:
        if domain not in self.DOMAINS:
            raise ValueError(f"unknown domain {domain!r}; pick one of {self.DOMAINS}")
        self.domain = domain
        self.rate_tps = rate_tps
        self.entities = entities
        self.rng = SeededRNG(seed)
        self._counter = 0

    def _entity(self, prefix: str) -> str:
        return f"{prefix}-{self.rng.randint(0, self.entities - 1)}"

    def invocation(self) -> Dict[str, object]:
        """One chaincode invocation for this domain."""
        self._counter += 1
        if self.domain == "supply-chain":
            return {
                "chaincode": "provenance",
                "args": {
                    "item": self._entity("item"),
                    "actor": self._entity("carrier"),
                    "step": self.rng.choice(["produced", "shipped", "customs", "delivered"]),
                },
            }
        if self.domain == "healthcare":
            return {
                "chaincode": "record-sharing",
                "args": {
                    "patient": self._entity("patient"),
                    "grantee": self._entity("hospital"),
                    "grant": self.rng.bernoulli(0.8),
                },
            }
        if self.domain == "education":
            return {
                "chaincode": "asset-transfer",
                "args": {
                    "source": self._entity("university"),
                    "target": self._entity("student"),
                    "amount": 1.0,
                },
            }
        return {
            "chaincode": "asset-transfer",
            "args": {
                "source": self._entity("producer"),
                "target": self._entity("consumer"),
                "amount": max(0.1, self.rng.gauss(5.0, 2.0)),
            },
        }

    def events(self, duration: float, start: float = 0.0) -> Iterator[WorkloadEvent]:
        """Poisson stream of invocations for ``duration`` seconds."""
        now = start
        while True:
            now += self.rng.exponential(1.0 / self.rate_tps)
            if now > start + duration:
                return
            yield WorkloadEvent(timestamp=now, kind=self.domain, payload=self.invocation())


#: Generator classes by the ``kind`` key of a declarative workload spec;
#: every other key of the spec is one of the class's parameters.
WORKLOAD_KINDS = {
    "payment": PaymentWorkload,
    "lookup": LookupWorkload,
    "object": ZipfObjectWorkload,
    "vertical": VerticalWorkload,
}
