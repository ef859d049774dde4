"""Workload generators must be deterministic functions of their seed.

Two constructions with the same parameters must emit identical event
streams (the scenario framework relies on this to make replicates and
cross-architecture comparisons reproducible), and different seeds must
actually change the stream.
"""

import pytest

from repro.scenarios import SpecError, compile_scenario
from repro.scenarios.knobs import _arguments, _every
from repro.workloads import (
    LookupWorkload,
    PaymentWorkload,
    VerticalWorkload,
    ZipfObjectWorkload,
)


def requests(workload: ZipfObjectWorkload, count: int):
    return [workload.sample_object() for _ in range(count)]


def _payment_stream(seed: int):
    workload = PaymentWorkload(rate_tps=20.0, accounts=500, seed=seed)
    return [
        (event.timestamp, event.kind, tuple(sorted(event.payload.items())))
        for event in workload.events(duration=30.0)
    ]


class TestPaymentWorkload:
    def test_identical_streams_at_same_seed(self):
        first, second = _payment_stream(7), _payment_stream(7)
        assert first == second
        assert len(first) > 100

    def test_transactions_match_events(self):
        events = list(PaymentWorkload(rate_tps=15.0, seed=3).events(duration=20.0))
        transactions = PaymentWorkload(rate_tps=15.0, seed=3).transactions(duration=20.0)
        assert len(events) == len(transactions)
        for event, tx in zip(events, transactions):
            assert tx.tx_id == event.payload["tx_id"]
            assert tx.payer == event.payload["payer"]
            assert tx.payee == event.payload["payee"]
            assert tx.amount == event.payload["amount"]
            assert tx.created_at == event.timestamp

    def test_different_seeds_differ(self):
        assert _payment_stream(1) != _payment_stream(2)


class TestLookupWorkload:
    def test_identical_streams_at_same_seed(self):
        def stream():
            workload = LookupWorkload(rate_per_second=5.0, keys=1000, seed=11)
            return [(e.timestamp, e.payload["key"]) for e in workload.events(duration=60.0)]

        first, second = stream(), stream()
        assert first == second
        assert len(first) > 100

    def test_different_seeds_differ(self):
        def stream(seed):
            workload = LookupWorkload(rate_per_second=5.0, keys=1000, seed=seed)
            return [(e.timestamp, e.payload["key"]) for e in workload.events(duration=20.0)]

        assert stream(1) != stream(9)


class TestZipfObjectWorkload:
    def test_identical_requests_at_same_seed(self):
        assert requests(ZipfObjectWorkload(objects=200, seed=5), 300) == requests(
            ZipfObjectWorkload(objects=200, seed=5), 300)

    def test_different_seeds_differ(self):
        assert requests(ZipfObjectWorkload(seed=1), 50) != requests(ZipfObjectWorkload(seed=2), 50)


class TestVerticalWorkload:
    def test_identical_streams_at_same_seed(self):
        def stream():
            workload = VerticalWorkload("supply-chain", rate_tps=30.0, seed=4)
            return [
                (event.timestamp, tuple(sorted(str(item) for item in event.payload.items())))
                for event in workload.events(duration=10.0)
            ]

        assert stream() == stream()


def workload_of(generator, workload, seed):
    """``generator`` built from a ``workload`` section's fields at ``seed``,
    by the one route a spec value takes to its model."""
    return generator(**_arguments(generator, _every(workload, "workload"), seed=seed))


class TestWorkloadFromSpec:
    def test_spec_matches_direct_construction(self):
        spec = {"rate_tps": 20, "accounts": 500.0}
        from_spec = workload_of(PaymentWorkload, spec, seed=7)
        events = [
            (event.timestamp, tuple(sorted(event.payload.items())))
            for event in from_spec.events(duration=30.0)
        ]
        direct = [
            (timestamp, payload) for timestamp, _, payload in _payment_stream(7)
        ]
        assert events == direct

    def test_seed_override_wins(self):
        workload = workload_of(LookupWorkload, {"seed": 1}, seed=42)
        assert workload.rng.seed == 42

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="cannot run a 'nonsense' workload"):
            compile_scenario("fabric-supply-chain",
                             overrides={"workload.kind": "nonsense"})

    def test_unknown_and_lossy_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown key workload.bogus"):
            compile_scenario("fabric-supply-chain", overrides={"workload.bogus": 1})
        with pytest.raises(SpecError,
                           match="workload.accounts expects an integer"):
            workload_of(PaymentWorkload, {"accounts": 2.5}, seed=0)
