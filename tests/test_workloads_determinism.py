"""The vertical workload generator must be a deterministic function of its seed.

Two constructions with the same parameters must emit identical invocation
sequences (the scenario framework relies on this to make replicates
reproducible), and different seeds must actually change the sequence.
"""

import pytest

from repro.permissioned.chaincode import VerticalWorkload
from repro.scenarios import SpecError, compile_scenario
from repro.scenarios.knobs import _arguments, _every


def invocations(workload: VerticalWorkload, count: int = 300):
    return [sorted(workload.invocation().items()) for _ in range(count)]


class TestVerticalWorkload:
    @pytest.mark.parametrize("domain", sorted(VerticalWorkload.DOMAINS))
    def test_identical_sequences_at_same_seed(self, domain):
        assert invocations(VerticalWorkload(domain, seed=4)) == invocations(
            VerticalWorkload(domain, seed=4))

    @pytest.mark.parametrize("domain", sorted(VerticalWorkload.DOMAINS))
    def test_different_seeds_differ(self, domain):
        assert invocations(VerticalWorkload(domain, seed=1), 50) != invocations(
            VerticalWorkload(domain, seed=2), 50)


def workload_of(workload, seed):
    """The generator built from a ``workload`` section's fields at
    ``seed``, by the one route a spec value takes to its model."""
    return VerticalWorkload(**_arguments(
        VerticalWorkload, _every(workload, "workload"), seed=seed))


class TestWorkloadFromSpec:
    def test_spec_matches_direct_construction(self):
        from_spec = workload_of({"domain": "healthcare", "entities": 500.0}, seed=7)
        direct = VerticalWorkload("healthcare", entities=500, seed=7)
        assert invocations(from_spec) == invocations(direct)

    def test_seed_override_wins(self):
        workload = workload_of({"domain": "energy", "seed": 1}, seed=42)
        assert workload.rng.seed == 42

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="cannot run a 'nonsense' workload"):
            compile_scenario("fabric-supply-chain",
                             overrides={"workload.kind": "nonsense"})

    def test_unknown_and_lossy_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown key workload.bogus"):
            compile_scenario("fabric-supply-chain", overrides={"workload.bogus": 1})
        with pytest.raises(SpecError,
                           match="workload.entities expects an integer"):
            workload_of({"domain": "supply-chain", "entities": 2.5}, seed=0)
