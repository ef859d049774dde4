"""Identity of every spec hash and unit-job key under the one-copy compile.

``ResultSlot.for_point`` copies and hashes a point once and finishes each
replicate from a copy of that hash; ``expand()`` clears the axes once; and
``canonical_json()`` reads the live fields.  Old caches, goldens and saved
runs keep meaning what they meant only if every key is byte-identical to
the plain derivation — hash the canonical JSON of ``unit_spec(point,
seed)`` — so that derivation is spelt out here as the reference, over the
whole registry.
"""

import copy
import hashlib
import itertools
import json

import pytest

from repro.scenarios import goldens
from repro.scenarios.execution import execute_unit, unit_spec
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runner import compile_sweep
from repro.scenarios.study import compile_study, study_names


def reference_json(spec) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))


def reference_key(point, seed: int) -> str:
    payload = reference_json(unit_spec(point, seed)).encode("utf-8")
    return f"{hashlib.sha256(payload).hexdigest()[:16]}-s{seed}"


def reference_expand(spec):
    """The expansion as it was: deep-copy the whole spec — axes included —
    into every point, apply the overrides, then clear the axes."""
    variants = list(spec.variants.items()) if spec.variants else [("", {})]
    axes = list(spec.sweeps.items())
    points = []
    for variant_label, variant_overrides in variants:
        for combo in itertools.product(*(values for _, values in axes)):
            overrides = dict(variant_overrides)
            parts = [variant_label] if variant_label else []
            for (axis, _), value in zip(axes, combo):
                overrides[axis] = value
                parts.append(f"{axis.rsplit('.', 1)[-1]}={value}")
            point = copy.deepcopy(spec).with_overrides(overrides)
            point.sweeps, point.variants = {}, {}
            points.append((", ".join(parts), point))
    return points


def hostile_specs():
    """Specs built to break a split that searched the text for the seed."""
    streaming = get_scenario("kad-lookup").with_overrides(
        {"metrics": "streaming"})
    streaming.replicates = 3
    decoy = get_scenario("pos-slashing")
    decoy.replicates = 3
    decoy.seed = 7
    decoy.description = 'decoy ,"seed":7,"sweeps":{} and "seed":0 and 7'
    decoy.workload = {"seed": 7, "nested": {"seed": [7, 0]}}
    return [streaming, decoy]


def all_plans():
    for name in scenario_names():
        yield f"scenario:{name}", compile_sweep(name, replicates=3)
    for name in study_names():
        yield f"study:{name}", compile_study(name, replicates=2)
    for spec in hostile_specs():
        yield f"hostile:{spec.name}", compile_sweep(spec)


PLANS = list(all_plans())


@pytest.mark.parametrize("plan", [plan for _, plan in PLANS],
                         ids=[name for name, _ in PLANS])
def test_every_job_key_is_the_hash_of_its_unit_spec(plan):
    assert plan.slots
    for slot in plan.slots:
        assert [job.seed for job in slot.jobs] == [
            slot.spec.seed + index for index in range(slot.spec.replicates)]
        for job in slot.jobs:
            assert job.key == reference_key(slot.spec, job.seed)
            assert job.key == f"{job.spec.spec_hash()}-s{job.seed}"
            assert job.spec.to_dict() == unit_spec(
                slot.spec, job.seed).to_dict()
            assert job.spec.canonical_json() == reference_json(job.spec)
        assert slot.spec.canonical_json() == reference_json(slot.spec)


@pytest.mark.parametrize(
    "spec", [get_scenario(name) for name in scenario_names()]
    + hostile_specs(), ids=lambda spec: spec.name)
def test_expand_yields_what_copy_then_clear_yielded(spec):
    assert spec.canonical_json() == reference_json(spec)
    before = spec.to_dict()
    expanded = [(label, point.to_dict()) for label, point in spec.expand()]
    assert expanded == [(label, point.to_dict())
                        for label, point in reference_expand(spec)]
    assert spec.to_dict() == before  # the base shares, so it must not leak


def test_points_do_not_share_state_with_the_spec_they_came_from():
    spec = get_scenario("pos-slashing")
    spec.sweeps = {"architecture.multi_vote_fraction": [0.1, 0.2]}
    first, second = (point for _, point in spec.expand())
    first.architecture["rounds"] = -1
    assert second.architecture.get("rounds") != -1
    assert spec.architecture.get("rounds") != -1


@pytest.mark.parametrize("name", scenario_names())
def test_executing_a_job_leaves_its_spec_untouched(name):
    """Replicates of a point share their spec's nested sections, so an
    adapter that writes into one would corrupt its sibling replicates —
    here it fails by name instead of as a drifted golden."""
    job = compile_sweep(name, overrides=goldens.SCENARIO_TRIMS[name],
                        replicates=2).jobs[0]
    before = job.spec.to_dict()
    execute_unit(job)
    assert job.spec.to_dict() == before
