"""The scenario framework: specs, registry, adapters, runner and CLI."""

import ast
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.scenarios import (
    ADAPTERS,
    FAMILIES,
    SCENARIOS,
    ScenarioSpec,
    adapter_for,
    get_scenario,
    run_scenario,
    run_sweep,
    scenario_names,
)
from repro.permissioned.chaincode import VerticalWorkload
from repro.run import main as run_main
from repro.scenarios import (
    EXPERIMENTS,
    SpecError,
    compile_scenario,
    compile_study,
    compile_sweep,
    experiment_for,
    study_names,
)
from repro.scenarios.adapters import check_spec
from repro.scenarios.knobs import Knobs, _coerced, _declared, _model
from repro.scenarios.runner import resolve_spec


class TestScenarioSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            ScenarioSpec(name="x", family="quantum")

    def test_with_overrides_dotted_paths(self):
        spec = ScenarioSpec(name="x", family="overlay",
                            architecture={"overlay": "kad"}, topology={"size": 100})
        out = spec.with_overrides({"topology.size": 50, "seed": 9,
                                   "architecture.client_overrides.rpc_timeout": 2.0})
        assert out.topology["size"] == 50
        assert out.seed == 9
        assert out.architecture["client_overrides"] == {"rpc_timeout": 2.0}
        # The original is untouched.
        assert spec.topology["size"] == 100
        assert "client_overrides" not in spec.architecture

    def test_overrides_are_validated(self):
        spec = ScenarioSpec(name="x", family="overlay")
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            spec.with_overrides({"replicates": 0})
        with pytest.raises(ValueError, match="unknown metrics mode"):
            spec.with_overrides({"metrics": "approximate"})
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            resolve_spec(spec, replicates=0)

    def test_with_seed_copies_every_field(self):
        spec = ScenarioSpec(name="x", family="edge", description="d",
                            claim="E1", architecture={"a": 1}, churn="kad",
                            duration=2.0, seed=3, replicates=4,
                            metrics="streaming", sweeps={"seed": [1]})
        clone = spec.with_seed(9)
        assert clone == replace(spec, seed=9)
        assert clone.architecture is spec.architecture

    def test_with_overrides_rejects_unknown_field(self):
        spec = ScenarioSpec(name="x", family="overlay")
        with pytest.raises(KeyError, match="unknown spec field"):
            spec.with_overrides({"flavor": "strawberry"})

    def test_expand_variants_outer_sweeps_inner(self):
        spec = ScenarioSpec(
            name="x", family="overlay",
            architecture={"overlay": "kad"},
            variants={"a": {"churn": "kad"}, "b": {"churn": "none"}},
            sweeps={"topology.size": [10, 20]},
        )
        points = spec.expand()
        assert [label for label, _ in points] == [
            "a, size=10", "a, size=20", "b, size=10", "b, size=20",
        ]
        assert points[0][1].churn == "kad"
        assert points[3][1].topology["size"] == 20
        assert all(not point.is_swept for _, point in points)

    def test_expand_without_axes_is_identity(self):
        spec = ScenarioSpec(name="x", family="edge")
        points = spec.expand()
        assert len(points) == 1 and points[0][0] == ""

    def test_dict_round_trip(self):
        spec = get_scenario("churn-ladder")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestRegistry:
    def test_every_family_is_covered(self):
        covered = {SCENARIOS[name].family for name in scenario_names()}
        assert covered == set(FAMILIES)

    def test_claims_reference_the_registry(self):
        from repro.core.claims import CLAIMS

        known = {claim.claim_id for claim in CLAIMS}
        for name in scenario_names():
            claim = SCENARIOS[name].claim
            assert claim == "" or claim in known, (name, claim)

    def test_get_scenario_returns_copies(self):
        first = get_scenario("kad-lookup")
        first.topology["size"] = 1
        assert get_scenario("kad-lookup").topology["size"] == 400

    def test_unknown_scenario_message_lists_names(self):
        with pytest.raises(KeyError, match="known scenarios"):
            get_scenario("warp-drive")

    def test_adapter_exists_for_every_family(self):
        assert set(ADAPTERS) == set(FAMILIES)
        for family in FAMILIES:
            assert adapter_for(family).family == family

    def test_experiments_md_is_rendered_from_the_registries(self):
        from repro.analysis.experiments import render_experiments_markdown

        committed = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
        assert render_experiments_markdown() == committed.read_text(
            encoding="utf-8"), "EXPERIMENTS.md is stale: run `make experiments`"

    def test_registered_points_and_experiments_cover_each_other(self):
        # Every point of every registered scenario and study resolves to a
        # registered experiment, and no experiment is registered that no
        # registered point selects (it would have no golden).
        from repro.scenarios import (
            EXPERIMENTS,
            compile_study,
            compile_sweep,
            experiment_for,
            study_names,
        )
        from repro.scenarios.knobs import mode_of

        plans = [compile_sweep(name) for name in scenario_names()]
        plans += [compile_study(name) for name in study_names()]
        selected = set()
        for plan in plans:
            for job in plan.jobs:
                key = (job.spec.family, mode_of(job.spec))
                assert experiment_for(job.spec) is EXPERIMENTS[key]
                selected.add(key)
        assert selected == set(EXPERIMENTS)
        assert {family for family, _ in EXPERIMENTS} == set(FAMILIES)


class TestRunner:
    def test_overlay_scenario_deterministic_json(self):
        overrides = {"topology.size": 80, "workload.lookups": 15}
        first = run_scenario("kad-lookup", overrides=overrides)
        second = run_scenario("kad-lookup", overrides=overrides)
        assert first.to_json() == second.to_json()
        assert first.metric("lookups") == 15.0

    def test_replicates_aggregate_mean(self):
        result = run_scenario("pos-slashing",
                              overrides={"architecture.rounds": 200}, replicates=3)
        assert [replicate.seed for replicate in result.replicates] == [1, 2, 3]
        values = [replicate.metrics["fork_open_fraction"] for replicate in result.replicates]
        assert result.metric("fork_open_fraction") == pytest.approx(sum(values) / 3)
        spread = result.spread("fork_open_fraction")
        assert spread["min"] <= spread["mean"] <= spread["max"]

    def test_seed_changes_the_outcome(self):
        overrides = {"architecture.duration_blocks": 10}
        first = run_scenario("pow-baseline", overrides=overrides, seed=1)
        second = run_scenario("pow-baseline", overrides=overrides, seed=2)
        assert first.metrics != second.metrics

    def test_sweep_points_run_in_order(self):
        results = run_sweep("pbft-consortium",
                            overrides={"duration": 0.5},
                            seed=3)
        assert len(results) == 1
        results = run_sweep(
            "pbft-consortium",
            overrides={"duration": 0.5},
        )
        assert results[0].label == ""

    def test_unknown_metric_lists_available(self):
        result = run_scenario("pos-slashing", overrides={"architecture.rounds": 100})
        with pytest.raises(KeyError, match="available"):
            result.metric("warp_factor")

    def test_architecture_overrides_do_not_collide_with_adapter_kwargs(self):
        # tx_arrival_rate and seed are passed explicitly by the adapter; an
        # architecture override for them must win, not raise a TypeError.
        result = run_scenario("pow-baseline",
                              overrides={"architecture.tx_arrival_rate": 5.0,
                                         "architecture.duration_blocks": 10})
        assert result.metric("offered_load_tps") == 5.0

    def test_workload_kind_is_validated(self):
        with pytest.raises(ValueError, match="cannot run a 'lookup' workload"):
            run_scenario("pow-baseline", overrides={"workload.kind": "lookup"})

    @pytest.mark.parametrize("domain", sorted(VerticalWorkload.DOMAINS))
    def test_every_vertical_domain_commits_on_its_chaincode(self, domain):
        result = run_scenario("fabric-supply-chain", overrides={
            "workload.domain": domain,
            "architecture.chaincode": VerticalWorkload.DOMAINS[domain],
            "duration": 0.5})
        assert result.metric("committed_valid") > 0

    def test_federation_islands_follow_the_seed(self):
        # Island seeds are offsets from the run seed, so --seed re-seeds the
        # whole federation (a pinned-seed bug once made this a no-op).
        overrides = {"duration": 0.5}
        base = run_scenario("edge-federation", overrides=overrides, seed=6)
        reseeded = run_scenario("edge-federation", overrides=overrides, seed=99)
        assert base.metrics != reseeded.metrics
        assert base.to_json() == run_scenario("edge-federation",
                                              overrides=overrides, seed=6).to_json()

    def test_an_island_seed_offset_defaults_to_its_position(self):
        overrides = {"duration": 0.5}
        islands = [{"name": "trade", "domain": "supply-chain"},
                   {"name": "health", "domain": "healthcare"}]
        registered = run_scenario("edge-federation", overrides=overrides)
        unset = run_scenario("edge-federation", overrides={
            **overrides, "architecture.islands": islands})
        assert [island["seed_offset"] for island in get_scenario(
            "edge-federation").architecture["islands"]] == [1, 2]
        assert unset.metrics == registered.metrics

    def test_adapter_configs_match_hand_wiring(self):
        # The framework must reproduce a hand-wired run bit-for-bit.
        from repro.p2p.lookup import LookupExperiment, LookupExperimentConfig

        by_hand = LookupExperiment(
            LookupExperimentConfig.kad_scenario(network_size=120, lookups=20, seed=3)
        ).run().summary()
        by_framework = run_scenario(
            "kad-lookup", overrides={"topology.size": 120, "workload.lookups": 20}
        ).metrics
        for key, value in by_hand.items():
            assert by_framework[key] == pytest.approx(value, abs=1e-12), key


class TestConfigDefaults:
    """Model config dataclasses are the one home of their defaults."""

    def test_unset_keys_keep_the_dataclass_default(self):
        from repro.blockchain.proof_of_stake import ProofOfStakeParams

        bare = ScenarioSpec(name="bare-pos", family="permissionless",
                            architecture={"consensus": "pos"})
        context = adapter_for("permissionless").setup(bare, seed=7)
        assert context["model"].params == ProofOfStakeParams(seed=7)

    def test_set_keys_are_coerced_to_the_field_type(self):
        spec = ScenarioSpec(name="json-pos", family="permissionless",
                            architecture={"consensus": "pos", "slashing": True,
                                          "fork_probability": 1, "seed": 99})
        params = adapter_for("permissionless").setup(spec, seed=7)["model"].params
        assert params.slashing_enabled is True
        assert isinstance(params.fork_probability, float)
        assert params.seed == 7  # the replicate seed owns its key

    @staticmethod
    def pos_params(key, value):
        spec = ScenarioSpec(name="json-pos", family="permissionless",
                            architecture={"consensus": "pos", key: value})
        return adapter_for("permissionless").setup(spec, seed=7)["model"].params

    @pytest.mark.parametrize("key,value,field,expected", [
        ("validators", 3.0, "validators", 3),        # integral float -> int
        ("validators", 3, "validators", 3),
        ("fork_probability", 1, "fork_probability", 1.0),  # int -> float
        ("stake_pareto_shape", 2, "stake_pareto_shape", 2.0),
        ("slashing", True, "slashing_enabled", True),
        ("slashing", False, "slashing_enabled", False),
    ])
    def test_lossless_values_are_accepted(self, key, value, field, expected):
        got = getattr(self.pos_params(key, value), field)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("key,value,message", [
        ("validators", 2.7, "architecture.validators expects an integer"),
        ("rounds", -0.5, "architecture.rounds expects an integer"),
        ("rounds", float("inf"), "architecture.rounds expects an integer"),
        ("slashing", "no", "architecture.slashing expects true or false"),
        ("slashing", 1, "architecture.slashing expects true or false"),
        ("slashing", 0.0, "architecture.slashing expects true or false"),
        ("slashing", None, "architecture.slashing expects true or false"),
        ("validators", True, "architecture.validators expects an integer"),
        ("multi_vote_fraction", "abc",
         "architecture.multi_vote_fraction expects a number"),
    ])
    def test_lossy_values_are_rejected_naming_the_key(self, key, value,
                                                       message):
        with pytest.raises(ValueError, match=message):
            self.pos_params(key, value)

    def test_renamed_keys_are_named_as_the_spec_spells_them(self):
        # topology.size fills LookupExperimentConfig.network_size.
        spec = get_scenario("kad-lookup").with_overrides({"topology.size": 99.5})
        with pytest.raises(ValueError, match="topology.size expects an integer"):
            adapter_for("overlay").setup(spec, seed=1)


#: The spec fields an experiment reads only through its knob table.
_SPEC_SECTIONS = {"architecture", "topology", "workload", "churn", "duration"}


def section_reads(source: str) -> list:
    """``(line, section)`` of every place ``source`` touches a spec section:
    ``x.topology``, or ``getattr(x, "topology")``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _SPEC_SECTIONS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant) \
                and node.args[1].value in _SPEC_SECTIONS:
            found.append((node.lineno, node.args[1].value))
    return sorted(found)


class TestOneRoute:
    """An experiment reads the spec only through its knob table
    (:mod:`repro.scenarios.knobs`), whose reader is the one route from a
    spec value to its model."""

    def test_experiments_touch_no_spec_section(self):
        from repro.scenarios import adapters

        source = Path(adapters.__file__).read_text(encoding="utf-8")
        assert section_reads(source) == []

    @pytest.mark.parametrize("source,found", [
        ("def f(spec):\n    x = spec.topology.get('size', 500)\n",
         [(2, "topology")]),
        ("def f(spec):\n    arch = spec.architecture\n"
         "    n = int(arch.get('steps', 250))\n", [(2, "architecture")]),
        ("def f(spec):\n    g(**spec.topology)\n", [(2, "topology")]),
        ("def f(spec):\n    arch = dict(spec.architecture)\n"
         "    arch.pop('seed', None)\n    g(**arch)\n", [(2, "architecture")]),
        ("def f(spec):\n    for i, d in enumerate(spec.architecture.get('x') or []):\n"
         "        p = dict(d)\n        g(**p)\n", [(2, "architecture")]),
        ("def f(spec):\n    o = spec.architecture.get('o') or {}\n"
         "    return {**o}\n", [(2, "architecture")]),
        ("def f(spec):\n    return spec.duration or 5.0, spec.churn\n",
         [(2, "churn"), (2, "duration")]),
        ("def f(spec):\n    return getattr(spec, 'workload')['kind']\n",
         [(2, "workload")]),
        ("def setup(self, spec, seed):\n"
         "    return self.knobs.config(spec, 'params', seed=seed, metrics=spec.metrics)\n",
         []),
    ])
    def test_the_scan_finds_each_section_read(self, source, found):
        assert section_reads(source) == found


def _registered_points():
    """``{experiment class name: [point, ...]}`` over every registered
    scenario point, in registry order."""
    points = {}
    for name in scenario_names():
        for slot in compile_sweep(name).slots:
            points.setdefault(type(experiment_for(slot.spec)).__name__,
                              []).append(slot.spec)
    return points


POINTS = _registered_points()


def _knobs(name):
    return experiment_for(POINTS[name][0]).knobs


def _misspellings():
    """``(experiment, section, a key it reads there)`` per section read."""
    cases = []
    for name in POINTS:
        by_section = {}
        for key, _, _ in _knobs(name).keys():
            section, _, rest = key.partition(".")
            if rest and "." not in rest:
                by_section.setdefault(section, rest)
        cases += [(name, section, key) for section, key in by_section.items()]
    return cases


def _set(spec, key, value):
    """``spec`` with ``key`` set to ``value``; a key below a list of dicts
    (``architecture.islands.name``) is set in its first dict."""
    parent, _, name = key.rpartition(".")
    found, items = Knobs._at(spec, parent) if parent else (False, None)
    if found and isinstance(items, list):
        return spec.with_overrides({parent: [{**items[0], name: value}, *items[1:]]})
    return spec.with_overrides({key: value})


def _current(spec, key):
    """What ``spec`` gives ``key`` (in the first dict of a list), if set."""
    parent, _, name = key.rpartition(".")
    found, items = Knobs._at(spec, parent) if parent else (False, None)
    if found and isinstance(items, list):
        return name in items[0], items[0].get(name)
    return Knobs._at(spec, key)


def _reaching(knobs, spec, role):
    """What the spec sets for ``role``'s target (its first dict's, for a
    list read whole), coerced as the model receives it."""
    target = _model(knobs.roles[role][0])
    listed = any(path.endswith(".*") and isinstance(Knobs._at(spec, path[:-2])[1], list)
                 for path, _ in knobs.roles[role][1])
    return _coerced(target, knobs.each(spec, role)[:1] if listed
                    else [knobs.picks(spec, role)])


def _another(knobs, key, spec, declared):
    """A value for ``key`` other than the one ``spec`` gives it."""
    found, now = _current(spec, key)
    default, kind = declared
    now = now if found else default
    if key in knobs.presets:
        presets, _ = knobs.presets[key]()
        return next(name for name in presets
                    if name != now and presets[name] is not None)
    if key in knobs.choices:
        return next(name for name in _model(knobs.choices[key]) if name != now)
    if kind is bool:
        return not now
    if kind is str:
        return f"{now}-other"
    return (now or 0) + 3 if kind is int or now is None else now * 2 + 1


class TestKnobTables:
    """Each experiment's :class:`Knobs` table is its whole interface:
    compiling rejects what it does not list, and what it lists is read."""

    def test_every_registered_point_and_study_member_validates(self):
        plans = [compile_sweep(name) for name in scenario_names()]
        plans += [compile_study(name) for name in study_names()]
        for slot in [slot for plan in plans for slot in plan.slots]:
            check_spec(slot.spec)
        assert set(POINTS) == {type(found).__name__
                               for found in EXPERIMENTS.values()}

    @pytest.mark.parametrize("name,section,key", _misspellings())
    def test_a_misspelt_key_is_rejected_with_a_hint(self, name, section, key):
        spec = POINTS[name][0].with_overrides({f"{section}.{key}s": 1})
        with pytest.raises(SpecError, match=(
                rf"unknown key {section}\.{key}s; did you mean {section}\.{key}\?")):
            compile_scenario(spec)

    @pytest.mark.parametrize("scenario,key,value,message", [
        ("pos-slashing", "architecture.slash_fraction", 0.01,
         r"did you mean architecture\.slashing\?"),
        ("pbft-consortium", "workload.rate_tpss", 999,
         r"did you mean workload\.rate_tps\?"),
        ("kad-lookup", "architecture.client_overrides.rpc_timout", 2.0,
         r"did you mean architecture\.client_overrides\.rpc_timeout\?"),
        ("edge-federation", "architecture.islands",
         [{"name": "a", "domain": "energy"}, {"name": "b", "domian": "energy"}],
         r"unknown key architecture\.islands\[1\]\.domian; did you mean "
         r"architecture\.islands\[1\]\.domain\?"),
        ("pow-baseline", "architecture.seed", 3, "unknown key architecture.seed"),
        ("pos-slashing", "workload.kind", "payment",
         "unknown key workload.kind; workload takes no keys"),
        ("edge-placement", "workload.kind", "lookup",
         "cannot run a 'lookup' workload"),
        ("fabric-consortium", "workload.domain", "energy",
         "unknown key workload.domain"),
    ])
    def test_named_cases(self, scenario, key, value, message):
        with pytest.raises(SpecError, match=message):
            compile_scenario(scenario, overrides={key: value})

    def test_a_null_preset_keeps_the_model_default(self):
        from repro.blockchain.network import PoWNetworkConfig

        plan = compile_scenario("pow-baseline",
                                overrides={"architecture.protocol": None})
        spec = plan.slots[0].spec
        config = adapter_for("permissionless").setup(spec, 1)["model"].config
        assert config.protocol == PoWNetworkConfig().protocol

    @pytest.mark.parametrize("field,value", [("duration", 5.0), ("churn", "kad")])
    def test_an_ignored_top_level_field_is_rejected(self, field, value):
        for name, points in POINTS.items():
            if field in _knobs(name).paths:
                compile_scenario(points[0], overrides={field: value})
            else:
                with pytest.raises(SpecError, match=f"{field}=.* is ignored"):
                    compile_scenario(points[0], overrides={field: value})

    def test_a_kind_only_role_names_an_accepted_kind(self):
        for name in POINTS:
            knobs = _knobs(name)
            for role, kind in knobs.only_for.items():
                assert role in knobs.roles and kind in knobs.kinds, (name, role)

    def test_setup_reads_every_declared_path(self, monkeypatch):
        # While the registered points set up, every role of a table is
        # picked, or each of its paths is read by value (or lies below one).
        from repro.scenarios import goldens

        seen = {}
        picks, value = Knobs.picks, Knobs.value

        def recording_picks(knobs, spec, role):
            seen.setdefault(id(knobs), set()).add(role)
            return picks(knobs, spec, role)

        def recording_value(knobs, spec, path):
            seen.setdefault(id(knobs), set()).add(path)
            return value(knobs, spec, path)

        plans = [goldens.golden_plan("scenario", name) for name in scenario_names()]
        monkeypatch.setattr(Knobs, "picks", recording_picks)
        monkeypatch.setattr(Knobs, "value", recording_value)
        for slot in [slot for plan in plans for slot in plan.slots]:
            experiment_for(slot.spec).setup(slot.spec, slot.spec.seed)
        for name in POINTS:
            knobs = _knobs(name)
            read = seen[id(knobs)]
            for role, (_, entries, _) in knobs.roles.items():
                for path, _ in entries:
                    assert role in read or any(path == key or path.startswith(key + ".")
                                               for key in read), (name, path)

    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_each_knob_changes_what_reaches_the_model(self, name):
        knobs = _knobs(name)
        for base in POINTS[name]:
            kind = knobs.kind(base) if knobs.kinds else None
            for key, role, parameter in knobs.keys():
                target = knobs.roles[role][0]
                if not target or knobs.only_for.get(role, kind) != kind:
                    continue
                declared = _declared(_model(target))
                spec = _set(base, key, _another(knobs, key, base, declared[parameter]))
                before = _reaching(knobs, base, role)
                after = _reaching(knobs, spec, role)
                assert before.get(parameter, "unset") != after[parameter], key


class TestNewScenarioModes:
    """The adapter modes behind the E1/E4/E6/E9 registry entries."""

    def test_market_concentration_prefers_preferential(self):
        trims = {"architecture.steps": 60, "architecture.arrivals_per_step": 80}
        preferential = run_scenario("market-concentration", overrides=trims)
        uniform = run_scenario(
            "market-concentration",
            overrides={**trims, "architecture.preferential_exponent": 0.0,
                       "architecture.scale_advantage": 0.0})
        assert preferential.metric("top3") > uniform.metric("top3")
        assert preferential.metric("hhi") > uniform.metric("hhi")

    def test_mining_pools_concentrate(self):
        result = run_scenario("mining-pools",
                              overrides={"architecture.miners": 400,
                                         "architecture.rounds": 60})
        assert result.metric("top6") > 0.5
        assert result.metric("nakamoto") <= 6

    def test_onehop_beats_multihop_latency_under_stable_churn(self):
        onehop = run_scenario("onehop-lookup",
                              overrides={"workload.lookups": 60})
        kad = run_scenario("kad-lookup",
                           overrides={"topology.size": 120,
                                      "workload.lookups": 30})
        assert onehop.metric("median_latency_s") < kad.metric("median_latency_s")
        assert onehop.metric("routing_staleness") < 0.01
        assert onehop.metric("membership_state_mb") == pytest.approx(2.0)

    def test_gnutella_churn_scales_sharing_availability(self):
        trims = {"topology.size": 200, "workload.lookups": 40}
        stable = run_scenario("gnutella-search", overrides=trims)
        churned = run_scenario("gnutella-search",
                               overrides={**trims, "churn": "bittorrent"})
        assert stable.metric("sharing_availability") == 1.0
        assert churned.metric("sharing_availability") == pytest.approx(0.5)
        assert stable.metric("recall") >= churned.metric("recall")
        assert stable.metric("messages_per_lookup") > 10.0

    def test_sybil_attack_hijacks_beyond_physical_share(self):
        trims = {"topology.size": 120, "workload.lookups": 25,
                 "architecture.identities_per_machine": 40}
        result = run_scenario("sybil-attack", overrides=trims)
        assert 0.0 <= result.metric("hijack_rate") <= 1.0
        # The whole point of E3: a few machines punch far above their
        # physical population share by fabricating identities.
        assert result.metric("amplification") > 1.0
        assert result.metric("sybil_identities") == pytest.approx(
            result.metric("attacker_machines") * 40)

    def test_eclipse_targets_harder_than_spread(self):
        spread, eclipse = run_sweep(
            "sybil-attack",
            overrides={"topology.size": 120, "workload.lookups": 20,
                       "architecture.identities_per_machine": 24})
        assert spread.label.startswith("spread")
        assert eclipse.label.startswith("eclipse")
        assert eclipse.metric("hijack_rate") >= spread.metric("hijack_rate")

    def test_selfish_mining_pays_above_threshold(self):
        trims = {"architecture.blocks": 30_000}
        at_045 = run_scenario("selfish-mining",
                              overrides={**trims, "architecture.alpha": 0.45})
        assert at_045.metric("advantage") > 0.05
        assert at_045.metric("simulated_revenue") == pytest.approx(
            at_045.metric("analytic_revenue"), abs=0.02)
        below = run_scenario("selfish-mining",
                             overrides={**trims, "architecture.alpha": 0.2})
        assert below.metric("advantage") < 0.01

    def test_double_spend_success_decreases_with_confirmations(self):
        points = run_sweep("double-spend")
        successes = [point.metric("success_probability") for point in points]
        assert successes[0] == 1.0  # zero confirmations: race already lost
        assert successes == sorted(successes, reverse=True)
        assert successes[-1] < 0.1

    @pytest.mark.parametrize("scenario, key, typo", [
        # A consensus typo once fell through every branch and silently
        # reported a Bitcoin PoW network's numbers.
        ("pos-slashing", "architecture.consensus", "poss"),
        ("double-spend", "architecture.attack", "time-warp"),
        ("sybil-attack", "architecture.attack", "teleport"),
        ("kad-lookup", "architecture.overlay", "pastry"),
        ("edge-placement", "architecture.mode", "fog"),
    ])
    def test_unknown_mode_rejected_naming_the_registered_ones(
            self, scenario, key, typo):
        family = SCENARIOS[scenario].family
        with pytest.raises(
                ValueError,
                match=f"unknown {family} experiment '{typo}'.*registered: "):
            run_scenario(scenario, overrides={key: typo})

    def test_overlay_scaling_hops_grow_with_size(self):
        points = run_sweep("overlay-scaling",
                           overrides={"workload.lookups": 30})
        hops = [point.metric("hops_per_lookup") for point in points]
        assert len(hops) == 4
        assert hops[-1] > hops[0]
        # The registered axis records the network preset in each point spec.
        assert all(point.spec["topology"]["network"] == "wan"
                   for point in points)

    def test_gnutella_total_failure_omits_latency_metrics(self):
        # With no object replicas placed, every query fails; latency must be
        # absent (not 0.0), so comparison tables render "-" instead of
        # ranking total failure as instant success.
        result = run_scenario(
            "gnutella-search",
            overrides={"topology.size": 100, "workload.lookups": 20,
                       "architecture.replicas_per_object": 0})
        assert result.metric("failure_rate") == 1.0
        assert "median_latency_s" not in result.metrics
        assert "mean_latency_s" not in result.metrics


class TestCli:
    def test_list(self, capsys):
        assert run_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_unknown_scenario_fails(self, capsys):
        assert run_main(["warp-drive"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_json_stdout_deterministic(self, capsys):
        argv = ["pos-slashing", "--set", "architecture.rounds=300", "--quiet", "--json", "-"]
        assert run_main(argv) == 0
        first = capsys.readouterr().out
        assert run_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["scenario"] == "pos-slashing"
        assert payload["spec"]["architecture"]["rounds"] == 300
        assert payload["metrics"]["rounds"] == 300.0

    def test_sweep_flag_produces_a_list(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        argv = ["pos-slashing", "--set", "architecture.rounds=200",
                "--sweep", "architecture.multi_vote_fraction=0.5,1.0",
                "--quiet", "--json", str(out_path)]
        assert run_main(argv) == 0
        payload = json.loads(out_path.read_text())
        assert [point["label"] for point in payload] == [
            "multi_vote_fraction=0.5", "multi_vote_fraction=1.0",
        ]

    @pytest.mark.parametrize("argv", [
        ["pos-slashing", "--set", "architecture.slash_fraction=0.01"],
        ["pbft-consortium", "--set", "workload.rate_tpss=999"],
        ["sweep", "pos-slashing", "--sweep", "architecture.slash_fraction=0.01,0.5"],
        ["superpeer-search", "--set", "churn=aggressive"],
        ["pow-baseline", "--set", "duration=5"],
        ["fabric-supply-chain", "--set", "workload.domain=bogus"],
        ["pbft-consortium", "--set", "architecture.protocol=paxos"],
        ["fabric-consortium", "--set", "architecture.chaincode=bogus"],
    ], ids=lambda argv: argv[-1])
    def test_a_key_or_value_off_the_table_is_one_line_before_any_job(
            self, capsys, monkeypatch, argv):
        import repro.run

        def no_run(*args, **kwargs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(repro.run, "execute_plan", no_run)
        assert run_main(argv + ["--quiet"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("scenario "), err

    def test_set_value_parsing(self, capsys):
        argv = ["kad-lookup", "--set", "churn=none", "--set", "topology.size=60",
                "--set", "workload.lookups=5", "--quiet", "--json", "-"]
        assert run_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["churn"] is None
        assert payload["spec"]["topology"]["size"] == 60
