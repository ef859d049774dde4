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
from repro.run import main as run_main
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
        from repro.scenarios.adapters import mode_of

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

    def test_federation_islands_follow_the_seed(self):
        # Island seeds are offsets from the run seed, so --seed re-seeds the
        # whole federation (a pinned-seed bug once made this a no-op).
        overrides = {"duration": 0.5}
        base = run_scenario("edge-federation", overrides=overrides, seed=6)
        reseeded = run_scenario("edge-federation", overrides=overrides, seed=99)
        assert base.metrics != reseeded.metrics
        assert base.to_json() == run_scenario("edge-federation",
                                              overrides=overrides, seed=6).to_json()

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


#: Calls whose result is the spec data they are handed (so is its root).
_HANDS_ON = {"dict", "enumerate", "getattr", "iter", "list", "sorted", "tuple"}
_READS = {"copy", "get", "items", "pop", "setdefault", "values"}


def _is_spec_data(node, names) -> bool:
    """Whether ``node`` is taken from spec data: an attribute, item or
    read of a name in ``names``, or of a call that hands one on."""
    while True:
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _HANDS_ON and node.args:
            node = node.args[0]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _READS:
            node = node.func.value
        elif isinstance(node, ast.BoolOp):
            return any(_is_spec_data(value, names) for value in node.values)
        elif isinstance(node, ast.IfExp):
            return _is_spec_data(node.body, names) or _is_spec_data(node.orelse, names)
        else:
            return False


def _spec_names(scope) -> set:
    """``spec`` and every name ``scope`` binds (assignment, loop target)
    to spec data, transitively."""
    bindings = []
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            bindings += [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)) \
                and node.value is not None:
            bindings.append((node.target, node.value))
        elif isinstance(node, (ast.For, ast.comprehension)):
            bindings.append((node.target, node.iter))
    names, grew = {"spec"}, True
    while grew:
        grew = False
        for target, value in bindings:
            if _is_spec_data(value, names):
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and leaf.id not in names:
                        names.add(leaf.id)
                        grew = True
    return names


def second_routes(source: str) -> list:
    """Every place ``source`` reads a spec value around ``_pick`` →
    ``_config``: a ``.get(key, default)`` of spec data (a second copy of
    a model's default) or a ``**`` expansion of spec data (values that
    reach a model unchecked)."""
    tree = ast.parse(source)
    found = set()
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        names = _spec_names(scope)
        for node in ast.walk(scope):
            expanded = []
            if isinstance(node, ast.Call):
                expanded = [keyword.value for keyword in node.keywords
                            if keyword.arg is None]
                if isinstance(node.func, ast.Attribute) and node.func.attr == "get" \
                        and len(node.args) + len(node.keywords) > 1 \
                        and _is_spec_data(node.func.value, names):
                    found.add((node.lineno, "get with a default"))
            elif isinstance(node, ast.Dict):
                expanded = [value for key, value in zip(node.keys, node.values)
                            if key is None]
            for value in expanded:
                if _is_spec_data(value, names):
                    found.add((value.lineno, "** of spec data"))
    return sorted(found)


class TestOneRoute:
    """``_pick`` → ``_config``/``_arguments`` is the only way an
    experiment turns spec data into model inputs."""

    def test_adapters_read_spec_values_only_through_picks(self):
        from repro.scenarios import adapters

        source = Path(adapters.__file__).read_text(encoding="utf-8")
        assert second_routes(source) == []

    @pytest.mark.parametrize("source,found", [
        ("def f(spec):\n    x = spec.topology.get('size', 500)\n",
         [(2, "get with a default")]),
        ("def f(spec):\n    arch = spec.architecture\n"
         "    n = int(arch.get('steps', 250))\n", [(3, "get with a default")]),
        ("def f(spec):\n    g(**spec.topology)\n", [(2, "** of spec data")]),
        ("def f(spec):\n    arch = dict(spec.architecture)\n"
         "    arch.pop('seed', None)\n    g(**arch)\n", [(4, "** of spec data")]),
        ("def f(spec):\n    for i, d in enumerate(spec.architecture.get('x') or []):\n"
         "        p = dict(d)\n        g(**p)\n", [(4, "** of spec data")]),
        ("def f(spec):\n    o = spec.architecture.get('o') or {}\n"
         "    return {**o}\n", [(3, "** of spec data")]),
        ("def f(spec):\n    g(**_arguments(h, _pick(spec, 'a', 'b')))\n"
         "    k = spec.workload.get('kind')\n    return {**context['x']}\n", []),
    ])
    def test_the_scan_finds_each_second_route(self, source, found):
        assert second_routes(source) == found


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

    def test_set_value_parsing(self, capsys):
        argv = ["kad-lookup", "--set", "churn=none", "--set", "topology.size=60",
                "--set", "workload.lookups=5", "--quiet", "--json", "-"]
        assert run_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["churn"] is None
        assert payload["spec"]["topology"]["size"] == 60
