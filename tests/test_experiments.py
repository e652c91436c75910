"""Tests of the declarative experiment API and the composable scenarios."""

import json

import networkx as nx
import pytest

from repro.engine import (
    BurstyFaultScenario,
    CleanSynchronous,
    ComposedScenario,
    HeterogeneousBandwidthScenario,
    LinkDropScenario,
    available_scenarios,
    register_scenario,
    scenario_registry,
)
from repro.experiments import (
    ExperimentSpec,
    ResultSet,
    Session,
    graph_source_registry,
    register_graph_source,
    register_workload,
    workload_registry,
)

ALL_BACKENDS = ["reference", "vectorized", "sharded"]

SPEC_KWARGS = dict(
    name="unit",
    graph="erdos-renyi",
    graph_params={"n": 24, "avg_degree": 5.0, "seed": 3},
    workload="flood-min",
    seeds=(0, 1),
)


class TestExperimentSpec:
    def test_json_round_trip_identity(self):
        spec = ExperimentSpec(
            **SPEC_KWARGS,
            backend="sharded",
            backend_params={"num_workers": 2},
            scenario="link-drop",
            scenario_params={"drop_probability": 0.2},
            repeats=2,
            max_rounds=500,
        )
        payload = json.loads(json.dumps(spec.to_json()))
        assert ExperimentSpec.from_json(payload) == spec

    def test_unknown_graph_source_lists_names(self):
        with pytest.raises(ValueError, match="unknown graph source") as excinfo:
            ExperimentSpec(graph="moebius-strip")
        assert str(graph_source_registry.names()) in str(excinfo.value)

    def test_unknown_workload_lists_names(self):
        with pytest.raises(ValueError, match="unknown workload") as excinfo:
            ExperimentSpec(workload="sorting")
        assert str(workload_registry.names()) in str(excinfo.value)

    def test_unknown_backend_and_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentSpec(**SPEC_KWARGS, backend="gpu")
        with pytest.raises(ValueError, match="unknown scenario"):
            ExperimentSpec(**SPEC_KWARGS, scenario="solar-flare")

    def test_zero_argument_spec_is_runnable(self):
        result = Session().run(ExperimentSpec())
        assert result.halted and result.n == 64
        payload = {"name": "defaults-only"}
        assert ExperimentSpec.from_json(payload).name == "defaults-only"

    def test_missing_required_builder_params_fail_eagerly(self):
        # bind (not bind_partial): a spec omitting a required parameter of
        # its graph source fails at construction, not mid-sweep.
        with pytest.raises(ValueError, match="graph source"):
            ExperimentSpec(graph="erdos-renyi", graph_params={})

    def test_bad_parameters_fail_eagerly(self):
        with pytest.raises(ValueError, match="graph source"):
            ExperimentSpec(
                graph="erdos-renyi",
                graph_params={"n": 10, "avg_degree": 2.0, "bogus": 1},
            )
        with pytest.raises(ValueError):
            ExperimentSpec(
                **SPEC_KWARGS,
                scenario="link-drop",
                scenario_params={"drop_probability": 2.0},
            )
        with pytest.raises(ValueError, match="seeds"):
            ExperimentSpec(**{**SPEC_KWARGS, "seeds": ()})
        with pytest.raises(ValueError, match="repeats"):
            ExperimentSpec(**SPEC_KWARGS, repeats=0)
        with pytest.raises(ValueError, match="max_rounds"):
            ExperimentSpec(**SPEC_KWARGS, max_rounds=0)

    def test_live_objects_execute_but_refuse_serialisation(self):
        spec = ExperimentSpec(**{**SPEC_KWARGS, "graph": nx.path_graph(6)})
        result = Session().run(spec)
        assert result.halted
        with pytest.raises(ValueError, match="graph"):
            spec.to_json()

    def test_backend_params_are_actually_applied(self):
        from repro.engine import ShardedBackend

        spec = ExperimentSpec(
            **SPEC_KWARGS, backend="sharded", backend_params={"num_workers": 2}
        )
        engine = spec._build_backend()
        assert isinstance(engine, ShardedBackend) and engine.num_workers == 2
        # A grid cell naming a different backend must not inherit the
        # spec's params (ReferenceBackend has no num_workers).
        assert spec._build_backend("reference").name == "reference"
        # (name, params) pairs configure individual grid cells.
        cell = spec._build_backend(("sharded", {"num_workers": 3}))
        assert cell.num_workers == 3

    @pytest.mark.parametrize("bad", [0, -2, True, 2.5, "2", None])
    def test_sharded_num_workers_validated_at_spec_construction(self, bad):
        """Spec params arrive as JSON; a bad worker count fails eagerly
        instead of running one shard silently or failing mid-run."""
        from repro.service import SubmitRequest
        from repro.service.protocol import ProtocolError

        with pytest.raises(ValueError, match="num_workers"):
            ExperimentSpec(
                **SPEC_KWARGS, backend="sharded",
                backend_params={"num_workers": bad},
            )
        payload = ExperimentSpec(**SPEC_KWARGS, backend="sharded").to_json()
        payload["backend"]["params"] = {"num_workers": bad}
        with pytest.raises(ProtocolError, match="num_workers"):
            SubmitRequest(spec=payload).build_spec()
        spec = ExperimentSpec(
            **SPEC_KWARGS, backend="sharded", backend_params={"num_workers": 2}
        )
        assert spec._build_backend().num_workers == 2

    def test_workload_params_rejected_for_live_objects(self):
        from repro.baselines.naive import FloodMinimum

        with pytest.raises(ValueError, match="workload_params only apply"):
            ExperimentSpec(
                **{**SPEC_KWARGS, "workload": FloodMinimum},
                workload_params={"payload_words": 64},
            )

    def test_from_json_rejects_unknown_fields_listing_payload_keys(self):
        payload = ExperimentSpec(**SPEC_KWARGS).to_json()
        payload["scheduler"] = "round-robin"
        with pytest.raises(ValueError, match="unknown spec fields") as excinfo:
            ExperimentSpec.from_json(payload)
        # The 'known' list must name the accepted *payload* keys, not the
        # dataclass field names (graph_params etc. are not payload keys).
        assert "'algorithm'" in str(excinfo.value)
        assert "graph_params" not in str(excinfo.value)

    def test_from_json_accepts_flat_name_strings(self):
        spec = ExperimentSpec.from_json(
            {
                "name": "flat",
                "graph": {"source": "erdos-renyi",
                          "params": {"n": 20, "avg_degree": 4.0, "seed": 1}},
                "algorithm": "flood-min",       # bare string, no params
                "backend": "vectorized",
                "scenario": "bursty",
            }
        )
        assert spec.workload == "flood-min" and spec.scenario == "bursty"
        assert Session().run(spec).halted
        with pytest.raises(ValueError, match="must be a name string"):
            ExperimentSpec.from_json({"graph": 42})

    def test_pinned_scenario_seed_with_multi_seed_sweep_rejected(self):
        with pytest.raises(ValueError, match="pins 'seed'"):
            ExperimentSpec(
                **SPEC_KWARGS,          # seeds=(0, 1)
                scenario="link-drop",
                scenario_params={"drop_probability": 0.1, "seed": 5},
            )
        # A single-seed spec may pin the scenario seed explicitly.
        ExperimentSpec(
            **{**SPEC_KWARGS, "seeds": (0,)},
            scenario="link-drop",
            scenario_params={"seed": 5},
        )


class TestSession:
    def test_seed_sweep_determinism_same_digest(self):
        spec = ExperimentSpec(**SPEC_KWARGS, scenario="link-drop")
        first = Session().sweep(spec)
        second = Session().sweep(spec)
        assert first.digest() == second.digest()
        assert len(first) == len(spec.seeds)

    def test_distinct_seeds_produce_distinct_cells(self):
        spec = ExperimentSpec(**SPEC_KWARGS, scenario="heterogeneous-bandwidth")
        results = Session().sweep(spec)
        by_seed = {result.seed: result for result in results}
        assert set(by_seed) == {0, 1}
        # The sweep seed is injected into the scenario's constructor, so the
        # two cells ran genuinely different delivery randomness.
        assert "seed=0" in by_seed[0].scenario
        assert "seed=1" in by_seed[1].scenario

    def test_grid_runs_every_cell_and_backends_agree(self):
        spec = ExperimentSpec(**{**SPEC_KWARGS, "seeds": (0,)})
        results = Session().grid(
            spec,
            backends=ALL_BACKENDS,
            scenarios=["clean", "link-drop", "bursty", "heterogeneous-bandwidth"],
        )
        assert len(results) == 3 * 4
        results.check_backend_agreement()
        # Per-cell grouping: every cell holds one result per backend.
        for cell in results.by_cell().values():
            assert sorted(r.backend for r in cell) == sorted(ALL_BACKENDS)

    def test_spec_scenario_params_do_not_leak_to_other_grid_scenarios(self):
        spec = ExperimentSpec(
            **{**SPEC_KWARGS, "seeds": (0,)},
            scenario="link-drop",
            scenario_params={"drop_probability": 0.2},
        )
        # "clean" takes no constructor arguments; before the fix this grid
        # crashed with TypeError because the spec's link-drop params were
        # applied to every named cell.
        results = Session().grid(spec, scenarios=["clean", "link-drop"])
        results.check_backend_agreement()
        labels = {r.scenario_name for r in results}
        assert labels == {"clean", "link-drop"}
        drop_cell = next(r for r in results if r.scenario_name == "link-drop")
        assert "q=0.2" in drop_cell.scenario  # spec params still apply to it

    def test_same_scenario_different_params_are_distinct_cells(self):
        spec = ExperimentSpec(**{**SPEC_KWARGS, "seeds": (0,)})
        results = Session().grid(
            spec,
            backends=["reference", "vectorized"],
            scenarios=[
                ("link-drop", {"drop_probability": 0.05}),
                ("link-drop", {"drop_probability": 0.5}),
            ],
        )
        # Two parameterizations of one scenario name are separate cells, so
        # the agreement check compares backends within each, not across.
        assert len(results.by_cell()) == 2
        results.check_backend_agreement()

    def test_instances_with_default_describe_are_distinct_cells(self):
        from repro.engine import DeliveryScenario
        from repro.engine.scenarios import _HASH_DENOM, _stable_hash

        class Murky(DeliveryScenario):
            # Deliberately no describe() override: both instances print as
            # the bare class name, yet they must remain distinct grid cells.
            def __init__(self, q):
                self.q = q

            def transmits(self, edge, round_index):
                draw = _stable_hash("murky", edge, round_index) / _HASH_DENOM
                return draw >= self.q

        spec = ExperimentSpec(**{**SPEC_KWARGS, "seeds": (0,)})
        results = Session().grid(
            spec, backends=["reference", "vectorized"],
            scenarios=[Murky(0.0), Murky(0.6)],
        )
        assert len(results.by_cell()) == 2
        results.check_backend_agreement()

    def test_backend_agreement_catches_divergence(self):
        spec = ExperimentSpec(**{**SPEC_KWARGS, "seeds": (0,)})
        results = Session().grid(spec, backends=["reference", "vectorized"])
        results.results[1].rounds += 1
        with pytest.raises(AssertionError, match="diverged"):
            results.check_backend_agreement()

    def test_repeats_collect_samples_and_assert_determinism(self):
        spec = ExperimentSpec(**{**SPEC_KWARGS, "seeds": (0,)}, repeats=3)
        result = Session().run(spec)
        assert len(result.seconds) == 3

    def test_to_json_matches_bench_shape(self):
        spec = ExperimentSpec(**{**SPEC_KWARGS, "seeds": (0,)})
        report = Session().sweep(spec).to_json()
        assert set(report) == {"experiment", "workload", "rows"}
        row = report["rows"][0]
        for key in ("n", "edges", "backend", "scenario", "rounds", "words",
                    "dropped", "seconds", "output_digest"):
            assert key in row

    def test_keep_outputs(self):
        spec = ExperimentSpec(**{**SPEC_KWARGS, "seeds": (0,)})
        kept = Session(keep_outputs=True).run(spec)
        discarded = Session().run(spec)
        assert kept.outputs is not None and len(kept.outputs) == 24
        assert discarded.outputs is None
        assert kept.output_digest == discarded.output_digest

    def test_driver_workload_distributed_listing(self, tiny_triangle_graph):
        spec = ExperimentSpec(
            name="listing-cell",
            graph=tiny_triangle_graph,
            workload="distributed-listing",
            seeds=(0,),
            max_rounds=5_000,
        )
        results = Session(keep_outputs=True).grid(spec, backends=ALL_BACKENDS)
        results.check_backend_agreement()
        for result in results:
            assert result.outputs["cliques"] == ((0, 1, 2), (1, 2, 3))

    def test_live_driver_object_recognised_as_driver(self, tiny_triangle_graph):
        from repro.experiments.workloads import distributed_listing_workload

        runner = distributed_listing_workload()   # a built driver, not a name
        spec = ExperimentSpec(
            name="live-driver",
            graph=tiny_triangle_graph,
            workload=runner,
            seeds=(0,),
            max_rounds=5_000,
        )
        assert spec.workload_kind() == "driver"
        result = Session(keep_outputs=True).run(spec)
        assert result.outputs["cliques"] == ((0, 1, 2), (1, 2, 3))

    def test_grid_pair_pinning_seed_on_multi_seed_spec_rejected(self):
        spec = ExperimentSpec(**SPEC_KWARGS)      # seeds=(0, 1)
        with pytest.raises(ValueError, match="pins 'seed'"):
            Session().grid(
                spec, scenarios=[("link-drop", {"seed": 5})]
            )


class TestOpenRegistries:
    def test_custom_workload_and_graph_source_round_trip(self):
        @register_graph_source("unit-star")
        def star(n: int):
            return nx.star_graph(n - 1)

        @register_workload("unit-flood")
        def flood():
            from repro.baselines.naive import FloodMinimum

            return FloodMinimum

        try:
            spec = ExperimentSpec(
                graph="unit-star", graph_params={"n": 9},
                workload="unit-flood", seeds=(0,),
            )
            assert ExperimentSpec.from_json(spec.to_json()) == spec
            result = Session().run(spec)
            assert result.n == 9 and result.halted
        finally:
            graph_source_registry.entries.pop("unit-star")
            workload_registry.entries.pop("unit-flood")

    def test_custom_scenario_registers_and_resolves(self):
        @register_scenario("unit-blackout")
        class Blackout(CleanSynchronous):
            pass

        try:
            assert "unit-blackout" in available_scenarios()
            spec = ExperimentSpec(**SPEC_KWARGS, scenario="unit-blackout")
            assert Session().run(spec).halted
        finally:
            scenario_registry.entries.pop("unit-blackout")

    def test_workload_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            register_workload("broken", kind="quantum")

    def test_alias_registration_keeps_canonical_class_name(self):
        from repro.engine import VectorizedBackend, register_backend, resolve_backend
        from repro.engine.registry import backend_registry

        register_backend("unit-fast")(VectorizedBackend)
        try:
            assert VectorizedBackend.name == "vectorized"   # not renamed
            engine = resolve_backend("unit-fast")
            assert isinstance(engine, VectorizedBackend)
            assert engine.name == "vectorized"
        finally:
            backend_registry.entries.pop("unit-fast")

    def test_large_numpy_outputs_digest_exactly(self):
        import numpy as np

        from repro.experiments.session import _digest_outputs

        base = np.arange(2000)
        tweaked = base.copy()
        tweaked[1000] += 1   # inside the region repr() elides with '...'
        assert _digest_outputs({0: base}) != _digest_outputs({0: tweaked})
        assert _digest_outputs({0: base}) == _digest_outputs({0: base.copy()})
        assert _digest_outputs({0: [base, "x"]}) != _digest_outputs(
            {0: [tweaked, "x"]}
        )


class TestComposableScenarios:
    def test_overlay_with_clean_is_identity(self):
        drop = LinkDropScenario(drop_probability=0.3, seed=5)
        composed = ComposedScenario.overlay("clean", drop)
        for edge in [(0, 1), (4, 2)]:
            for round_index in range(40):
                assert composed.transmits(edge, round_index) == drop.transmits(
                    edge, round_index
                )

    def test_and_operator_and_is_clean(self):
        both_clean = CleanSynchronous() & CleanSynchronous()
        assert both_clean.is_clean
        faulty = CleanSynchronous() & LinkDropScenario(0.5)
        assert not faulty.is_clean

    def test_sequential_switches_regimes(self):
        never = BurstyFaultScenario(
            burst_probability=0.99, burst_length=8, period=9, seed=1
        )
        seq = ComposedScenario.sequential(("clean", 10), (never, None))
        edge = (0, 1)
        assert all(seq.transmits(edge, r) for r in range(10))
        later = [seq.transmits(edge, r) for r in range(10, 60)]
        assert not all(later)

    def test_sequential_validation(self):
        with pytest.raises(ValueError, match="durations"):
            ComposedScenario(["clean", "link-drop"], mode="sequential")
        with pytest.raises(ValueError, match="at least one part"):
            ComposedScenario([])
        with pytest.raises(ValueError, match="mode"):
            ComposedScenario(["clean"], mode="parallel")
        with pytest.raises(ValueError, match="durations only apply"):
            ComposedScenario(["clean"], durations=(5,))

    def test_bursty_outages_are_contiguous(self):
        scenario = BurstyFaultScenario(
            burst_probability=1.0 - 1e-9, burst_length=4, period=10, seed=2
        )
        edge = (3, 7)
        window = [scenario.transmits(edge, r) for r in range(10)]
        down = [i for i, up in enumerate(window) if not up]
        assert len(down) == 4
        assert down == list(range(down[0], down[0] + 4))

    def test_bursty_validation(self):
        with pytest.raises(ValueError, match="burst probability"):
            BurstyFaultScenario(burst_probability=1.0)
        with pytest.raises(ValueError, match="burst length"):
            BurstyFaultScenario(burst_length=0)
        with pytest.raises(ValueError, match="period"):
            BurstyFaultScenario(burst_length=5, period=5)

    def test_heterogeneous_bandwidth_rate_and_symmetry(self):
        scenario = HeterogeneousBandwidthScenario(capacities=(0.25,), seed=0)
        assert scenario.capacity((0, 1)) == scenario.capacity((1, 0)) == 0.25
        crossings = sum(scenario.transmits((0, 1), r) for r in range(100))
        assert crossings == 25
        explicit = HeterogeneousBandwidthScenario(
            edge_capacities={(0, 1): 0.5}, seed=0
        )
        assert explicit.capacity((1, 0)) == 0.5

    def test_heterogeneous_bandwidth_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            HeterogeneousBandwidthScenario(capacities=(0.0,))
        with pytest.raises(ValueError, match="capacity"):
            HeterogeneousBandwidthScenario(edge_capacities={(0, 1): 1.5})
        with pytest.raises(ValueError, match="non-empty"):
            HeterogeneousBandwidthScenario(capacities=())

    def test_composed_scenario_equivalent_across_backends(self):
        spec = ExperimentSpec(
            **{**SPEC_KWARGS, "seeds": (0,), "scenario": ComposedScenario.overlay(
                LinkDropScenario(0.1, seed=3),
                BurstyFaultScenario(seed=4),
            )},
        )
        results = Session().grid(spec, backends=ALL_BACKENDS)
        results.check_backend_agreement()
        assert len(results) == 3


class TestComposedScenarioSpecs:
    """ComposedScenario trees as plain-JSON spec parameters."""

    NESTED_PARAMS = {
        "op": "overlay",
        "children": [
            {"name": "link-drop", "params": {"drop_probability": 0.15}},
            {
                "op": "sequential",
                "children": [
                    {"name": "clean", "params": {}},
                    {"name": "bursty", "params": {"burst_length": 2, "period": 8}},
                ],
                "durations": [40],
            },
        ],
    }

    def _spec(self, **overrides):
        kwargs = dict(
            **{**SPEC_KWARGS, "seeds": (0,)},
            scenario="composed",
            scenario_params=dict(self.NESTED_PARAMS),
        )
        kwargs.update(overrides)
        return ExperimentSpec(**kwargs)

    def test_json_round_trip_and_execution(self):
        spec = self._spec()
        payload = json.loads(json.dumps(spec.to_json()))
        assert ExperimentSpec.from_json(payload) == spec
        result = Session().run(spec)
        assert result.halted
        assert result.scenario.startswith("Composed[overlay]")

    def test_composed_cells_agree_across_backends(self):
        results = Session().grid(self._spec(), backends=ALL_BACKENDS)
        results.check_backend_agreement()
        assert len(results) == 3

    def test_sweep_seed_reaches_composed_children(self):
        spec = self._spec(seeds=(0, 1))
        results = Session().sweep(spec)
        by_seed = {result.seed: result for result in results}
        # The sweep seed is injected into every child that accepts one and
        # does not pin its own, so the two cells run different randomness.
        assert "seed=0" in by_seed[0].scenario
        assert "seed=1" in by_seed[1].scenario
        built = [
            spec._build_scenario(seed=seed) for seed in (0, 1)
        ]
        edge = (0, 1)
        decisions = [
            [scenario.transmits(edge, r) for r in range(200)]
            for scenario in built
        ]
        assert decisions[0] != decisions[1]

    def test_invalid_trees_fail_eagerly_at_spec_construction(self):
        with pytest.raises(ValueError, match="parameter-driven"):
            self._spec(scenario_params={"op": "overlay", "children": []})
        with pytest.raises(ValueError, match="unknown scenario"):
            self._spec(
                scenario_params={"op": "overlay", "children": ["solar-flare"]}
            )
        with pytest.raises(ValueError, match="'name' or 'op'"):
            self._spec(
                scenario_params={"op": "overlay", "children": [{"params": {}}]}
            )
        # A typo'd key must not silently build a default-configured child.
        with pytest.raises(ValueError, match="unknown keys.*parms"):
            self._spec(
                scenario_params={
                    "op": "overlay",
                    "children": [
                        {"name": "link-drop", "parms": {"drop_probability": 0.9}}
                    ],
                }
            )
        with pytest.raises(ValueError, match="unknown keys.*childs"):
            self._spec(
                scenario_params={
                    "op": "overlay",
                    "children": [{"op": "sequential", "childs": ["clean"]}],
                }
            )

    def test_spec_params_exports_a_live_tree(self):
        from repro.engine import build_composed

        live = ComposedScenario.sequential(
            ("clean", 30), (LinkDropScenario(0.2, seed=6), None)
        )
        params = live.spec_params()
        spec = self._spec(scenario_params=params)
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        rebuilt = build_composed(**params)
        edges = [(0, 1), (1, 2)]
        live.bind_edges(edges)
        rebuilt.bind_edges(edges)
        for edge in edges:
            for round_index in range(80):
                assert live.transmits(edge, round_index) == rebuilt.transmits(
                    edge, round_index
                )

    def test_unregistered_part_refuses_to_serialise(self):
        class Anonymous(CleanSynchronous):
            name = ""
            is_clean = False

        with pytest.raises(ValueError, match="not a registered"):
            ComposedScenario.overlay(Anonymous()).spec_params()


class _ReprLeaf:
    """Hashable leaf with a fully controlled ``repr`` (vertex-id stand-in).

    Vertex identifiers and per-vertex outputs are arbitrary hashables, so
    their ``repr`` can contain the very separators a canonical container
    encoding uses internally.
    """

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __eq__(self, other) -> bool:
        return isinstance(other, _ReprLeaf) and self.text == other.text


class TestCanonicalReprUnambiguous:
    """Regression: the old dict/set encoding joined entry strings with
    bare ``:`` / ``,`` separators, so leaves whose reprs contain those
    characters collided — two different outputs, one digest.  The fixed
    encoding length-prefixes every element, making boundaries explicit."""

    def test_dict_key_value_boundary_collision(self):
        from repro.experiments.session import _canonical_repr

        # Old encoding: both rendered the entry string "a:b:c".
        a = {_ReprLeaf("a"): _ReprLeaf("b:c")}
        b = {_ReprLeaf("a:b"): _ReprLeaf("c")}
        assert _canonical_repr(a) != _canonical_repr(b)

    def test_set_element_boundary_collision(self):
        from repro.experiments.session import _canonical_repr

        # Old encoding: both sorted-joined to "a,b,c".
        a = {_ReprLeaf("a"), _ReprLeaf("b,c")}
        b = {_ReprLeaf("a,b"), _ReprLeaf("c")}
        assert _canonical_repr(a) != _canonical_repr(b)

    def test_multi_entry_dict_boundary_collision(self):
        from repro.experiments.session import _canonical_repr

        # Old encoding: both sorted-joined to "k:v,x,y:z".
        a = {_ReprLeaf("k"): _ReprLeaf("v,x"), _ReprLeaf("y"): _ReprLeaf("z")}
        b = {_ReprLeaf("k"): _ReprLeaf("v"), _ReprLeaf("x,y"): _ReprLeaf("z")}
        assert _canonical_repr(a) != _canonical_repr(b)

    def test_output_digests_distinguish_colliding_containers(self):
        from repro.experiments.session import _digest_outputs

        a = _digest_outputs({0: {_ReprLeaf("a"): _ReprLeaf("b:c")}})
        b = _digest_outputs({0: {_ReprLeaf("a:b"): _ReprLeaf("c")}})
        assert a != b

    def test_plain_containers_still_digest_deterministically(self):
        from repro.experiments.session import _canonical_repr

        assert _canonical_repr({"b": 2, "a": 1}) == _canonical_repr(
            {"a": 1, "b": 2}
        )
        assert _canonical_repr({3, 1, 2}) == _canonical_repr({1, 2, 3})
        assert _canonical_repr({"a": 1}) != _canonical_repr({"a": 2})


class TestTracerForwarding:
    """Regression: ``Session.execute`` must hand every backend the
    *resolved* tracer on every call — the null tracer when tracing is off —
    so a custom backend sees one call shape."""

    def _graph(self):
        return nx.path_graph(4)

    def _factory(self):
        from repro.baselines.naive import FloodMinimum

        return FloodMinimum

    def test_untraced_session_passes_null_tracer(self):
        from repro.congest.metrics import CongestMetrics
        from repro.congest.network import SynchronousRun
        from repro.engine.backend import Backend
        from repro.obs import NullTracer

        seen = {}

        class TracerProbe(Backend):
            name = "tracer-probe"

            def run(self, graph, factory, *, max_rounds=10_000,
                    phase="simulated", metrics=None, scenario=None,
                    tracer=None):
                seen["tracer"] = tracer
                return SynchronousRun(
                    rounds=1, metrics=CongestMetrics(), outputs={},
                    halted=True,
                )

        Session().execute(self._graph(), self._factory(),
                          backend=TracerProbe())
        assert isinstance(seen["tracer"], NullTracer)

    def test_traced_session_passes_its_tracer(self):
        from repro.congest.metrics import CongestMetrics
        from repro.congest.network import SynchronousRun
        from repro.engine.backend import Backend
        from repro.obs import RecordingTracer

        seen = {}

        class TracerProbe(Backend):
            name = "tracer-probe"

            def run(self, graph, factory, *, max_rounds=10_000,
                    phase="simulated", metrics=None, scenario=None,
                    tracer=None):
                seen["tracer"] = tracer
                return SynchronousRun(
                    rounds=1, metrics=CongestMetrics(), outputs={},
                    halted=True,
                )

        recording = RecordingTracer()
        Session(tracer=recording).execute(
            self._graph(), self._factory(), backend=TracerProbe()
        )
        assert seen["tracer"] is recording
