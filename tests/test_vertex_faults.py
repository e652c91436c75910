"""Vertex-fault scenarios: determinism, backend equivalence, drop accounting.

The crash-stop / Byzantine scenarios (``repro.robust.scenarios``) extend the
delivery-scenario contract with a *vertex*-fault axis, which the round
driver (``repro.engine.rounds``) applies for every backend.  Three
contracts pin the layer:

1. **Seed determinism** — every fault decision is a pure function of
   ``(seed, vertex, round)``: rebinding a freshly constructed scenario must
   reproduce the identical crash schedule / corruption masks.
2. **Backend equivalence** — the same workload under the same vertex-fault
   scenario must produce identical rounds / outputs / word totals / drop
   counts on the reference and vectorized backends (and on the vector fast
   path against its scalar twin on both).
3. **Drop accounting** — words a crashed vertex queued before dying still
   cross (bandwidth was spent) but the message is discarded on arrival and
   counted in ``CongestMetrics.dropped``, mirroring the halted-receiver rule.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from common import vector_broadcast_workload
from repro.congest.vertex import VertexAlgorithm
from repro.engine import as_vertex_factory
from repro.engine.registry import scenario_registry
from repro.engine.runner import run_algorithm
from repro.engine.scenarios import ComposedScenario, resolve_scenario
from repro.experiments import ExperimentSpec
from repro.graphs import erdos_renyi
from repro.obs import RecordingTracer
from repro.robust.scenarios import ByzantineVertexScenario, CrashStopVertexScenario

BACKENDS = ["reference", "vectorized"]

seeds = st.integers(min_value=0, max_value=2**31)


def crash_scenario(seed=0, max_faulty=2, first_round=1, window=5):
    return CrashStopVertexScenario(
        max_faulty=max_faulty, first_round=first_round, window=window, seed=seed
    )


def byzantine_scenario(seed=0, max_faulty=2, start_round=0):
    return ByzantineVertexScenario(
        max_faulty=max_faulty, start_round=start_round, seed=seed
    )


class FloodMax(VertexAlgorithm):
    """Flood the maximum vertex label: breaks under Byzantine corruption.

    (Flood-*min* over non-negative labels survives value corruption —
    a 31-bit XOR mask cannot forge below 0 — so the Byzantine divergence
    tests flood the maximum instead, which a corrupted word *can* exceed.)
    """

    def __init__(self, vertex, neighbors, n):
        super().__init__(vertex, neighbors, n)
        self.best = int(vertex)
        self.rounds_quiet = 0

    def on_round(self, round_index, inbox):
        improved = False
        for message in inbox:
            if message.payload > self.best:
                self.best = message.payload
                improved = True
        if round_index == 0 or improved:
            self.rounds_quiet = 0
            return [
                self.send(neighbor, "max", self.best)
                for neighbor in self.neighbors
            ]
        self.rounds_quiet += 1
        if self.rounds_quiet >= 2:
            self.output = self.best
            self.halt()
        return []


# -- 1. seed determinism -----------------------------------------------------


@given(seed=seeds, n=st.integers(min_value=4, max_value=40),
       budget=st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_crash_schedule_is_a_pure_function_of_seed(seed, n, budget):
    nodes = list(range(n))
    first = crash_scenario(seed=seed, max_faulty=budget)
    second = crash_scenario(seed=seed, max_faulty=budget)
    first.bind_nodes(nodes)
    second.bind_nodes(list(reversed(nodes)))  # binding order must not matter
    assert first.crash_rounds() == second.crash_rounds()
    assert len(first.crash_rounds()) == min(budget, n)
    for round_index in range(12):
        assert first.faulty_vertices(round_index) == second.faulty_vertices(
            round_index
        )
    # Crash sets are monotone in time.
    history = [first.faulty_vertices(r) for r in range(12)]
    for earlier, later in zip(history, history[1:]):
        assert earlier <= later


@given(seed=seeds, n=st.integers(min_value=4, max_value=40))
@settings(max_examples=60, deadline=None)
def test_byzantine_corruption_is_deterministic_and_shape_preserving(seed, n):
    nodes = list(range(n))
    first = byzantine_scenario(seed=seed)
    second = byzantine_scenario(seed=seed)
    first.bind_nodes(nodes)
    second.bind_nodes(list(reversed(nodes)))
    assert first.byzantine_vertices() == second.byzantine_vertices()
    assert first.faulty_vertices(5) == frozenset()  # liars never crash
    liar = min(first.byzantine_vertices(), default=None)
    if liar is None:
        return
    payload = (7, [1, 2], "tag", None, True)
    out1 = first.corrupt_payload(liar, (liar + 1) % n, 3, payload)
    out2 = second.corrupt_payload(liar, (liar + 1) % n, 3, payload)
    assert out1 == out2
    # Ints flip (mask has the low bit forced), everything else is untouched.
    assert out1[0] != 7 and type(out1[0]) is int
    assert out1[1] != [1, 2] and out1[2] == "tag"
    assert out1[3] is None and out1[4] is True
    # Non-faulty senders and pre-start rounds pass through unchanged.
    honest = next(v for v in nodes if v not in first.byzantine_vertices())
    assert first.corrupt_payload(honest, liar, 3, payload) is payload
    early = byzantine_scenario(seed=seed, start_round=10)
    early.bind_nodes(nodes)
    assert early.corrupt_payload(liar, honest, 3, payload) is payload


@given(seed=seeds, n=st.integers(min_value=4, max_value=30),
       round_index=st.integers(min_value=0, max_value=20), data=st.data())
@settings(max_examples=60, deadline=None)
def test_batch_corrupt_values_matches_scalar_corrupt_payload(
    seed, n, round_index, data
):
    scenario = byzantine_scenario(seed=seed, max_faulty=n // 2)
    nodes = list(range(n))
    scenario.bind_nodes(nodes)
    count = data.draw(st.integers(min_value=1, max_value=24))
    senders = np.asarray(
        data.draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count))
    )
    receivers = np.asarray(
        data.draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count))
    )
    values = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2**31 - 1),
                min_size=count, max_size=count,
            )
        ),
        dtype=np.int64,
    )
    batch = scenario.corrupt_values(senders, receivers, round_index, values)
    expected = [
        scenario.corrupt_payload(int(s), int(r), round_index, int(v))
        for s, r, v in zip(senders, receivers, values)
    ]
    assert batch.tolist() == expected


# -- 2. backend equivalence --------------------------------------------------


def run_matrix(factory, graph, scenario_builder):
    runs = {
        backend: run_algorithm(
            graph, factory, backend=backend, scenario=scenario_builder()
        )
        for backend in BACKENDS
    }
    base = runs["reference"]
    for backend, run in runs.items():
        assert run.rounds == base.rounds, backend
        assert run.outputs == base.outputs, backend
        assert run.metrics.words == base.metrics.words, backend
        assert run.metrics.messages == base.metrics.messages, backend
        assert run.metrics.dropped == base.metrics.dropped, backend
        assert run.halted == base.halted, backend
    return base


@pytest.mark.parametrize("builder", [crash_scenario, byzantine_scenario])
def test_flood_agrees_across_backends_under_vertex_faults(builder):
    graph = erdos_renyi(36, 6.0, seed=13)
    run_matrix(FloodMax, graph, builder)


@pytest.mark.parametrize("builder", [crash_scenario, byzantine_scenario])
def test_vector_fast_path_agrees_with_scalar_twin(builder):
    graph = erdos_renyi(30, 5.0, seed=5)
    workload = vector_broadcast_workload(payload_words=6)
    vector = run_algorithm(
        graph, workload, backend="vectorized", scenario=builder()
    )
    # The twin on both transports: the edge queues and the batch scheduler.
    for backend in BACKENDS:
        scalar = run_algorithm(
            graph, as_vertex_factory(workload), backend=backend,
            scenario=builder(),
        )
        assert vector.rounds == scalar.rounds, backend
        assert vector.outputs == scalar.outputs, backend
        assert vector.metrics.words == scalar.metrics.words, backend
        assert vector.metrics.dropped == scalar.metrics.dropped, backend


def test_crash_breaks_flood_but_byzantine_only_lies():
    graph = erdos_renyi(36, 6.0, seed=13)
    clean = run_algorithm(graph, FloodMax, backend="reference")
    crashed = run_algorithm(
        graph, FloodMax, backend="reference", scenario=crash_scenario()
    )
    lied = run_algorithm(
        graph, FloodMax, backend="reference", scenario=byzantine_scenario()
    )
    assert clean.outputs != crashed.outputs
    assert clean.outputs != lied.outputs
    # A crashed vertex's output freezes at its pre-crash state; a Byzantine
    # run has every vertex still reporting, just with corrupted values.
    assert set(lied.outputs) == set(clean.outputs)


# -- 3. drop accounting ------------------------------------------------------


class BlobThenListen(VertexAlgorithm):
    """Round 0: every vertex broadcasts a multi-word blob, then listens.

    With a crash window that kills a vertex *after* round 0, the dead
    sender's queued fragments are still in flight — the regression shape
    for crashed-endpoint drop accounting.
    """

    def __init__(self, vertex, neighbors, n):
        super().__init__(vertex, neighbors, n)
        self._seen: set = set()

    def on_round(self, round_index, inbox):
        for message in inbox:
            self._seen.add(message.sender)
        if round_index == 0:
            blob = tuple(range(8))
            return [self.send(v, "blob", blob) for v in self.neighbors]
        if round_index >= 12:
            self.output = len(self._seen)
            self.halt()
        return []


@pytest.mark.parametrize("backend", BACKENDS)
def test_crashed_vertex_in_flight_words_are_dropped_and_counted(backend):
    graph = nx.complete_graph(6)
    scenario = CrashStopVertexScenario(
        max_faulty=2, first_round=2, window=1, seed=3
    )
    run = run_algorithm(graph, BlobThenListen, backend=backend, scenario=scenario)
    clean = run_algorithm(graph, BlobThenListen, backend=backend)
    # Bandwidth was spent on the dead senders' queued fragments...
    assert run.metrics.words == clean.metrics.words
    # ...but the completed messages were discarded at delivery.
    assert run.metrics.dropped > 0
    probe = CrashStopVertexScenario(max_faulty=2, first_round=2, window=1, seed=3)
    probe.bind_nodes(list(graph.nodes))
    crashed = set(probe.crash_rounds())
    # 9-word blobs complete at round 9; both crashes fire at round 2, so
    # every blob with a crashed endpoint is dropped: the 2*4 directed pairs
    # between live and crashed vertices (both directions) plus the
    # crashed-to-crashed pair in both directions.
    survivors = set(graph.nodes) - crashed
    assert run.metrics.dropped == 2 * len(crashed) * len(survivors) + 2
    for v in survivors:
        # Survivors still count each other's blobs; only the crashed
        # senders' blobs vanished from their inboxes.
        assert run.outputs[v] == len(survivors) - 1


def test_backends_agree_on_drop_counts_under_crashes():
    graph = erdos_renyi(24, 5.0, seed=9)
    runs = {
        backend: run_algorithm(
            graph,
            BlobThenListen,
            backend=backend,
            scenario=CrashStopVertexScenario(
                max_faulty=3, first_round=1, window=4, seed=7
            ),
        )
        for backend in BACKENDS
    }
    base = runs["reference"]
    assert base.metrics.dropped > 0
    for backend, run in runs.items():
        assert run.metrics.dropped == base.metrics.dropped, backend
        assert run.outputs == base.outputs, backend


# -- tracer events, registry, composition ------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_tracer_sees_crashes_and_corruptions(backend):
    graph = erdos_renyi(20, 4.0, seed=1)
    scenario = ComposedScenario.overlay(
        crash_scenario(seed=2, max_faulty=1), byzantine_scenario(seed=2)
    )
    tracer = RecordingTracer()
    run_algorithm(
        graph, FloodMax, backend=backend, scenario=scenario, tracer=tracer
    )
    crashes = tracer.events_of("vertex_crashed")
    assert len(crashes) == 1
    probe = crash_scenario(seed=2, max_faulty=1)
    probe.bind_nodes(list(graph.nodes))
    ((vertex, round_index),) = probe.crash_rounds().items()
    assert crashes[0]["vertex"] == vertex
    assert crashes[0]["round"] == round_index
    corrupted = tracer.events_of("payload_corrupted")
    assert corrupted and all(event["count"] >= 1 for event in corrupted)


def test_vertex_fault_scenarios_resolve_lazily_from_the_registry():
    assert "crash-vertices" in scenario_registry
    assert "byzantine-vertices" in scenario_registry
    scenario = resolve_scenario("crash-vertices")
    assert isinstance(scenario, CrashStopVertexScenario)
    assert not scenario.has_link_faults and scenario.has_vertex_faults


def test_spec_params_round_trip_through_experiment_json():
    spec = ExperimentSpec(
        name="faults",
        graph="erdos-renyi",
        graph_params={"n": 16, "avg_degree": 4.0, "seed": 1},
        workload="flood-min",
        scenario="crash-vertices",
        scenario_params={"max_faulty": 2, "first_round": 1, "window": 3, "seed": 5},
    )
    restored = ExperimentSpec.from_json(spec.to_json())
    assert restored.to_json() == spec.to_json()
    original = crash_scenario(seed=5, max_faulty=2, first_round=1, window=3)
    rebuilt = type(original)(**original.spec_params())
    nodes = list(range(16))
    original.bind_nodes(nodes)
    rebuilt.bind_nodes(nodes)
    assert original.crash_rounds() == rebuilt.crash_rounds()


def test_composed_overlay_propagates_vertex_fault_flags():
    composed = ComposedScenario.overlay("clean", crash_scenario())
    assert composed.has_vertex_faults
    assert not composed.has_link_faults
    composed.bind_nodes(list(range(10)))
    probe = crash_scenario()
    probe.bind_nodes(list(range(10)))
    assert composed.faulty_vertices(30) == probe.faulty_vertices(30)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError, match="max_faulty"):
        CrashStopVertexScenario(max_faulty=-1)
    with pytest.raises(ValueError, match="fraction"):
        CrashStopVertexScenario(fraction=1.5)
    with pytest.raises(ValueError, match="window"):
        CrashStopVertexScenario(window=0)
    with pytest.raises(ValueError, match="start_round"):
        ByzantineVertexScenario(start_round=-1)
    with pytest.raises(RuntimeError, match="bind_nodes"):
        ByzantineVertexScenario().byzantine_vertices()
