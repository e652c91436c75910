"""Equivalence and contract suite for the vectorized per-vertex layer.

A :class:`~repro.engine.vector.VectorAlgorithm` must be indistinguishable —
outputs, rounds, messages, words, drops — from its ``per_vertex`` twin, on
every backend and under every delivery scenario.  The matrix here compares
three executions of the *same* vector class against the ground truth of
running the scalar twin directly on the reference backend:

* vectorized backend → the array fast path (no per-vertex dispatch at all),
* reference backend  → the adapter shim (twin substituted transparently),
* ``as_vertex_factory`` on the vectorized backend → the twin on the batch
  scheduler.

Plus the vector-specific contracts: bulk validation (non-neighbour sends,
halted senders, malformed batches), the per-vertex twin requirement, and
workload-level correctness (BFS distances against networkx, flooding against
the global minimum).
"""

import networkx as nx
import numpy as np
import pytest

from common import (
    VectorFloodMinimum,
    engine_workload_graphs,
    vector_bfs_workload,
    vector_broadcast_workload,
)
from repro.baselines.naive import FloodMinimum
from repro.engine import (
    AdversarialDelayScenario,
    LinkDropScenario,
    VectorAlgorithm,
    VectorSends,
    as_vertex_factory,
    run_algorithm,
)
from repro.engine.delivery import GraphIndex
from repro.graphs import erdos_renyi
from repro.graphs.index import LabelCSR


def executions(algorithm):
    """``(backend, factory)`` for the three runs of one vector class."""
    return [
        ("reference", algorithm),
        ("vectorized", algorithm),
        ("vectorized", as_vertex_factory(algorithm)),
    ]


def vector_workloads():
    return [
        pytest.param(vector_broadcast_workload(8), id="broadcast"),
        pytest.param(VectorFloodMinimum, id="flood-min"),
        pytest.param(vector_bfs_workload(0), id="bfs-tree"),
    ]


def run_signature(run):
    """The facts the vector layer must reproduce exactly."""
    return {
        "rounds": run.rounds,
        "messages": run.metrics.messages,
        "words": run.metrics.words,
        "dropped": run.metrics.dropped,
        "halted": run.halted,
        "outputs": run.outputs,
        "phase_rounds": dict(run.metrics.phase_rounds),
    }


def workload_graphs():
    return [
        pytest.param(name, graph, id=name)
        for name, graph in engine_workload_graphs()
    ]


@pytest.mark.parametrize("algorithm", vector_workloads())
@pytest.mark.parametrize("graph_name,graph", workload_graphs())
def test_vector_classes_match_scalar_reference(algorithm, graph_name, graph):
    truth = run_signature(
        run_algorithm(
            graph, algorithm.per_vertex, backend="reference", max_rounds=5000
        )
    )
    for backend, factory in executions(algorithm):
        candidate = run_signature(
            run_algorithm(graph, factory, backend=backend, max_rounds=5000)
        )
        assert candidate == truth, (
            f"{factory.__name__} diverged from scalar twin on {graph_name} "
            f"via backend {backend}"
        )


FAULTS = [
    ("link-drop", LinkDropScenario(drop_probability=0.15, seed=21)),
    ("adversarial-delay", AdversarialDelayScenario(stall_period=4, seed=2)),
]


@pytest.mark.parametrize(
    "scenario,on_index",
    [
        pytest.param(scenario, on_index, id=name + ("-on-index" if on_index else ""))
        for on_index in (False, True)
        for name, scenario in FAULTS
    ],
)
@pytest.mark.parametrize("algorithm", vector_workloads())
def test_vector_classes_match_scalar_reference_under_faults(algorithm, scenario, on_index):
    """On the graph or on its ``LabelCSR`` (a vector run reads the index's
    arrays, per-vertex code its graph), every run equals the per-vertex twin
    on the graph."""
    graph = erdos_renyi(30, 8.0, seed=9)
    truth = run_signature(
        run_algorithm(
            graph,
            algorithm.per_vertex,
            backend="reference",
            scenario=scenario,
            max_rounds=5000,
        )
    )
    topology = LabelCSR.from_graph(graph) if on_index else graph
    for backend, factory in executions(algorithm):
        candidate = run_signature(
            run_algorithm(
                topology, factory, backend=backend, scenario=scenario,
                max_rounds=5000,
            )
        )
        assert candidate == truth, (
            f"{factory.__name__} diverged under {scenario.describe()} on {backend}"
        )


def test_vector_path_agrees_on_self_loops():
    graph = nx.path_graph(4)
    graph.add_edge(0, 0)
    graph.add_edge(2, 2)
    algorithm = vector_broadcast_workload(6)
    truth = run_signature(
        run_algorithm(graph, algorithm.per_vertex, backend="reference",
                      max_rounds=2000)
    )
    for backend, factory in executions(algorithm):
        assert run_signature(
            run_algorithm(graph, factory, backend=backend, max_rounds=2000)
        ) == truth


def test_vector_path_agrees_on_truncated_runs():
    """Hitting max_rounds mid-transfer must leave identical partial state."""
    graph = erdos_renyi(20, 8.0, seed=6)
    algorithm = vector_broadcast_workload(16)
    for cap in [2, 5, 9]:
        truth = run_signature(
            run_algorithm(graph, algorithm.per_vertex, backend="reference",
                          max_rounds=cap)
        )
        assert not truth["halted"]
        candidate = run_signature(
            run_algorithm(graph, algorithm, backend="vectorized", max_rounds=cap)
        )
        assert candidate == truth, f"vector path diverged at cap {cap}"


# ---------------------------------------------------------------------------
# Workload-level correctness
# ---------------------------------------------------------------------------


def test_bfs_tree_matches_networkx_distances():
    graph = erdos_renyi(60, 3.0, seed=13)  # sparse: disconnection likely
    run = run_algorithm(
        graph, vector_bfs_workload(0), backend="vectorized", max_rounds=5000
    )
    distances = nx.single_source_shortest_path_length(graph, 0)
    for vertex in graph.nodes:
        if vertex in distances:
            dist, parent = run.outputs[vertex]
            assert dist == distances[vertex]
            if vertex == 0:
                assert parent == 0
            else:
                assert graph.has_edge(parent, vertex)
                assert distances[parent] == dist - 1
        else:
            assert run.outputs[vertex] is None


def test_flood_min_elects_global_minimum_per_component():
    graph = erdos_renyi(40, 6.0, seed=17)
    run = run_algorithm(
        graph, VectorFloodMinimum, backend="vectorized", max_rounds=5000
    )
    for component in nx.connected_components(graph):
        winner = min(component)
        for vertex in component:
            assert run.outputs[vertex] == winner


# ---------------------------------------------------------------------------
# Bulk validation and the per-vertex twin contract
# ---------------------------------------------------------------------------


class _MisbehavingBase(VectorAlgorithm):
    """One-round algorithm whose sends are supplied by the subclass."""

    per_vertex = FloodMinimum  # any twin; only the vector path runs

    def on_round(self, round_index, inbox):
        self.halted[:] = True
        return self.build_sends()


def _run_misbehaving(build):
    graph = nx.path_graph(5)
    algorithm = type(
        "Misbehaving", (_MisbehavingBase,), {"build_sends": build}
    )
    return run_algorithm(graph, algorithm, backend="vectorized", max_rounds=50)


def _sends(senders, receivers, values=None, words=None):
    senders = np.asarray(senders, dtype=np.int64)
    return VectorSends(
        senders=senders,
        receivers=np.asarray(receivers, dtype=np.int64),
        values=np.asarray(
            values if values is not None else np.zeros(senders.size),
            dtype=np.int64,
        ),
        words=np.asarray(
            words if words is not None else np.ones(senders.size),
            dtype=np.int64,
        ),
    )


def test_vector_send_to_non_neighbour_is_rejected():
    with pytest.raises(ValueError, match="non-neighbour"):
        _run_misbehaving(lambda self: _sends([0], [3]))


def test_vector_send_with_out_of_range_ids_is_rejected():
    with pytest.raises(ValueError, match="out of range"):
        _run_misbehaving(lambda self: _sends([0], [7]))


def test_vector_send_with_zero_words_is_rejected():
    with pytest.raises(ValueError, match="at least one word"):
        _run_misbehaving(lambda self: _sends([0], [1], words=[0]))


def test_vector_send_with_mismatched_arrays_is_rejected():
    with pytest.raises(ValueError, match="same length"):
        _run_misbehaving(lambda self: _sends([0, 1], [1, 2], values=[5]))


def test_vector_send_with_short_edge_ids_is_rejected():
    """A caller-supplied edge_ids array must cover every send — a short one
    would otherwise silently truncate the scheduled batch."""

    def build(self):
        sends = _sends([0, 1], [1, 2])
        sends.edge_ids = np.asarray([0], dtype=np.int64)
        return sends

    with pytest.raises(ValueError, match="one entry per send"):
        _run_misbehaving(build)


def test_vector_send_with_wrong_edge_ids_is_rejected():
    """A caller-supplied edge id must be the slot of its own send's edge: a
    send 0 -> 1 booked on the edge 3 -> 4 would queue on the wrong edge."""
    graph = nx.path_graph(5)
    assert GraphIndex(graph).edges[6] == (3, 4)

    def build(self):
        sends = _sends([0], [1])
        sends.edge_ids = np.asarray([6], dtype=np.int64)
        return sends

    with pytest.raises(ValueError, match="books the send 0 -> 1 on another edge"):
        _run_misbehaving(build)
    # Out-of-range slots are refused too, negative ones included.
    for slot in (-1, 2 * graph.number_of_edges()):

        def out_of_range(self, slot=slot):
            sends = _sends([0], [1])
            sends.edge_ids = np.array([slot], dtype=np.int64)
            return sends

        with pytest.raises(ValueError, match="edge_ids out of range"):
            _run_misbehaving(out_of_range)


def test_vector_send_from_halted_vertex_is_rejected():
    class HaltsThenSends(VectorAlgorithm):
        per_vertex = FloodMinimum

        def on_round(self, round_index, inbox):
            if round_index == 0:
                self.halted[0] = True
                return None
            self.halted[:] = True
            # Vertex 0 halted in round 0, so sending from it in round 1 is
            # the vector analogue of forging another vertex's messages.
            return _sends([0], [1])

    with pytest.raises(ValueError, match="halted vertex"):
        run_algorithm(
            nx.path_graph(4), HaltsThenSends, backend="vectorized", max_rounds=50
        )


def test_halt_and_send_in_the_same_round_is_legal():
    """BFS-style halt-then-announce must pass halted-sender validation."""
    run = run_algorithm(
        nx.path_graph(6), vector_bfs_workload(0), backend="vectorized",
        max_rounds=100,
    )
    assert run.halted
    assert run.outputs[5] == (5, 4)


def test_vector_class_without_twin_only_runs_vectorized():
    class NoTwin(VectorAlgorithm):
        def on_round(self, round_index, inbox):
            self.halted[:] = True
            return None

    graph = nx.path_graph(3)
    run = run_algorithm(graph, NoTwin, backend="vectorized", max_rounds=10)
    assert run.halted
    with pytest.raises(TypeError, match="per_vertex twin"):
        run_algorithm(graph, NoTwin, backend="reference", max_rounds=10)
    with pytest.raises(TypeError, match="per_vertex twin"):
        as_vertex_factory(NoTwin)


def test_non_integer_vertex_ids_rejected_for_identifier_algorithms():
    graph = nx.Graph()
    graph.add_edge("a", "b")
    with pytest.raises(TypeError, match="integer vertex ids"):
        run_algorithm(graph, VectorFloodMinimum, backend="vectorized")
