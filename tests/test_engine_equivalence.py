"""Equivalence suite: every backend must agree with the reference simulator.

For a matrix of per-vertex algorithms x seeded workload graphs x delivery
scenarios, the vectorized backend and the sharded backend with two forked
workers must reproduce the reference backend's per-vertex outputs, combined
output, round count, and message/word totals exactly.  This is the
contract that lets large experiments run on the fast backends without
re-validating semantics.
"""

import networkx as nx
import pytest

from common import engine_workload_graphs
from repro.baselines.naive import FloodMinimum, NeighborhoodExchangeTriangles
from repro.congest.vertex import VertexAlgorithm
from repro.engine import (
    AdversarialDelayScenario,
    LinkDropScenario,
    ShardedBackend,
    run_algorithm,
)
from repro.graphs import erdos_renyi
from repro.graphs.cliques import enumerate_cliques
from repro.listing.validation import validate_on_engine

# Two forked workers, so every case also crosses the sharded pipe.
FAST_BACKENDS = ["vectorized", ShardedBackend(num_workers=2)]

# Flooding moved into the library proper (it now has a vector twin); the
# equivalence matrix keeps exercising the same semantics via the import.
FloodMin = FloodMinimum


class BlobGossip(VertexAlgorithm):
    """Multi-word blobs both ways on every edge: stresses fragmentation."""

    def __init__(self, vertex, neighbors, n):
        super().__init__(vertex, neighbors, n)
        self._received = {}

    def on_round(self, round_index, inbox):
        for message in inbox:
            self._received[message.sender] = message.payload
        if round_index == 0:
            blob = tuple(range(12)) + (self.vertex,)
            return self.send_to_all_neighbors("blob", blob)
        if len(self._received) == len(self.neighbors):
            self.output = frozenset(self._received)
            self.halt()
        return []


class StaggeredEcho(VertexAlgorithm):
    """Vertices keep the edge queues busy at staggered times.

    Sends a vertex-dependent-size payload in a vertex-dependent round, so
    different edges are busy in different, overlapping windows — the case
    where per-edge FIFO order matters most.
    """

    def on_round(self, round_index, inbox):
        my_round = 1 + self.vertex % 3
        if round_index == my_round:
            size = 2 + self.vertex % 5
            return self.send_to_all_neighbors("echo", tuple(range(size)))
        if round_index > 30:
            self.output = round_index
            self.halt()
        return []


ALGORITHMS = [FloodMin, BlobGossip, StaggeredEcho, NeighborhoodExchangeTriangles]


def workload_graphs():
    return [
        pytest.param(name, graph, id=name)
        for name, graph in engine_workload_graphs()
    ]


def run_signature(run):
    """The facts all backends must agree on."""
    return {
        "rounds": run.rounds,
        "messages": run.metrics.messages,
        "words": run.metrics.words,
        "halted": run.halted,
        "outputs": run.outputs,
        "combined": run.combined_output(),
        "phase_rounds": dict(run.metrics.phase_rounds),
    }


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.__name__)
@pytest.mark.parametrize("graph_name,graph", workload_graphs())
def test_fast_backends_match_reference(algorithm, graph_name, graph):
    reference = run_signature(
        run_algorithm(graph, algorithm, backend="reference", max_rounds=5000)
    )
    for backend in FAST_BACKENDS:
        candidate = run_signature(
            run_algorithm(graph, algorithm, backend=backend, max_rounds=5000)
        )
        assert candidate == reference, f"{backend} diverged on {graph_name}"


@pytest.mark.parametrize(
    "scenario",
    [
        LinkDropScenario(drop_probability=0.15, seed=21),
        AdversarialDelayScenario(stall_period=4, seed=2),
    ],
    ids=["link-drop", "adversarial-delay"],
)
def test_fast_backends_match_reference_under_faults(scenario):
    graph = erdos_renyi(30, 8.0, seed=9)
    for algorithm in [FloodMin, BlobGossip]:
        reference = run_signature(
            run_algorithm(
                graph, algorithm, backend="reference", scenario=scenario,
                max_rounds=5000,
            )
        )
        for backend in FAST_BACKENDS:
            candidate = run_signature(
                run_algorithm(
                    graph, algorithm, backend=backend, scenario=scenario,
                    max_rounds=5000,
                )
            )
            assert candidate == reference, f"{backend} diverged under {scenario.describe()}"


@pytest.mark.parametrize("backend", ["reference", "vectorized", "sharded"])
def test_triangle_listing_is_correct_on_every_backend(backend, tiny_triangle_graph):
    report = validate_on_engine(
        tiny_triangle_graph, NeighborhoodExchangeTriangles, p=3, backend=backend
    )
    assert report.correct
    assert report.listed == len(enumerate_cliques(tiny_triangle_graph, 3))


def test_sharded_worker_counts_are_equivalent():
    graph = erdos_renyi(24, 6.0, seed=4)
    reference = run_signature(
        run_algorithm(graph, BlobGossip, backend="reference", max_rounds=2000)
    )
    for workers in [1, 2, 3, 5]:
        backend = ShardedBackend(num_workers=workers)
        candidate = run_signature(
            run_algorithm(graph, BlobGossip, backend=backend, max_rounds=2000)
        )
        assert candidate == reference, f"num_workers={workers} diverged"


def test_self_loops_agree_with_reference():
    """Regression: a self-loop is one directed queue, not two edge ids."""
    graph = nx.path_graph(4)
    graph.add_edge(0, 0)
    graph.add_edge(2, 2)
    reference = run_signature(
        run_algorithm(graph, BlobGossip, backend="reference", max_rounds=2000)
    )
    for backend in FAST_BACKENDS:
        candidate = run_signature(
            run_algorithm(graph, BlobGossip, backend=backend, max_rounds=2000)
        )
        assert candidate == reference, f"{backend} diverged on self-loops"


def test_constructor_halted_vertices_agree_with_reference():
    """Regression: vertices halted at construction must not cost a round."""

    class BornDone(VertexAlgorithm):
        def __init__(self, vertex, neighbors, n):
            super().__init__(vertex, neighbors, n)
            self.output = vertex
            self.halt()

        def on_round(self, round_index, inbox):
            return []

    graph = nx.path_graph(6)
    reference = run_signature(
        run_algorithm(graph, BornDone, backend="reference", max_rounds=100)
    )
    assert reference["rounds"] == 0
    for backend in FAST_BACKENDS:
        candidate = run_signature(
            run_algorithm(graph, BornDone, backend=backend, max_rounds=100)
        )
        assert candidate == reference, f"{backend} diverged on halted factories"


def test_truncated_runs_agree_on_partial_accounting():
    """Hitting max_rounds mid-transfer must leave identical metrics."""
    graph = erdos_renyi(20, 8.0, seed=6)
    for cap in [2, 5, 9]:
        reference = run_signature(
            run_algorithm(graph, BlobGossip, backend="reference", max_rounds=cap)
        )
        assert not reference["halted"]
        for backend in FAST_BACKENDS:
            candidate = run_signature(
                run_algorithm(graph, BlobGossip, backend=backend, max_rounds=cap)
            )
            assert candidate == reference, f"{backend} diverged at cap {cap}"
