"""Tests of the deterministic expander decomposition (Theorem 5 substitute)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.cost import CostAccountant, unit_overhead
from repro.decomposition.expander import (
    decomposition_round_cost,
    expander_decompose,
    normalized_laplacian,
    recursive_decomposition_schedule,
    sparsest_sweep_cut,
)
from repro.graphs import (
    LabelCSR,
    clustered_communities,
    erdos_renyi,
    planted_cliques,
    ring_of_cliques,
)
from repro.graphs.properties import conductance_of_cut, graph_conductance_estimate, volume


class TestSweepCut:
    def test_trivial_graphs(self):
        empty_cut, value = sparsest_sweep_cut(LabelCSR.from_graph(nx.empty_graph(3)))
        assert not empty_cut.any()
        assert value == float("inf")

    def test_barbell_cut_separates_the_bells(self):
        graph = nx.barbell_graph(8, 0)
        cut, value = sparsest_sweep_cut(LabelCSR.from_graph(graph))
        assert value < 0.05
        assert cut.sum() == 8

    def test_clique_has_no_sparse_cut(self):
        _, value = sparsest_sweep_cut(LabelCSR.from_graph(nx.complete_graph(12)))
        assert value > 0.4


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(ring_of_cliques(4, 30), id="120-vertices"),
        pytest.param(
            planted_cliques(600, 5, 20, background_avg_degree=6.0, seed=3),
            id="600-vertices",
        ),
    ],
)
def test_index_laplacian_equals_networkx(graph):
    """Below and above the 400-vertex ``eigsh`` threshold, the Laplacian built
    from the index is networkx's, array for array."""
    built = normalized_laplacian(LabelCSR.from_graph(graph))
    expected = nx.normalized_laplacian_matrix(graph, nodelist=sorted(graph.nodes))
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(built, field), getattr(expected, field)), field


@st.composite
def connected_graphs(draw, max_vertices=12):
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    # A random spanning tree keeps the graph connected.
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    graph = nx.Graph(tree)
    graph.add_edges_from(pair for pair, kept in zip(pairs, keep) if kept)
    return graph


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_sweep_cut_is_the_first_best_fiedler_prefix(graph):
    """The cut is the first Fiedler-order prefix of least conductance, or its
    complement when that has the smaller volume; the order is computed here as
    the decomposition does for at most 400 vertices."""
    nodes = sorted(graph.nodes)
    laplacian = nx.normalized_laplacian_matrix(graph, nodelist=nodes).toarray()
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    fiedler = eigenvectors[:, np.argsort(eigenvalues)[1]]
    order = [nodes[i] for i in sorted(range(len(nodes)), key=lambda i: (fiedler[i], nodes[i]))]
    values = [conductance_of_cut(graph, order[: k + 1]) for k in range(len(order) - 1)]
    best = values.index(min(values))
    prefix = set(order[: best + 1])
    rest = set(nodes) - prefix
    expected = rest if volume(graph, rest) < volume(graph, prefix) else prefix

    index = LabelCSR.from_graph(graph)
    cut, value = sparsest_sweep_cut(index)
    assert value == values[best]
    assert set(index.label_array[cut].tolist()) == expected


class TestExpanderDecomposition:
    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            expander_decompose(nx.complete_graph(4), epsilon=0.0)

    @pytest.mark.parametrize("form", ["graph", "index"])
    def test_partition_of_edges_is_exact(self, community_graph, form):
        """The graph with isolated vertices added, and its index, decompose
        like the graph itself; no cluster holds an isolated vertex."""
        graph = community_graph.copy()
        isolated = [-1, max(graph) + 1, max(graph) + 2]
        graph.add_nodes_from(isolated)
        source = graph if form == "graph" else LabelCSR.from_graph(graph)
        decomposition = expander_decompose(source, epsilon=0.2)
        decomposition.validate()
        expected = expander_decompose(community_graph, epsilon=0.2)

        def content(decomposition):
            clusters = [
                (cluster.index, cluster.piece.labels, cluster.edges, cluster.conductance_lower_bound)
                for cluster in decomposition.clusters
            ]
            return clusters, decomposition.remainder_edges

        assert content(decomposition) == content(expected)
        assert not set(isolated) & set(decomposition.cluster_of_vertex())

    def test_clusters_are_vertex_disjoint(self, community_graph):
        decomposition = expander_decompose(community_graph, epsilon=0.2)
        seen = set()
        for cluster in decomposition.clusters:
            assert not (seen & cluster.vertices)
            seen |= cluster.vertices

    def test_remainder_fraction_small_on_community_graph(self, community_graph):
        decomposition = expander_decompose(community_graph, epsilon=0.2)
        assert decomposition.remainder_fraction() <= 0.2

    def test_expander_stays_whole(self, expander_graph):
        decomposition = expander_decompose(expander_graph, epsilon=0.15)
        assert decomposition.num_clusters == 1
        assert decomposition.remainder_fraction() == 0.0

    def test_clusters_have_certified_conductance(self, community_graph):
        decomposition = expander_decompose(community_graph, epsilon=0.2)
        for cluster in decomposition.clusters:
            if cluster.num_vertices < 3:
                continue
            measured = graph_conductance_estimate(cluster.subgraph())
            assert measured >= decomposition.phi * 0.5

    @pytest.mark.parametrize("label", [int, lambda i: f"v{i:03d}"], ids=["int", "str"])
    def test_clusters_are_numbered_by_smallest_label(self, label):
        """Sweep cuts find the ring's cliques in another order; the numbering
        follows their smallest labels alone."""
        graph = nx.relabel_nodes(ring_of_cliques(4, 30), label)
        decomposition = expander_decompose(graph)
        smallest = [min(cluster.vertices) for cluster in decomposition.clusters]
        assert [cluster.index for cluster in decomposition.clusters] == [0, 1, 2, 3]
        assert smallest == [label(i) for i in (0, 30, 60, 90)]

    def test_ring_of_cliques_splits_into_clusters(self):
        graph = ring_of_cliques(12, 8)
        decomposition = expander_decompose(graph, epsilon=0.3)
        assert decomposition.num_clusters >= 2
        assert decomposition.remainder_fraction() < 0.3

    def test_cluster_of_vertex_map(self, community_graph):
        decomposition = expander_decompose(community_graph, epsilon=0.2)
        mapping = decomposition.cluster_of_vertex()
        for cluster in decomposition.clusters:
            for vertex in cluster.vertices:
                assert mapping[vertex] == cluster.index

    def test_round_cost_charged_to_accountant(self):
        graph = erdos_renyi(40, 8.0, seed=1)
        accountant = CostAccountant(n=40, overhead=unit_overhead())
        expander_decompose(graph, epsilon=0.2, accountant=accountant)
        assert accountant.metrics.rounds > 0
        assert "expander-decomposition" in accountant.metrics.phase_rounds

    def test_decomposition_cost_is_subpolynomial(self):
        # The CS20 cost is n^{o(1)}: eventually below any fixed polynomial,
        # and its growth factor over a squared input is far below polynomial.
        assert decomposition_round_cost(10**12, 0.1) < (10**12) ** 0.5
        growth = decomposition_round_cost(10**8, 0.1) / decomposition_round_cost(10**4, 0.1)
        assert growth < (10**8 / 10**4) ** 0.5


class TestRecursiveSchedule:
    def test_schedule_terminates_and_shrinks(self, community_graph):
        levels = list(recursive_decomposition_schedule(community_graph, epsilon=0.2))
        assert levels
        sizes = [current.number_of_edges() for _, _, current in levels]
        assert all(later < earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_depth_is_logarithmic(self, community_graph):
        levels = list(recursive_decomposition_schedule(community_graph, epsilon=0.2))
        m = community_graph.number_of_edges()
        assert len(levels) <= 2 * (m.bit_length()) + 4
