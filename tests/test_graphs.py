"""Tests of the graph substrate: generators, properties, clique enumeration."""

import math

import networkx as nx
import pytest

from repro.graphs import (
    canonical_clique,
    clustered_communities,
    conductance_of_cut,
    count_cliques,
    degree_statistics,
    deterministic_seed,
    enumerate_cliques,
    erdos_renyi,
    expander_like,
    graph_conductance_estimate,
    mixing_time_estimate,
    planted_cliques,
    power_law,
    ring_of_cliques,
    spectral_gap,
    volume,
)


class TestGenerators:
    def test_vertices_are_contiguous_integers(self):
        for graph in (
            erdos_renyi(30, 5.0, seed=1),
            planted_cliques(30, 4, 3, seed=1),
            clustered_communities(3, 10, seed=1),
            power_law(30, seed=1),
            ring_of_cliques(4, 5),
            expander_like(30, 6, seed=1),
        ):
            assert sorted(graph.nodes) == list(range(graph.number_of_nodes()))

    def test_generators_are_deterministic(self):
        first = erdos_renyi(50, 6.0, seed=9)
        second = erdos_renyi(50, 6.0, seed=9)
        assert set(first.edges) == set(second.edges)
        assert set(erdos_renyi(50, 6.0, seed=10).edges) != set(first.edges)

    def test_planted_cliques_contain_cliques(self):
        graph = planted_cliques(40, 5, 4, background_avg_degree=2.0, seed=2)
        assert count_cliques(graph, 5) >= 1

    def test_planted_clique_size_validation(self):
        with pytest.raises(ValueError):
            planted_cliques(20, 1, 2)

    def test_ring_of_cliques_exact_triangle_count(self):
        graph = ring_of_cliques(5, 5)
        # Each K5 contains C(5,3)=10 triangles; connecting edges add none.
        assert count_cliques(graph, 3) == 5 * 10

    def test_expander_like_is_regular(self):
        graph = expander_like(40, degree=6, seed=0)
        degrees = {d for _, d in graph.degree()}
        assert degrees == {6}

    def test_deterministic_seed_stable(self):
        assert deterministic_seed("a", 1) == deterministic_seed("a", 1)
        assert deterministic_seed("a", 1) != deterministic_seed("a", 2)


class TestProperties:
    def test_volume_is_degree_sum(self):
        graph = nx.path_graph(4)
        assert volume(graph, [0, 1]) == 1 + 2

    def test_conductance_of_trivial_cut_is_infinite(self):
        graph = nx.complete_graph(4)
        assert conductance_of_cut(graph, set()) == math.inf
        assert conductance_of_cut(graph, set(graph.nodes)) == math.inf

    def test_conductance_of_balanced_cut_in_clique(self):
        graph = nx.complete_graph(6)
        value = conductance_of_cut(graph, {0, 1, 2})
        assert value == pytest.approx(9 / 15)

    def test_spectral_gap_complete_vs_path(self):
        assert spectral_gap(nx.complete_graph(20)) > spectral_gap(nx.path_graph(20))

    def test_conductance_estimate_detects_bottleneck(self):
        barbell = nx.barbell_graph(10, 0)
        expander = nx.complete_graph(20)
        assert graph_conductance_estimate(barbell) < graph_conductance_estimate(expander)

    def test_disconnected_graph_has_zero_gap(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        assert spectral_gap(graph) == 0.0
        assert mixing_time_estimate(graph) == math.inf

    def test_mixing_time_smaller_for_expanders(self):
        assert mixing_time_estimate(nx.complete_graph(30)) < mixing_time_estimate(
            nx.cycle_graph(30)
        )

    def test_degree_statistics(self):
        graph = nx.star_graph(5)  # center degree 5, leaves degree 1
        stats = degree_statistics(graph)
        assert stats.minimum == 1
        assert stats.maximum == 5
        assert stats.average == pytest.approx(10 / 6)
        assert stats.as_dict()["max"] == 5


class TestCliqueEnumeration:
    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cliques(nx.complete_graph(3), 0)

    def test_small_sizes(self):
        graph = nx.complete_graph(4)
        assert enumerate_cliques(graph, 1) == {(0,), (1,), (2,), (3,)}
        assert len(enumerate_cliques(graph, 2)) == 6

    def test_complete_graph_counts_match_binomials(self):
        graph = nx.complete_graph(7)
        assert count_cliques(graph, 3) == math.comb(7, 3)
        assert count_cliques(graph, 4) == math.comb(7, 4)
        assert count_cliques(graph, 5) == math.comb(7, 5)

    def test_matches_networkx_triangle_count(self, small_dense_graph):
        expected = sum(nx.triangles(small_dense_graph).values()) // 3
        assert count_cliques(small_dense_graph, 3) == expected

    def test_cliques_are_canonical_and_really_cliques(self, planted_graph):
        for clique in enumerate_cliques(planted_graph, 4):
            assert clique == canonical_clique(clique)
            for u in clique:
                for v in clique:
                    if u != v:
                        assert planted_graph.has_edge(u, v)

