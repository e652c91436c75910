"""Tests of the baseline algorithms (naive, randomized, DLP12, CS20)."""

import networkx as nx
import pytest

from repro import list_triangles, validate_listing
from repro.baselines import congested_clique
from repro.baselines import (
    congested_clique_listing,
    cs20_triangle_listing,
    naive_listing,
    randomized_partition_listing,
)
from repro.congest.cost import unit_overhead
from repro.graphs import enumerate_cliques, erdos_renyi, planted_cliques


class TestNaiveBaseline:
    def test_correct_for_triangles_and_k4(self, planted_graph):
        for p in (3, 4):
            result = naive_listing(planted_graph, p=p)
            assert result.cliques == enumerate_cliques(planted_graph, p)

    def test_rounds_track_max_degree(self):
        sparse = erdos_renyi(60, 4.0, seed=1)
        dense = erdos_renyi(60, 30.0, seed=1)
        assert naive_listing(dense).rounds > naive_listing(sparse).rounds


class TestRandomizedBaseline:
    def test_correct_listing(self, planted_graph):
        result, _ = randomized_partition_listing(planted_graph, p=3, seed=1)
        assert result.cliques == enumerate_cliques(planted_graph, 3)

    def test_correct_for_k4(self, small_dense_graph):
        result, _ = randomized_partition_listing(small_dense_graph, p=4, seed=1)
        assert result.cliques == enumerate_cliques(small_dense_graph, 4)

    def test_balance_report_reasonable(self, small_dense_graph):
        _, report = randomized_partition_listing(small_dense_graph, p=3, seed=3)
        assert report.x >= 2
        assert report.max_pair_edges >= 0
        assert report.balance_ratio >= 1.0 or report.max_pair_edges == 0

    def test_empty_graph(self):
        result, report = randomized_partition_listing(nx.empty_graph(5), p=3)
        assert result.cliques == set()
        assert report.x == 0

    def test_different_seeds_same_cliques(self, planted_graph):
        first, _ = randomized_partition_listing(planted_graph, p=3, seed=1)
        second, _ = randomized_partition_listing(planted_graph, p=3, seed=2)
        assert first.cliques == second.cliques


class TestCongestedCliqueBaseline:
    def test_correct_listing(self, planted_graph, monkeypatch):
        # In one kernel pass, then in one pass per part tuple.
        for pass_edges in (congested_clique._PASS_EDGES, 1):
            monkeypatch.setattr(congested_clique, "_PASS_EDGES", pass_edges)
            for p in (3, 4):
                result, _ = congested_clique_listing(planted_graph, p=p)
                assert result.cliques == enumerate_cliques(planted_graph, p)

    def test_round_count_much_smaller_than_congest(self, small_dense_graph):
        """The Congested Clique has n^2 links, so the same listing is far cheaper."""
        clique_result, _ = congested_clique_listing(small_dense_graph, p=3)
        congest_result = list_triangles(small_dense_graph)
        assert clique_result.rounds < congest_result.rounds

    def test_report_fields(self, small_dense_graph):
        _, report = congested_clique_listing(small_dense_graph, p=3)
        assert report.groups <= report.x + 1
        assert report.tuples > 0
        assert report.theoretical_rounds > 0

    def test_empty_graph(self):
        result, report = congested_clique_listing(nx.empty_graph(0), p=3)
        assert result.cliques == set()
        assert report.tuples == 0


class TestCS20Baseline:
    def test_correct_listing(self, planted_graph):
        result = cs20_triangle_listing(planted_graph)
        assert result.cliques == enumerate_cliques(planted_graph, 3)

    def test_grows_faster_than_new_algorithm_on_dense_graphs(self):
        """The headline separation: n^{2/3} (CS20) versus n^{1/3} (the paper).

        At benchmark-scale ``n`` the absolute totals are dominated by shared
        additive ``n^{o(1)}`` terms (decomposition), so the separation shows
        up in the *growth* of the per-level cluster-listing cost.
        """

        def cluster_rounds(result):
            return sum(report.max_cluster_rounds for report in result.level_reports)

        small_n, large_n = 100, 400
        small_graph = erdos_renyi(small_n, 0.3 * small_n, seed=4)
        large_graph = erdos_renyi(large_n, 0.3 * large_n, seed=4)
        old_small = cs20_triangle_listing(small_graph, overhead=unit_overhead())
        old_large = cs20_triangle_listing(large_graph, overhead=unit_overhead())
        new_small = list_triangles(small_graph, overhead=unit_overhead())
        new_large = list_triangles(large_graph, overhead=unit_overhead())
        assert old_large.cliques == new_large.cliques
        old_growth = cluster_rounds(old_large) / max(1, cluster_rounds(old_small))
        new_growth = cluster_rounds(new_large) / max(1, cluster_rounds(new_small))
        assert old_growth > new_growth

    def test_correct_on_communities(self, community_graph):
        result = cs20_triangle_listing(community_graph)
        assert validate_listing(community_graph, result).correct
