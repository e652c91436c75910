"""Tests of communication clusters (Definitions 7, 15, 24) and cluster routing."""

import networkx as nx
import numpy as np
import pytest

from repro.congest.cost import CostAccountant, unit_overhead
from repro.decomposition.cluster import (
    CommunicationCluster,
    K3CompatibleCluster,
    KpCompatibleCluster,
    build_communication_cluster,
    core_vertices,
)
from repro.decomposition.routing import ClusterRouter
from repro.graphs import LabelCSR, clustered_communities, erdos_renyi
from repro.listing.cliques import CliqueListing
from repro.partition_trees import SplitGraph


def _whole_graph_cluster(graph, delta):
    return build_communication_cluster(graph, graph.edges, delta=delta)


class TestCoreConstructions:
    def test_core_vertices_majority_rule(self):
        # Vertex 0 has 3 edges inside the "cluster" {0,1,2,3} and 1 outside.
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        cluster_edges = [(0, 1), (0, 2), (0, 3), (1, 2)]
        index, cluster = LabelCSR.from_graph(graph), LabelCSR.from_edges(cluster_edges)
        total = index.degrees[index.ids(cluster.labels)]
        core = set(cluster.label_array[core_vertices(cluster.degrees, total)].tolist())
        assert 0 in core
        assert 1 in core and 2 in core
        assert 4 not in core


class TestCommunicationCluster:
    def test_v_minus_respects_delta(self, small_dense_graph):
        cluster = _whole_graph_cluster(small_dense_graph, delta=5)
        cluster.validate()
        for vertex in cluster.v_minus:
            assert cluster.communication_degree(vertex) >= 5

    def test_notation_sizes(self, small_dense_graph):
        cluster = _whole_graph_cluster(small_dense_graph, delta=1)
        assert cluster.n == small_dense_graph.number_of_nodes()
        assert cluster.big_k == small_dense_graph.number_of_nodes()
        assert cluster.k == len(cluster.v_minus)

    def test_v_star_has_at_least_half_average_degree(self, small_dense_graph):
        cluster = _whole_graph_cluster(small_dense_graph, delta=3)
        mu = cluster.mu
        for vertex in cluster.v_star:
            assert cluster.communication_degree(vertex) >= mu / 2

    def test_v_star_volume_at_least_half(self, small_dense_graph):
        """The counting argument inside Lemma 20: Vol(V*) >= Vol(V^-)/2."""
        cluster = _whole_graph_cluster(small_dense_graph, delta=3)
        star_volume = sum(cluster.communication_degree(v) for v in cluster.v_star)
        total_volume = sum(cluster.communication_degree(v) for v in cluster.v_minus)
        assert star_volume * 2 >= total_volume

    def test_mu_and_v_star_follow_their_per_vertex_definitions(self):
        """Core degrees 10, 9, 3 and 2 (the pendants fall below δ = 2):
        μ = 6, and vertex 2 sits exactly at μ/2, so it is in ``V_C^*`` and
        vertex 3 is not."""
        edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)]
        edges += [(0, 10 + i) for i in range(7)] + [(1, 20 + i) for i in range(7)]
        cluster = _whole_graph_cluster(nx.Graph(edges), delta=2)
        degree = cluster.communication_degree
        mu = sum(degree(v) for v in cluster.v_minus) / len(cluster.v_minus)
        assert cluster.mu == mu == 6.0
        assert cluster.v_star == {v for v in cluster.v_minus if degree(v) >= mu / 2}
        assert cluster.v_star == {0, 1, 2} and degree(2) == mu / 2

    def test_ordered_members_sorted(self, small_dense_graph):
        cluster = _whole_graph_cluster(small_dense_graph, delta=3)
        members = cluster.ordered_members()
        assert members == sorted(members)

    def test_low_degree_partition(self, small_dense_graph):
        cluster = _whole_graph_cluster(small_dense_graph, delta=1000)
        assert cluster.k == 0
        assert cluster.v_low == frozenset(small_dense_graph.nodes)


class TestK3CompatibleCluster:
    def test_delta_is_cube_root_of_cluster_size(self, small_dense_graph):
        cluster = K3CompatibleCluster.from_edges(small_dense_graph, small_dense_graph.edges)
        assert cluster.delta == pytest.approx(cluster.big_k ** (1 / 3))


class TestKpCompatibleCluster:
    def test_requires_p_above_three(self, small_dense_graph):
        with pytest.raises(ValueError):
            KpCompatibleCluster.from_edges(small_dense_graph, small_dense_graph.edges, p=3)

    @staticmethod
    def _split(graph):
        """A cluster of the first 30 vertices and its split graph."""
        edges = [e for e in graph.edges if e[0] < 30 and e[1] < 30]
        cluster = KpCompatibleCluster.from_edges(graph, edges, p=4, delta=2)
        index = LabelCSR.from_graph(graph)
        return cluster, SplitGraph.from_index(index, index.ids(cluster.ordered_members()))

    def test_boundary_edges_point_into_v_minus(self, community_graph):
        """``E_bar``, the split graph's ``E_12``: every edge of ``G`` with
        exactly one end in ``V_C^-``, that end below ``k``."""
        cluster, split = self._split(community_graph)
        keys = split.edges_between(split.v1, split.v2)
        assert keys.size > 0
        boundary = set()
        for inner, outer in zip(*np.divmod(keys, split.n)):
            assert inner < split.k <= outer
            head, tail = split.index.labels[inner], split.index.labels[outer]
            assert head in cluster.v_minus and tail not in cluster.v_minus
            assert community_graph.has_edge(tail, head)
            boundary.add(frozenset((tail, head)))
        assert boundary == {
            frozenset(e) for e in community_graph.edges
            if (e[0] in cluster.v_minus) != (e[1] in cluster.v_minus)
        }

    def test_split_graph_parts_cover_all_vertices(self, community_graph):
        cluster, split = self._split(community_graph)
        v1, v2 = (set(split.index.labels[lo : hi + 1]) for lo, hi in (split.v1, split.v2))
        assert v1 == cluster.v_minus
        assert v1 | v2 == set(community_graph.nodes)
        assert not v1 & v2

    def test_imports_are_charged_by_the_outside_neighbourhood(self, community_graph):
        """Lemma 43 ships ``E'``, the edges among the outside neighbours of
        ``V_C^-``, each to the lowest ``V_C^-`` neighbour of its smaller end;
        Lemma 45 broadcasts one ``deg*`` value per outside neighbour."""
        cluster, split = self._split(community_graph)
        inside = cluster.v_minus
        outside = {u for v in inside for u in community_graph[v]} - inside
        e_prime = list(community_graph.subgraph(outside).edges)
        holders = [min(set(community_graph[min(e)]) & inside) for e in e_prime]
        assert e_prime and len(set(holders)) > 1

        class Charges:
            def __init__(self):
                self.calls = []

            def direct(self, **charge):
                self.calls.append(charge)

            def broadcast(self, **charge):
                self.calls.append(charge)

        charges = Charges()
        CliqueListing._import_outside_edges(split, charges)
        assert charges.calls == [
            dict(
                max_sent=max(len(set(community_graph[v]) & outside) for v in outside),
                max_received=max(holders.count(h) for h in holders),
                total_words=len(e_prime), phase="lemma43-import",
            ),
            dict(total_words=len(outside), phase="lemma45-degstar"),
        ]


class TestClusterRouter:
    def _router(self, graph, delta=3):
        cluster = _whole_graph_cluster(graph, delta=delta)
        accountant = CostAccountant(n=graph.number_of_nodes(), overhead=unit_overhead())
        return ClusterRouter(cluster=cluster, accountant=accountant)

    def test_route_rounds_scale_with_load(self, small_dense_graph):
        router = self._router(small_dense_graph)
        small = router.route(max_words_per_vertex=10)
        large = router.route(max_words_per_vertex=1000)
        assert large > small

    def test_route_proportional_ignores_degree_spread(self, small_dense_graph):
        router = self._router(small_dense_graph)
        assert router.route_proportional(load_per_degree=7) == 7

    def test_broadcast_and_chain_charge_rounds(self, small_dense_graph):
        router = self._router(small_dense_graph)
        before = router.accountant.metrics.rounds
        router.broadcast(total_words=50)
        router.chain_passes(passes=4, state_words=8)
        router.diameter_rounds()
        assert router.accountant.metrics.rounds > before

    def test_phase_prefixing(self, small_dense_graph):
        cluster = _whole_graph_cluster(small_dense_graph, delta=3)
        accountant = CostAccountant(n=40, overhead=unit_overhead())
        router = ClusterRouter(cluster=cluster, accountant=accountant, phase_prefix="abc")
        router.route(max_words_per_vertex=10, phase="xyz")
        assert any(key.startswith("abc:xyz") for key in accountant.metrics.phase_rounds)
