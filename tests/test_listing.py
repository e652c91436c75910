"""End-to-end tests of the deterministic listing algorithms (Theorems 32, 36)."""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import CliqueListing, TriangleListing, list_cliques, list_triangles, validate_listing
from repro.baselines import (
    congested_clique_listing,
    naive_listing,
    neighborhood_exchange_listing,
    randomized_partition_listing,
)
from repro.congest.cost import subpolynomial_overhead, unit_overhead
from repro.decomposition import expander
from repro.decomposition.expander import expander_decompose
from repro.experiments import Session
from repro.graphs import (
    LabelCSR,
    clustered_communities,
    enumerate_cliques,
    erdos_renyi,
    expander_like,
    planted_cliques,
    power_law,
    ring_of_cliques,
)
from repro.graphs import cliques
from repro.graphs.cliques import cliques_by_group, cliques_in_edge_set, cliques_through
from repro.listing import list_cliques_distributed
from repro.listing.local import (
    cliques_through_vertex,
    exhaustive_rounds_bound,
    two_hop_exhaustive_listing,
)


def nx_cliques(graph: nx.Graph, p: int, vertex=None) -> set:
    """``K_p`` of ``graph`` (through ``vertex`` when given), from networkx."""
    return {
        tuple(sorted(clique))
        for clique in nx.enumerate_all_cliques(graph)
        if len(clique) == p and (vertex is None or vertex in clique)
    }


@st.composite
def kernel_cases(draw, max_vertices=12):
    """A graph on ids up to ``2**40``, one of its vertices, an edge subset,
    and that subset listed in random orientation with repeats, each listed
    edge tagged with one of three edge sets."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    ids = draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n, unique=True))
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    graph.add_edges_from(pair for pair, kept in zip(pairs, keep) if kept)
    edges = list(graph.edges)
    in_subset = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    subset = [edge for edge, kept in zip(edges, in_subset) if kept]
    listed = subset + (draw(st.lists(st.sampled_from(subset), max_size=4)) if subset else [])
    flips = draw(st.lists(st.booleans(), min_size=len(listed), max_size=len(listed)))
    listed = [(w, u) if flip else (u, w) for (u, w), flip in zip(listed, flips)]
    tags = draw(st.lists(st.integers(0, 2), min_size=len(listed), max_size=len(listed)))
    return graph, draw(st.sampled_from(ids)), subset, listed, tags


class TestExhaustiveLocalListing:
    def test_rounds_bound_linear(self):
        assert exhaustive_rounds_bound(10) == 20
        assert exhaustive_rounds_bound(0) == 0

    def test_cliques_through_vertex_complete_graph(self):
        graph = nx.complete_graph(6)
        assert len(cliques_through_vertex(graph, 0, 3)) == 10  # C(5,2)
        assert len(cliques_through_vertex(graph, 0, 4)) == 10  # C(5,3)

    @given(case=kernel_cases(), p=st.integers(min_value=1, max_value=5))
    @example(case=(nx.empty_graph(3), 1, [], [], []), p=2)  # isolated vertex, empty S
    @example(case=(nx.empty_graph(3), 1, [], [], []), p=1)
    @example(
        case=(nx.complete_graph(4), 2, list(nx.complete_graph(4).edges), [(0, 1)], [0]), p=5
    )
    @settings(max_examples=150, deadline=None)
    def test_clique_kernel_matches_networkx(self, case, p):
        graph, vertex, subset, listed, tags = case
        assert cliques_through_vertex(graph, vertex, p) == nx_cliques(graph, p, vertex)
        adjacency = {u: set(graph[u]) for u in graph}
        assert cliques_through_vertex(adjacency, vertex, p) == nx_cliques(graph, p, vertex)
        # The kernel on id arrays: every K_p once, as increasing rows in
        # lexicographic order.
        us, ws = np.array(listed, dtype=np.int64).reshape(-1, 2).T
        rows = cliques_in_edge_set(us, ws, p)
        assert rows.dtype == np.int64 and rows.shape == (len(rows), p)
        assert (np.diff(rows, axis=1) > 0).all()
        assert rows.tolist() == sorted(map(list, nx_cliques(nx.Graph(subset), p)))
        # Edge sets batched in one call, set ``s``'s vertex ``v`` encoded
        # ``s * N + v``, list the union of the per-set calls, in order.
        tags = np.array(tags, dtype=np.int64)
        group, batched = cliques_by_group(tags, us, ws, 2**40 + 1, p)
        per_set = [cliques_in_edge_set(us[tags == s], ws[tags == s], p) for s in range(3)]
        assert batched.tolist() == np.concatenate(per_set).tolist()
        assert group.tolist() == [s for s, rows in enumerate(per_set) for _ in rows]
        # The cliques of an index through a marked vertex, an isolated one
        # included at p = 1.
        index = LabelCSR.from_graph(graph)
        marked = np.zeros(index.n, dtype=bool)
        marked[index.id_of[vertex]] = True
        through = set(index.label_rows(cliques_through(index.rows, index.indices, marked, p)))
        assert through == nx_cliques(graph, p, vertex)
        # Growing cliques in blocks of any size lists the same rows.
        with mock.patch.object(cliques, "_BLOCK_CANDIDATES", 1):
            assert cliques_in_edge_set(us, ws, p).tolist() == rows.tolist()

    def test_two_hop_covers_all_cliques_through_selected_vertices(self, planted_graph):
        vertices = list(planted_graph.nodes)[:20]
        outcome = two_hop_exhaustive_listing(planted_graph, vertices, p=3)
        expected = set()
        for vertex in vertices:
            expected |= cliques_through_vertex(planted_graph, vertex, 3)
        assert outcome.cliques == expected

    def test_empty_vertex_set(self, planted_graph):
        outcome = two_hop_exhaustive_listing(planted_graph, [], p=3)
        assert outcome.cliques == set()
        assert outcome.rounds == 0


class TestTriangleListingCorrectness:
    @pytest.mark.parametrize(
        "graph_builder",
        [
            lambda: erdos_renyi(70, 12.0, seed=1),
            lambda: planted_cliques(60, 4, 6, background_avg_degree=3.0, seed=2),
            lambda: clustered_communities(3, 20, intra_p=0.5, inter_p=0.03, seed=4),
            lambda: expander_like(60, degree=8, seed=5),
            lambda: power_law(60, avg_degree=6.0, seed=6),
            lambda: ring_of_cliques(6, 6),
        ],
        ids=["erdos-renyi", "planted", "communities", "expander", "power-law", "clique-ring"],
    )
    def test_lists_exactly_the_triangles(self, graph_builder):
        graph = graph_builder()
        report = validate_listing(graph, list_triangles(graph))
        assert report.correct, report.summary()

    def test_triangle_free_graph(self):
        graph = nx.cycle_graph(30)
        result = list_triangles(graph)
        assert result.cliques == set()

    def test_empty_and_tiny_graphs(self):
        empty = nx.empty_graph(5)
        assert list_triangles(empty).cliques == set()
        single_triangle = nx.complete_graph(3)
        assert list_triangles(single_triangle).cliques == {(0, 1, 2)}

    def test_deterministic_across_runs(self):
        graph = erdos_renyi(50, 10.0, seed=3)
        first = list_triangles(graph)
        second = list_triangles(graph)
        assert first.cliques == second.cliques
        assert first.rounds == second.rounds

    def test_constraint_checked_run(self):
        graph = erdos_renyi(60, 12.0, seed=9)
        result = TriangleListing(check_tree_constraints=True).run(graph)
        assert validate_listing(graph, result).correct


class TestTriangleListingAccounting:
    def test_rounds_positive_and_phases_recorded(self):
        graph = erdos_renyi(60, 12.0, seed=2)
        result = list_triangles(graph)
        assert result.rounds > 0
        assert any("decomposition" in phase for phase in result.metrics.phase_rounds)
        assert any("clusters" in phase for phase in result.metrics.phase_rounds)

    def test_level_reports_consistent(self):
        graph = clustered_communities(3, 20, seed=7)
        result = list_triangles(graph)
        assert result.levels == len(result.level_reports)
        for report in result.level_reports:
            assert report.residual_edges > 0
            assert 0 <= report.remainder_fraction <= 1

    def test_recursion_depth_logarithmic(self):
        graph = clustered_communities(4, 16, intra_p=0.5, inter_p=0.05, seed=1)
        result = list_triangles(graph)
        m = graph.number_of_edges()
        assert result.levels <= 2 * m.bit_length() + 4

    def test_overhead_model_affects_rounds(self):
        graph = erdos_renyi(60, 12.0, seed=2)
        cheap = TriangleListing(overhead=unit_overhead()).run(graph)
        costly = TriangleListing(overhead=subpolynomial_overhead()).run(graph)
        assert cheap.cliques == costly.cliques
        assert costly.rounds > cheap.rounds

    def test_duplication_factor_at_least_one(self):
        graph = planted_cliques(50, 4, 5, seed=8)
        result = list_triangles(graph)
        if result.cliques:
            assert result.duplication_factor >= 1.0


class TestKpListingCorrectness:
    @pytest.mark.parametrize("p", [4, 5])
    def test_lists_exactly_the_cliques_planted(self, p, planted_graph):
        report = validate_listing(planted_graph, list_cliques(planted_graph, p))
        assert report.correct, report.summary()

    @pytest.mark.parametrize("p", [4, 5])
    def test_lists_exactly_the_cliques_dense(self, p, small_dense_graph):
        report = validate_listing(small_dense_graph, list_cliques(small_dense_graph, p))
        assert report.correct, report.summary()

    def test_communities_k4(self, community_graph):
        report = validate_listing(community_graph, list_cliques(community_graph, 4))
        assert report.correct, report.summary()

    @pytest.mark.parametrize("p", [4, 5])
    @pytest.mark.parametrize("fixture", ["community_graph", "small_dense_graph"])
    def test_split_trees_meet_definition_22(self, fixture, p, request):
        """Every split tree the listing builds is checked against Definition 22
        (a violation raises), and the output stays exact."""
        graph = request.getfixturevalue(fixture)
        result = CliqueListing(p=p, check_tree_constraints=True).run(graph)
        assert result.cliques == enumerate_cliques(graph, p)

    def test_clique_free_graph(self):
        graph = nx.cycle_graph(20)
        assert list_cliques(graph, 4).cliques == set()

    def test_dispatch_to_triangles_for_p3(self, tiny_triangle_graph):
        result = list_cliques(tiny_triangle_graph, 3)
        assert result.p == 3
        assert result.cliques == enumerate_cliques(tiny_triangle_graph, 3)

    def test_p_below_four_rejected_by_clique_listing(self):
        with pytest.raises(ValueError):
            CliqueListing(p=3)

    def test_k6_on_small_graph(self):
        graph = planted_cliques(40, 6, 3, background_avg_degree=2.0, seed=5)
        report = validate_listing(graph, list_cliques(graph, 6))
        assert report.correct, report.summary()

    def test_deterministic_across_runs(self, planted_graph):
        first = list_cliques(planted_graph, 4)
        second = list_cliques(planted_graph, 4)
        assert first.cliques == second.cliques
        assert first.rounds == second.rounds


class TestKpListingAccounting:
    def test_rounds_positive(self, planted_graph):
        result = list_cliques(planted_graph, 4)
        assert result.rounds > 0

    def test_k4_cheaper_than_k5_on_same_graph(self, small_dense_graph):
        """The target complexity rises with p: n^{1/2} for K4 vs n^{3/5} for K5."""
        k4 = list_cliques(small_dense_graph, 4)
        k5 = list_cliques(small_dense_graph, 5)
        assert k4.rounds <= k5.rounds * 1.5  # allow slack: same order, not wildly apart


class TestValidationReport:
    def test_report_flags_missing_and_spurious(self, tiny_triangle_graph):
        result = list_triangles(tiny_triangle_graph)
        result.cliques.discard((0, 1, 2))
        result.cliques.add((0, 1, 4))  # not a triangle of the graph
        report = validate_listing(tiny_triangle_graph, result)
        assert not report.complete
        assert not report.sound
        assert "FAILED" in report.summary()


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(list_triangles, id="list_triangles"),
        pytest.param(lambda graph: CliqueListing(p=4).run(graph), id="CliqueListing-p4"),
        pytest.param(lambda graph: list_cliques_distributed(graph, 3), id="distributed-p3"),
        pytest.param(lambda graph: list_cliques_distributed(graph, 4), id="distributed-p4"),
        pytest.param(expander_decompose, id="expander_decompose"),
        pytest.param(congested_clique_listing, id="congested_clique_listing"),
        pytest.param(randomized_partition_listing, id="randomized_partition_listing"),
        pytest.param(naive_listing, id="naive_listing"),
        pytest.param(neighborhood_exchange_listing, id="neighborhood_exchange_listing"),
    ],
)
def test_a_self_loop_is_refused_where_the_edges_are_indexed(entry, monkeypatch):
    """``K_5`` plus ``(0, 0)`` used to list ``(0, 0, x)`` as triangles (the
    baselines listed 14 or 15 of its 10), and to spin the distributed
    ``p = 4`` protocol to its round cap.  Now indexing the edges refuses it,
    before any component search or engine round."""

    def never(*args, **kwargs):
        raise AssertionError("ran past the index of a graph with a self-loop")

    monkeypatch.setattr(expander, "connected_components", never)
    monkeypatch.setattr(Session, "execute", never)
    graph = nx.complete_graph(5)
    graph.add_edge(0, 0)
    with pytest.raises(ValueError, match="self-loop at vertex 0"):
        entry(graph)
