"""``LabelCSR``: one label-sorted CSR per graph, checked against networkx.

Every query the planner reads off the index (degrees into an id range, the
edges between ranges, distances from roots, slots of directed edges) is
compared with a set-based or networkx computation of the same thing, over
int and string labels, isolated vertices and a disconnected graph.
"""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.graphs import LabelCSR, canonical_edge, power_law
from repro.graphs.index import edges_among


def _graphs():
    disconnected = nx.disjoint_union(nx.cycle_graph(5), nx.complete_graph(4))
    disconnected.add_nodes_from([20, 21])
    named = nx.relabel_nodes(power_law(60, avg_degree=6, seed=3), "v%02d".__mod__)
    return [
        pytest.param(power_law(120, avg_degree=8, seed=2), id="power-law"),
        pytest.param(disconnected, id="disconnected-isolated"),
        pytest.param(named, id="string-labels"),
    ]


def test_canonical_edge_puts_the_smaller_label_first():
    assert canonical_edge(5, 2) == canonical_edge(2, 5) == (2, 5)
    assert canonical_edge("b", "a") == ("a", "b")


@pytest.mark.parametrize("graph", _graphs())
def test_index_and_its_graph_are_in_label_order(graph):
    index = LabelCSR.from_graph(graph)
    assert list(index.labels) == sorted(graph.nodes)
    for vertex_id, vertex in enumerate(index.labels):
        row = index.indices[index.indptr[vertex_id] : index.indptr[vertex_id + 1]]
        assert [index.labels[i] for i in row.tolist()] == sorted(graph[vertex])
    built = index.graph
    assert list(built.nodes) == sorted(graph.nodes)
    assert all(list(built.adj[v]) == sorted(graph.adj[v]) for v in built)
    assert {canonical_edge(*e) for e in built.edges} == {
        canonical_edge(*e) for e in graph.edges
    }
    assert index.number_of_edges() == graph.number_of_edges()


def test_from_edges_takes_either_orientation_and_repeats():
    index = LabelCSR.from_edges([(3, 1), (1, 3), (2, 3), (3, 2)], vertices=[7])
    assert index.labels == (1, 2, 3, 7)
    assert index.degrees.tolist() == [1, 1, 2, 0]
    assert index.ids([7, 1]).tolist() == [3, 0]


def test_from_edges_names_the_vertex_of_a_self_loop():
    with pytest.raises(ValueError, match="self-loop at vertex 'b'"):
        LabelCSR.from_edges([("a", "b"), ("b", "b")])


@pytest.mark.parametrize("graph", _graphs())
def test_edge_subgraph_is_the_graph_of_its_edges(graph):
    index = LabelCSR.from_graph(graph)
    edges = list(graph.edges)[::3]
    ends = index.ids(v for edge in edges for v in edge).reshape(-1, 2)
    cut = index.edge_subgraph(ends[:, 1], ends[:, 0])
    expected = LabelCSR.from_edges(edges)
    assert cut.labels == expected.labels
    assert np.array_equal(cut.indptr, expected.indptr)
    assert np.array_equal(cut.indices, expected.indices)


@pytest.mark.parametrize("graph", _graphs())
def test_range_queries_match_set_counts(graph):
    index = LabelCSR.from_graph(graph)
    members = [v for v in index.labels if graph.degree(v) >= 2]
    core = index.induced(index.ids(members))
    assert list(core.labels) == members
    induced = graph.subgraph(members)
    k = len(members)
    for lo, hi in [(0, k - 1), (0, k // 3), (k // 3, 2 * k // 3), (k - 1, k - 1), (5, 4)]:
        part = set(members[lo : hi + 1])
        expected = [len(set(induced[v]) & part) for v in members]
        assert core.degrees_into(lo, hi).tolist() == expected
        right = set(members[k // 2 :])
        between = {
            canonical_edge(u, w)
            for u in part for w in induced[u] if w in right
        }
        keys = core.edges_between((lo, hi), (k // 2, k - 1))
        assert set(core.label_pairs(keys)) == between


@pytest.mark.parametrize("graph", _graphs())
def test_many_range_pairs_are_one_gather(graph):
    """Arrays of ranges give pair ``q`` the keys of its own call plus
    ``q * n^2``; ``edges_among`` gives each group its distinct edges between
    two of its ranges."""
    index = LabelCSR.from_graph(graph)
    n = index.n
    rows = [(0, n - 1), (n // 3, n // 2), (5, 4), (n - 1, n - 1), (0, 0), (0, n - 1)]
    columns = [(n // 2, n - 1), (0, n // 3), (0, n - 1), (0, n - 1), (0, n - 1), (n - 2, 1)]
    keys = index.edges_between(
        tuple(np.array(ends) for ends in zip(*rows)),
        tuple(np.array(ends) for ends in zip(*columns)),
    )
    expected = np.concatenate([
        q * n * n + index.edges_between(row, column)
        for q, (row, column) in enumerate(zip(rows, columns))
    ])
    assert keys.tolist() == expected.tolist()

    ranges = np.array([rows[:3], rows[2:5], [rows[0], columns[0], columns[5]]])
    groups, edges = edges_among(index, ranges)
    for g, group in enumerate(ranges):
        parts = [set(index.labels[lo : hi + 1]) for lo, hi in group]
        between = {
            canonical_edge(u, w)
            for first, second in itertools.combinations(parts, 2)
            for u in first for w in graph[u] if w in second
        }
        assert set(index.label_pairs(edges[groups == g])) == between
    assert np.all(np.diff(groups * n * n + edges) > 0)


@pytest.mark.parametrize("graph", _graphs())
def test_distances_match_networkx(graph):
    index = LabelCSR.from_graph(graph)
    roots = np.arange(0, index.n, 7)
    distances = index.distances(roots)
    assert distances.shape == (roots.size, index.n)
    for row, root in enumerate(roots.tolist()):
        distance = nx.single_source_shortest_path_length(graph, index.labels[root])
        expected = [distance.get(vertex, -1) for vertex in index.labels]
        assert distances[row].tolist() == expected


@pytest.mark.parametrize("graph", _graphs())
def test_slots_address_directed_edges(graph):
    index = LabelCSR.from_graph(graph)
    slots = index.slots(index.rows, index.indices)
    assert slots.tolist() == list(range(index.indices.size))
    reverse = index.reverse
    assert (index.rows[reverse] == index.indices).all()
    assert (index.indices[reverse] == index.rows).all()
    assert (reverse[reverse] == np.arange(index.indices.size)).all()


def test_empty_index():
    index = LabelCSR.from_edges([])
    assert index.n == 0 and index.number_of_edges() == 0
    assert index.graph.number_of_nodes() == 0
    assert index.induced(np.zeros(0, dtype=np.int64)).labels == ()
