"""Load-aware routing of edge-learning packets (``add_edge_learning``).

* Every route is a shortest path from an endpoint of the demanded edge at
  minimum distance to its owner, hop by hop over edges of the plan's
  index, and the per-vertex relay and receive counts are the tallies of
  the routes' hops (a hypothesis property over small plans, each also
  executed: the measured words are the plan's per-edge words).
* ``ClusterProtocolPlan.edge_words`` accounts for every word an execution
  measures, and its busiest edge is a lower bound on the execution's
  rounds, on every pinned case and a string-labelled graph, on both the
  vectorized and the reference backend.
* Two graphs on which one BFS tree per owner broke the round bound now
  stay within it: the smallest sizes found where it broke
  (``power_law(100, 24)`` and ``clustered_communities(6, 30, ...)`` did
  not).
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import Session
from repro.graphs import clustered_communities, planted_cliques, power_law
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.index import LabelCSR
from repro.listing import distributed
from repro.listing.distributed import (
    add_edge_learning,
    list_cliques_distributed,
    plan_two_hop_protocol,
)
from test_distributed_listing import learn_label_edges
from test_listing_pins import CASES, route_vertices


@st.composite
def small_plans(draw, max_vertices=12):
    """A small graph with some listers and per-owner demands that each
    owner can reach (edges of its component, its own edges included)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edge for edge, keep in zip(possible, mask) if keep)
    listers = draw(st.sets(st.sampled_from(range(n))))
    owner_edges = {}
    for owner in draw(st.sets(st.sampled_from(range(n)), max_size=4)):
        reach = nx.node_connected_component(graph, owner)
        edges = sorted(e for e in graph.edges if e[0] in reach)
        if edges:
            owner_edges[owner] = draw(st.sets(st.sampled_from(edges)))
    plan = plan_two_hop_protocol(LabelCSR.from_graph(graph), sorted(listers), 3)
    learn_label_edges(plan, owner_edges)
    return plan


@given(small_plans())
@settings(max_examples=60, deadline=None)
def test_routes_are_shortest_paths_from_a_nearest_endpoint(plan):
    index = plan.index
    relayed = np.zeros(index.n, dtype=np.int64)
    received = np.zeros(index.n, dtype=np.int64)
    for (u, w), route in zip(plan.route_edges.tolist(), route_vertices(plan)):
        owner = route[-1]
        distance = index.distances(np.array([owner]))[0]
        nearest = min(d for d in (distance[u], distance[w]) if d >= 0)
        assert route[0] in (u, w) and distance[route[0]] == nearest
        assert len(route) == nearest + 1
        for a, b in zip(route, route[1:]):
            row = index.indices[index.indptr[a] : index.indptr[a + 1]]
            assert b in row
        relayed[route[1:-1]] += 1
        received[owner] += 1
    assert plan.counts[:, distributed._RELAYED].tolist() == relayed.tolist()
    assert plan.counts[:, distributed._RECEIVED].tolist() == received.tolist()
    run = Session().execute(plan.index, plan.factory(), backend="vectorized")
    assert run.halted
    words = plan.edge_words()
    assert int(words.sum()) == run.metrics.words
    assert run.rounds >= int(words.max(initial=0))


def test_demand_rows_take_either_orientation_and_repeats():
    """``(owner, u, w)`` rows are demands on undirected edges: a reversed or
    repeated row compiles to the same plan as the canonical rows."""
    canonical, loose = (
        plan_two_hop_protocol(LabelCSR.from_graph(nx.path_graph(6)), [], 3) for _ in range(2)
    )
    add_edge_learning(canonical, np.array([[0, 4, 5], [5, 0, 1], [5, 1, 2]]))
    add_edge_learning(loose, np.array([[5, 2, 1], [5, 1, 0], [0, 5, 4], [5, 0, 1], [5, 1, 2]]))
    for name in ("route_slots", "route_ends", "route_edges", "preloaded", "counts"):
        assert np.array_equal(getattr(canonical, name), getattr(loose, name)), name
    assert canonical.route_edges.tolist() == [[4, 5], [0, 1], [1, 2]]
    assert sum(route_vertices(canonical), []) == [4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 2, 3, 4, 5]


def _named_planted():
    graph = planted_cliques(60, 4, 3, background_avg_degree=3.0, seed=2)
    return nx.relabel_nodes(graph, "v%03d".__mod__)


EDGE_WORD_CASES = dict(CASES, **{"string-labels-k3": (_named_planted, 3, lambda: None)})


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@pytest.mark.parametrize("case", list(EDGE_WORD_CASES))
def test_edge_words_account_for_every_measured_word(case, backend, monkeypatch):
    build, p, scenario = EDGE_WORD_CASES[case]
    plans = []
    execute = distributed.DistributedListingDriver._execute

    def capture(self, plan, *args, **kwargs):
        plans.append(plan)
        return execute(self, plan, *args, **kwargs)

    monkeypatch.setattr(distributed.DistributedListingDriver, "_execute", capture)
    result = list_cliques_distributed(build(), p, backend=backend, scenario=scenario())
    assert len(plans) == len(result.executions)
    for plan, execution in zip(plans, result.executions):
        words = plan.edge_words()
        assert words.shape == (plan.index.indices.size,)
        assert int(words.sum()) == execution.words
        assert execution.rounds >= int(words.max(initial=0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: power_law(120, avg_degree=24, seed=1),
        lambda: clustered_communities(6, 40, 0.4, 0.02, seed=1),
    ],
    ids=["power-law-120x24", "communities-6x40"],
)
def test_measured_rounds_stay_within_the_prediction(build):
    graph = build()
    result = list_cliques_distributed(graph, 3, backend="vectorized")
    assert result.cliques == enumerate_cliques(graph, 3)
    assert result.measured_rounds <= result.predicted_rounds
