"""Distributed listing correctness: engine-executed output equals ground truth.

The property under test is the headline guarantee of Theorems 32/36, now on
the *execution* path: running the recursive listing pipeline as real
per-vertex messages through the engine — on any backend and under any
delivery scenario — returns exactly the ``K_p`` set that centralized
enumeration (``nx.enumerate_all_cliques``) produces.
"""

import itertools
import re

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    AdversarialDelayScenario,
    ComposedScenario,
    LinkDropScenario,
    ShardedBackend,
)
from repro.engine.scenarios import resolve_scenario
from repro.experiments import Session
from repro.graphs import enumerate_cliques, erdos_renyi, planted_cliques
from repro.listing import (
    list_cliques_distributed,
    list_triangles_distributed,
    validate_distributed_listing,
)
from repro.listing import distributed
from repro.listing.distributed import add_edge_learning, plan_two_hop_protocol

BACKENDS = ["reference", "vectorized", "sharded"]

SCENARIOS = [
    pytest.param(None, id="clean"),
    pytest.param(LinkDropScenario(drop_probability=0.15, seed=21), id="link-drop"),
    pytest.param(AdversarialDelayScenario(stall_period=4, seed=2), id="adversarial-delay"),
]


def nx_triangle_truth(graph: nx.Graph) -> set:
    """Triangle ground truth via networkx's clique enumeration."""
    return {
        tuple(sorted(clique))
        for clique in nx.enumerate_all_cliques(graph)
        if len(clique) == 3
    }


def nx_clique_truth(graph: nx.Graph, p: int) -> set:
    return {
        tuple(sorted(clique))
        for clique in nx.enumerate_all_cliques(graph)
        if len(clique) == p
    }


# ---------------------------------------------------------------------------
# Property-based: random graphs, random backend, random scenario
# ---------------------------------------------------------------------------


@st.composite
def small_graphs(draw, max_vertices=12):
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edge for edge, keep in zip(possible, mask) if keep)
    return graph


@given(
    small_graphs(),
    st.sampled_from(BACKENDS),
    st.sampled_from(["clean", "link-drop", "adversarial-delay"]),
    st.integers(min_value=0, max_value=7),
)
@settings(max_examples=25, deadline=None)
def test_distributed_triangles_match_nx_ground_truth(graph, backend, scenario_name, seed):
    if scenario_name == "link-drop":
        scenario = LinkDropScenario(drop_probability=0.2, seed=seed)
    elif scenario_name == "adversarial-delay":
        scenario = AdversarialDelayScenario(stall_period=3 + seed % 3, seed=seed)
    else:
        scenario = None
    result = list_triangles_distributed(graph, backend=backend, scenario=scenario)
    assert result.cliques == nx_triangle_truth(graph)


@given(small_graphs(max_vertices=10), st.integers(min_value=4, max_value=5))
@settings(max_examples=15, deadline=None)
def test_distributed_kp_matches_nx_ground_truth(graph, p):
    result = list_cliques_distributed(graph, p, backend="vectorized")
    assert result.cliques == nx_clique_truth(graph, p)


# ---------------------------------------------------------------------------
# Seeded matrix: every backend x every scenario on fixed workload graphs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_distributed_listing_exact_on_every_backend_and_scenario(backend, scenario):
    graph = planted_cliques(40, 4, 4, background_avg_degree=3.0, seed=5)
    result = list_triangles_distributed(graph, backend=backend, scenario=scenario)
    assert result.cliques == nx_triangle_truth(graph)
    report = validate_distributed_listing(graph, result)
    assert report.ok, report.summary()


def test_backends_agree_on_distributed_execution_signature():
    """All backends must measure identical rounds/messages/words per execution."""
    graph = erdos_renyi(36, 8.0, seed=9)
    signatures = {}
    for backend in BACKENDS:
        result = list_triangles_distributed(graph, backend=backend)
        signatures[backend] = [
            (e.level, e.cluster_index, e.rounds, e.messages, e.words, e.halted)
            for e in result.executions
        ]
        assert result.cliques == nx_triangle_truth(graph)
    assert signatures["vectorized"] == signatures["reference"]
    assert signatures["sharded"] == signatures["reference"]


def test_distributed_listing_survives_faults_with_bounded_stretch():
    """Faulty delivery slows rounds but never changes the listed set."""
    graph = planted_cliques(50, 4, 5, background_avg_degree=3.0, seed=13)
    truth = nx_triangle_truth(graph)
    clean = list_triangles_distributed(graph, backend="vectorized")
    delayed = list_triangles_distributed(
        graph, backend="vectorized",
        scenario=AdversarialDelayScenario(stall_period=4, seed=3),
    )
    assert clean.cliques == truth
    assert delayed.cliques == truth
    # The adversary stalls each edge once per period: bounded stretch, and
    # it can only slow the execution down.
    assert delayed.measured_rounds >= clean.measured_rounds
    assert delayed.measured_rounds <= 4 * clean.measured_rounds + 16


def _per_vertex_plan(p: int):
    """Listers 0 and 4 on two K4s sharing a triangle; owner 6 learns the K4
    {1, 2, 3, 4} it is not part of (relayed through 4 and 5) plus one edge of
    its own; 7, 8 and 9 are idle."""
    graph = nx.Graph()
    graph.add_edges_from(itertools.combinations([0, 1, 2, 3], 2))
    graph.add_edges_from([(4, 1), (4, 2), (4, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)])
    owner_edges = {6: set(itertools.combinations([1, 2, 3, 4], 2)) | {(6, 7)}}
    plan = plan_two_hop_protocol(graph, [0, 4], p)
    add_edge_learning(plan, owner_edges)
    return plan, owner_edges


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("p", [3, 4])
def test_each_vertex_outputs_exactly_its_own_cliques(backend, p):
    plan, owner_edges = _per_vertex_plan(p)
    run = Session().execute(plan.graph, plan.factory(), backend=backend)
    assert run.halted
    truth = enumerate_cliques(plan.graph, p)
    idle = sorted(v for v, vertex_plan in plan.plans.items() if vertex_plan.idle())
    assert idle == [7, 8, 9]
    for vertex, vertex_plan in plan.plans.items():
        expected = set()
        if vertex_plan.is_lister:
            expected |= {clique for clique in truth if vertex in clique}
        if vertex in owner_edges:
            learned = enumerate_cliques(nx.Graph(list(owner_edges[vertex])), p)
            assert learned and all(vertex not in clique for clique in learned)
            expected |= learned
        assert run.outputs[vertex] == expected, vertex
    assert plan.plans[6].expected_edges == 6 and plan.demands == 6


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "scenario",
    [
        "crash-vertices",
        "byzantine-vertices",
        "adaptive-crash",
        ComposedScenario.overlay("link-drop", "crash-vertices"),
    ],
    ids=["crash-vertices", "byzantine-vertices", "adaptive-crash", "composed"],
)
def test_vertex_fault_scenarios_are_refused_before_any_work(backend, scenario, monkeypatch):
    """The protocol waits on every expected reply, so it takes delivery
    scenarios only: the driver refuses a vertex-fault scenario up front
    instead of spinning to its round cap."""

    def no_recursion(*args, **kwargs):
        raise AssertionError("the driver decomposed under a vertex-fault scenario")

    monkeypatch.setattr(distributed, "RecursiveListingDriver", no_recursion)
    graph = planted_cliques(60, 4, 3, background_avg_degree=3.0, seed=2)
    named = re.escape(resolve_scenario(scenario).describe())
    with pytest.raises(ValueError, match=f"delivery scenarios only; {named}"):
        list_cliques_distributed(graph, 3, backend=backend, scenario=scenario)


def test_distributed_kp_on_fixed_graph_across_backends():
    graph = planted_cliques(40, 5, 4, background_avg_degree=3.0, seed=11)
    truth = nx_clique_truth(graph, 4)
    for backend in BACKENDS:
        result = list_cliques_distributed(graph, 4, backend=backend)
        assert result.cliques == truth, backend


@pytest.mark.parametrize(
    "backend",
    ["reference", "vectorized", "sharded", ShardedBackend(num_workers=2)],
    ids=["reference", "vectorized", "sharded", "sharded-forked"],
)
@pytest.mark.parametrize("p", [3, 4])
def test_fallback_pass_alone_lists_every_clique(backend, p):
    """With the recursion capped at zero levels, the engine-executed
    fallback covers every edge in one exhaustive pass."""
    graph = planted_cliques(60, 4, 3, background_avg_degree=3.0, seed=2)
    result = list_cliques_distributed(graph, p, backend=backend, max_levels=0)
    assert result.cliques == set(enumerate_cliques(graph, p))
    assert result.fallback_edges == graph.number_of_edges()
    (record,) = result.executions
    assert record.is_fallback
    assert record.rounds <= record.predicted_rounds
    assert result.measured_rounds <= result.predicted_rounds
