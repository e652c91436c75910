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
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import AdversarialDelayScenario, ComposedScenario, LinkDropScenario
from repro.engine.scenarios import resolve_scenario
from repro.experiments import Session
from repro.graphs import (
    enumerate_cliques,
    erdos_renyi,
    planted_cliques,
    power_law,
    ring_of_cliques,
)
from repro.graphs.index import LabelCSR
from repro.listing import (
    list_cliques_distributed,
    list_triangles_distributed,
    validate_distributed_listing,
)
from repro.listing import distributed
from repro.listing.distributed import add_edge_learning, plan_two_hop_protocol
from repro.robust import CrashStopVertexScenario

BACKENDS = ["reference", "vectorized"]

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


def learn_label_edges(plan, owner_edges) -> None:
    """``add_edge_learning`` from label pairs: each owner's edges become
    ``(owner, u, w)`` id rows of the plan's index."""
    id_of = plan.index.id_of
    rows = [
        (id_of[owner], id_of[u], id_of[w])
        for owner, edges in owner_edges.items()
        for u, w in edges
    ]
    add_edge_learning(plan, np.array(rows, dtype=np.int64).reshape(-1, 3))


def _per_vertex_plan(p: int):
    """Listers 0 and 4 on two K4s sharing a triangle; owner 6 learns the K4
    {1, 2, 3, 4} it is not part of (relayed through 4 and 5) plus one edge of
    its own; 7, 8 and 9 are idle."""
    graph = nx.Graph()
    graph.add_edges_from(itertools.combinations([0, 1, 2, 3], 2))
    graph.add_edges_from([(4, 1), (4, 2), (4, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)])
    owner_edges = {6: set(itertools.combinations([1, 2, 3, 4], 2)) | {(6, 7)}}
    plan = plan_two_hop_protocol(LabelCSR.from_graph(graph), [0, 4], p)
    learn_label_edges(plan, owner_edges)
    return plan, owner_edges


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("p", [3, 4])
def test_each_vertex_outputs_exactly_its_own_cliques(backend, p):
    plan, owner_edges = _per_vertex_plan(p)
    run = Session().execute(plan.index, plan.factory(), backend=backend)
    assert run.halted
    truth = enumerate_cliques(plan.index.graph, p)
    labels = plan.index.labels
    assert [labels[i] for i in np.flatnonzero(plan.idle())] == [7, 8, 9]
    for vertex_id, vertex in enumerate(labels):
        expected = set()
        if plan.lister[vertex_id]:
            expected |= {clique for clique in truth if vertex in clique}
        if vertex in owner_edges:
            learned = enumerate_cliques(nx.Graph(list(owner_edges[vertex])), p)
            assert learned and all(vertex not in clique for clique in learned)
            expected |= learned
        assert run.outputs[vertex] == expected, vertex
    # Owner 6 receives the K4's six routed edges; it preloads (6, 7).
    assert plan.counts[labels.index(6), distributed._RECEIVED] == 6
    assert plan.demands == 6 and plan.preloaded.tolist() == [[6, 6, 7]]


@pytest.mark.parametrize("p", [1, 2])
def test_an_isolated_lister_lists_the_same_on_both_paths(p):
    """The vector path lists from the plan's edges, yet an isolated lister
    is still its own ``K_1``, as its per-vertex twin reports."""
    graph = nx.complete_graph(3)
    graph.add_node(3)
    plan = plan_two_hop_protocol(LabelCSR.from_graph(graph), [0, 3], p)
    reference, vectorized = (
        Session().execute(plan.index, plan.factory(), backend=backend).outputs
        for backend in ("reference", "vectorized")
    )
    assert vectorized == reference
    assert vectorized[3] == ({(3,)} if p == 1 else set())


def test_a_lister_outside_the_communication_graph_raises():
    """A lister the plan's index lacks is a caller's mistake: it raises
    ``KeyError`` naming the label instead of listing fewer cliques."""
    with pytest.raises(KeyError, match="7"):
        plan_two_hop_protocol(LabelCSR.from_graph(nx.complete_graph(4)), [0, 7], 3)


def test_crashed_vertices_keep_their_outputs_and_list_no_more(monkeypatch):
    """Each crash event snapshots every output, yet an execution still makes
    at most two kernel calls, and every output, frozen at a crash or final,
    is its per-vertex twin's."""
    plan, _ = _per_vertex_plan(3)
    kernel, calls = distributed.cliques_in_edge_set, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(distributed, "cliques_in_edge_set", counted)
    outputs, crashes = {}, {}
    for backend in ("reference", "vectorized"):
        calls.clear()
        scenario = CrashStopVertexScenario(max_faulty=3, first_round=2, window=12, seed=37)
        outputs[backend] = Session().execute(
            plan.index, plan.factory(), backend=backend, scenario=scenario
        ).outputs
        crashes[backend] = scenario.crash_rounds()
    assert outputs["vectorized"] == outputs["reference"]
    # Three crash events; lister 0 crashes after it halted, with its cliques,
    # and owner 6 finishes.
    assert crashes["vectorized"] == {0: 8, 7: 5, 9: 13}
    assert outputs["vectorized"][0] and outputs["vectorized"][6]
    assert 1 <= len(calls) <= 2


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


def _planted_60():
    return planted_cliques(60, 4, 3, background_avg_degree=3.0, seed=2)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "build, p, max_levels, fallback_edges",
    [
        pytest.param(_planted_60, 3, 0, 108, id="3"),
        pytest.param(_planted_60, 4, 0, 108, id="4"),
        # Level 0 finishes 1,740 of the ring's 1,744 edges: the four ring
        # edges are left to the fallback.
        pytest.param(lambda: ring_of_cliques(4, 30), 3, 1, 4, id="3-ring-4x30-one-level"),
    ],
)
def test_fallback_pass_alone_lists_every_clique(backend, build, p, max_levels, fallback_edges):
    """With the recursion capped, the engine-executed fallback covers the
    edges it left (every edge at zero levels) in one exhaustive pass, the
    run's last execution."""
    graph = build()
    result = list_cliques_distributed(graph, p, backend=backend, max_levels=max_levels)
    assert result.cliques == set(enumerate_cliques(graph, p))
    assert result.fallback_edges == fallback_edges
    *clusters, last = result.executions
    assert last.is_fallback
    assert all(record.level in range(max_levels) for record in clusters)
    assert result.measured_rounds <= result.predicted_rounds


@pytest.mark.parametrize(
    "graph, p, max_levels, shape",
    [
        pytest.param(
            power_law(150, avg_degree=12, seed=1), 3, None, [(False, 15346)], id="routed"
        ),
        pytest.param(ring_of_cliques(4, 30), 4, None, [(False, 0)] * 8, id="kp-clusters"),
        pytest.param(ring_of_cliques(4, 30), 3, 0, [(True, 0)], id="fallback"),
    ],
)
def test_the_listing_path_builds_no_networkx_graph(monkeypatch, graph, p, max_levels, shape):
    """Every execution runs on its plan's index: the vectorized engine reads
    the index's arrays, so nothing on the path builds its ``networkx``
    graph."""
    truth = enumerate_cliques(graph, p)

    def refuse(index):
        raise AssertionError("the listing path built a networkx graph from an index")

    monkeypatch.setattr(LabelCSR, "graph", property(refuse))
    result = list_cliques_distributed(graph, p, backend="vectorized", max_levels=max_levels)
    assert result.cliques == truth
    assert [(e.is_fallback, e.demands) for e in result.executions] == shape
