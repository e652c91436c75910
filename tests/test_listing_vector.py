"""``ListingVector`` is held to its per-vertex twin, ``ListingVertex``.

:meth:`~repro.listing.distributed.ClusterProtocolPlan.factory` returns one
plan-bound class: the vectorized backend steps it on arrays, the reference
backend runs its ``per_vertex`` twin, and the twin also runs on the
vectorized backend's batch scheduler.  For every plan and delivery scenario
below, the three runs must agree on everything
:func:`test_vector_layer.run_signature` checks: rounds, messages, words,
drops, halting, per-phase rounds and each vertex's output.

The plans cover the places the two paths could part:

* the small hand-built plan of ``test_distributed_listing`` (two listers,
  one owner learning a ``K_4`` through two relays), for ``p`` = 3 and 4;
* a power-law graph whose low-degree vertices list and whose ten hubs each
  learn 30 edges they are not on, so ``hits`` replies and relayed packets
  share edges in the same round and send order decides every completion;
* the same plan over string labels, whose words cost more than one word
  each (``1 + len`` per payload would undercount);
* an edgeless graph and a graph with isolated vertices;
* a run cut off by ``max_rounds`` while some listers still wait.
"""

import itertools

import networkx as nx
import pytest

from repro.engine import (
    AdversarialDelayScenario,
    BurstyFaultScenario,
    ComposedScenario,
    HeterogeneousBandwidthScenario,
    LinkDropScenario,
)
from repro.engine.vector import as_vertex_factory, is_vector_algorithm
from repro.experiments import Session
from repro.graphs import planted_cliques, power_law
from repro.graphs.index import LabelCSR
from repro.listing import list_cliques_distributed
from repro.listing.distributed import plan_two_hop_protocol
from test_distributed_listing import _per_vertex_plan, learn_label_edges
from test_vector_layer import run_signature


def _hub_plan(relabel: bool = False):
    """Low-degree listers plus ten hubs learning 30 far edges each."""
    graph = power_law(150, avg_degree=12, seed=1)
    degree = dict(graph.degree)
    listers = [v for v in graph if degree[v] <= 6]
    hubs = sorted(graph, key=lambda v: (-degree[v], v))[:10]
    edges = sorted(tuple(sorted(e)) for e in graph.edges)
    owner_edges = {hub: set([e for e in edges if hub not in e][:30]) for hub in hubs}
    if relabel:
        name = "v%03d".__mod__
        graph = nx.relabel_nodes(graph, name)
        listers = [name(v) for v in listers]
        owner_edges = {
            name(hub): {(name(u), name(w)) for u, w in far}
            for hub, far in owner_edges.items()
        }
    plan = plan_two_hop_protocol(LabelCSR.from_graph(graph), listers, 3)
    learn_label_edges(plan, owner_edges)
    return plan


def _isolated_plan():
    """A K4 with a tail to an owner, plus two isolated vertices (one lists)."""
    graph = nx.Graph()
    graph.add_edges_from(itertools.combinations([0, 1, 2, 3], 2))
    graph.add_edges_from([(3, 4), (4, 5)])
    graph.add_nodes_from([6, 7])
    plan = plan_two_hop_protocol(LabelCSR.from_graph(graph), [0, 6], 3)
    learn_label_edges(plan, {5: {(0, 1), (0, 2), (1, 2), (4, 5)}})
    return plan


PLANS = [
    pytest.param(lambda: _per_vertex_plan(3)[0], None, id="per-vertex-p3"),
    pytest.param(lambda: _per_vertex_plan(4)[0], None, id="per-vertex-p4"),
    pytest.param(_hub_plan, None, id="power-law-hubs"),
    pytest.param(lambda: _hub_plan(relabel=True), None, id="string-labels"),
    pytest.param(
        lambda: plan_two_hop_protocol(LabelCSR.from_graph(nx.empty_graph(5)), [0, 2, 4], 3),
        None,
        id="edgeless",
    ),
    pytest.param(_isolated_plan, None, id="isolated-vertices"),
    pytest.param(_hub_plan, 12, id="truncated"),
]

SCENARIOS = [
    pytest.param(None, id="clean"),
    pytest.param(LinkDropScenario(drop_probability=0.15, seed=21), id="link-drop"),
    pytest.param(BurstyFaultScenario(0.5, 3, 8, seed=9), id="bursty"),
    pytest.param(
        HeterogeneousBandwidthScenario((1.0, 0.5, 0.25), seed=4),
        id="heterogeneous-bandwidth",
    ),
    pytest.param(
        AdversarialDelayScenario(stall_period=4, seed=2), id="adversarial-delay"
    ),
    pytest.param(
        ComposedScenario.sequential(
            (LinkDropScenario(0.3, seed=11), 10),
            (BurstyFaultScenario(0.5, 3, 8, seed=12), 40),
            ("clean", None),
        ),
        id="sequential",
    ),
]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("build,max_rounds", PLANS)
def test_listing_vector_matches_its_twin_on_every_backend(build, max_rounds, scenario):
    plan = build()
    factory = plan.factory()
    assert is_vector_algorithm(factory)
    cap = max_rounds or 100_000
    session = Session()
    runs = {
        name: run_signature(
            session.execute(
                plan.index, algorithm, backend=backend, scenario=scenario,
                max_rounds=cap,
            )
        )
        for name, algorithm, backend in [
            ("vectorized", factory, "vectorized"),
            ("reference", factory, "reference"),
            ("twin-vectorized", as_vertex_factory(factory), "vectorized"),
        ]
    }
    assert runs["vectorized"] == runs["reference"]
    assert runs["twin-vectorized"] == runs["reference"]
    if max_rounds is None:
        assert runs["vectorized"]["halted"]
    else:
        # Cut off mid-run: a vertex that halted has its full output, one
        # that had not has the empty set.
        assert not runs["vectorized"]["halted"]
        assert runs["vectorized"]["rounds"] == max_rounds
        full = session.execute(
            plan.index, factory, backend="vectorized", scenario=scenario
        ).outputs
        cut = runs["vectorized"]["outputs"]
        assert all(cut[v] in (set(), full[v]) for v in full)
        assert any(cut[v] == set() != full[v] for v in full)


def test_string_labels_cost_their_words_in_a_full_listing():
    """Each string label costs its own words, on both paths, end to end."""
    graph = planted_cliques(60, 4, 3, background_avg_degree=3.0, seed=2)
    named = nx.relabel_nodes(graph, "v%03d".__mod__)
    signatures = {}
    for backend in ("vectorized", "reference"):
        result = list_cliques_distributed(named, 3, backend=backend)
        assert len(result.cliques) == len(list_cliques_distributed(graph, 3).cliques)
        signatures[backend] = (result.measured_rounds, result.measured_words)
    assert signatures["vectorized"] == signatures["reference"] == (231, 8644)


def _reversed_vertex_order(graph):
    reordered = nx.Graph()
    reordered.add_nodes_from(reversed(list(graph)))
    reordered.add_edges_from(graph.edges)
    return reordered


@pytest.mark.parametrize(
    "foreign",
    [
        lambda graph: nx.path_graph(graph.number_of_nodes()),
        lambda graph: nx.relabel_nodes(graph, {v: v + 100 for v in graph}),
        _reversed_vertex_order,
        lambda graph: graph,
    ],
    ids=["other-edges", "other-labels", "other-vertex-order", "its-index-graph"],
)
def test_plan_bound_listing_vector_refuses_a_foreign_graph(foreign):
    """The plan's vertex and edge ids are its own index's ids and slots, so
    its array path runs on the plan's index only, not even on that index's
    own ``networkx`` graph."""
    plan, _ = _per_vertex_plan(3)
    graph = foreign(plan.index.graph)
    with pytest.raises(ValueError, match="bound to a plan over another graph"):
        Session().execute(graph, plan.factory(), backend="vectorized")
