"""Pinned costs and routes of the engine-executed listing pipeline.

The planner's output is held fixed: the same input must give the same
executions, level reports, cliques and routes.  Each case runs
:func:`list_cliques_distributed` on ``vectorized`` and pins

* every :class:`~repro.listing.distributed.ClusterExecution` field,
* every :class:`~repro.listing.recursion.LevelReport`,
* a sha256 of the sorted clique list (the output digest),
* a sha256 of every compiled plan's routes, captured by wrapping
  ``add_edge_learning``.  Routes are written as vertex labels, so the
  digest holds whatever dense numbering the plan uses.

The two power-law cases exercise the partition-tree path (15,346 routed
demands), the planted-cliques case mixes listers with routed demands, and
the community case is the ``p = 4`` exhaustive pass, which routes nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.engine import LinkDropScenario
from repro.graphs import clustered_communities, planted_cliques, power_law
from repro.listing import distributed
from repro.listing.distributed import list_cliques_distributed


def _skewed():
    return power_law(150, avg_degree=12, seed=1)


CASES = {
    "skewed-k3": (_skewed, 3, lambda: None),
    "skewed-k3-link-drop": (_skewed, 3, lambda: LinkDropScenario(0.1, seed=7)),
    "planted-k3": (
        lambda: planted_cliques(
            300, clique_size=5, num_cliques=12, background_avg_degree=4.0, seed=23
        ),
        3,
        lambda: None,
    ),
    "communities-k4": (
        lambda: clustered_communities(4, 16, 0.5, 0.02, seed=1), 4, lambda: None
    ),
}

_SKEWED_EXECUTION = dict(
    level=0, cluster_index=0, vertices=150, edges=864, listers=0, demands=15346,
    messages=24643, words=98572, predicted_rounds=1138, halted=True,
)
_SKEWED_ROUTES = [
    (15346, "e4fe2655b6c389427d8b6d5268c2a888f8d8480c335c927bbcf887679d8f19c7")
]
_SKEWED_CLIQUES = (
    643, "00dfc16a20499f70b2a48c420239fddbe08a2c646c340ac89a81f49ccb28968a"
)

PINS = {
    "skewed-k3": {
        "executions": [dict(_SKEWED_EXECUTION, rounds=1189)],
        "levels": [(0, 864, 1, 864, 0.0, 1189, 420)],
        "cliques": _SKEWED_CLIQUES,
        "routes": _SKEWED_ROUTES,
    },
    "skewed-k3-link-drop": {
        "executions": [dict(_SKEWED_EXECUTION, rounds=1331)],
        "levels": [(0, 864, 1, 864, 0.0, 1331, 420)],
        "cliques": _SKEWED_CLIQUES,
        "routes": _SKEWED_ROUTES,
    },
    "planted-k3": {
        "executions": [
            dict(
                level=0, cluster_index=0, vertices=295, edges=687, listers=237,
                demands=1206, rounds=124, messages=5095, words=19138,
                predicted_rounds=596, halted=True,
            )
        ],
        "levels": [(0, 687, 1, 687, 0.0, 124, 577)],
        "cliques": (
            136, "18b9847d4abc371b0596fb065dc86418870b3352d26865c66a4f3dbc5529e595"
        ),
        "routes": [
            (1206, "e5a53a932d9e492b0bef2014e002f8d896815fad73fa53d9fa92999b15b57c54")
        ],
    },
    "communities-k4": {
        "executions": [
            dict(
                level=0, cluster_index=0, vertices=64, edges=253, listers=64,
                demands=0, rounds=23, messages=1012, words=6750,
                predicted_rounds=24, halted=True,
            )
        ],
        "levels": [(0, 253, 1, 253, 0.0, 23, 276)],
        "cliques": (
            79, "e8421f8a7301539e5380ed4a5464c318725f360ab05168dac41c54352fc6b7cc"
        ),
        "routes": [],
    },
}


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def route_digest(plan) -> str:
    """sha256 of ``[[u, w], [hop, ...]]`` per demand, in labels."""
    nodes = list(plan.graph.nodes)
    routes = []
    start = 0
    for (u, w), end in zip(plan.route_edges.tolist(), plan.route_ends.tolist()):
        hops = [nodes[i] for i in plan.route_hops[start:end].tolist()]
        routes.append([[nodes[u], nodes[w]], hops])
        start = end
    return _sha256(routes)


@pytest.mark.parametrize("case", list(CASES))
def test_listing_costs_and_routes_are_pinned(case, monkeypatch):
    build, p, scenario = CASES[case]
    plans = []
    learn = distributed.add_edge_learning

    def capture(plan, owner_edges):
        learn(plan, owner_edges)
        plans.append(plan)

    monkeypatch.setattr(distributed, "add_edge_learning", capture)
    result = list_cliques_distributed(
        build(), p, backend="vectorized", scenario=scenario()
    )
    pin = PINS[case]
    assert [dataclasses.asdict(e) for e in result.executions] == pin["executions"]
    assert [dataclasses.astuple(r) for r in result.level_reports] == pin["levels"]
    assert (len(result.cliques), _sha256(sorted(result.cliques))) == pin["cliques"]
    assert [(plan.demands, route_digest(plan)) for plan in plans] == pin["routes"]
