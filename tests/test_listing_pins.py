"""Pinned costs and routes of the engine-executed listing pipeline.

The planner's output is held fixed: the same input must give the same
decompositions, executions, level reports, cliques and routes.  Each case
runs :func:`list_cliques_distributed` on ``vectorized`` and pins

* every level's expander decomposition, captured by wrapping
  ``expander_decompose`` where the recursion looks it up: per cluster its
  index, a sha256 of its sorted vertices and of its sorted edges, and its
  certified conductance bound, then a sha256 of the sorted remainder,
* every :class:`~repro.listing.distributed.ClusterExecution` field,
* every :class:`~repro.listing.recursion.LevelReport`,
* a sha256 of the sorted clique list (the output digest),
* a sha256 of every compiled plan's routes, captured by wrapping
  ``add_edge_learning``.  Routes are written as vertex labels, so the
  digest holds whatever dense numbering the plan uses.

The two power-law cases exercise the partition-tree path (15,346 routed
demands), the planted-cliques case mixes listers with routed demands, and
the community case is the ``p = 4`` exhaustive pass, which routes nothing.
Each of those is one cluster at one level.  The last three cases pin the
cluster order: sweep cuts split both rings into one cluster per clique, and
the recursion lists the ring edges at level 1 (``p = 3`` and ``p = 4``);
the sparse planted graph decomposes into two components.  Clusters are
numbered by their smallest vertex label, so the pinned order does not
depend on the order the cuts find them in (which can follow BLAS's thread
count where the Fiedler vector is not unique, as on the rings).

The centralized ``K_p`` listing (:class:`~repro.listing.cliques.CliqueListing`)
is pinned the same way on three cases that reach its split-tree path
(``|V_C^-|`` is 40, 40 and 63): the charged rounds and words, the per-phase
rounds and messages of the run and of every cluster's accountant, the
clique digest, and per ``p'`` a sha256 of each split tree (every node's
path and part endpoints) and of its leaf assignment, captured by wrapping
``construct_split_kp_tree``.

The triangle listing's K3-partition trees (Theorem 16) are pinned on the
``skewed-k3`` and ``planted-k3`` cases, per cluster: a sha256 of the tree and
of its leaf assignment, captured by wrapping ``construct_k3_partition_tree``,
and a sha256 of the blueprint's ``owner_edges`` with ``received_load`` and
``load_per_degree`` plus the per-phase rounds and messages of the cluster's
predicted cost, captured by wrapping ``TriangleListing.predict_cluster_cost``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.engine import LinkDropScenario
from repro.graphs import (
    clustered_communities,
    erdos_renyi,
    planted_cliques,
    power_law,
    ring_of_cliques,
)
from repro.listing import cliques, distributed, recursion, triangles
from repro.listing.cliques import CliqueListing
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
    "ring-4x30-k3": (lambda: ring_of_cliques(4, 30), 3, lambda: None),
    "ring-6x25-k4": (lambda: ring_of_cliques(6, 25), 4, lambda: None),
    "planted-2000-k3": (
        lambda: planted_cliques(
            2000, clique_size=5, num_cliques=80, background_avg_degree=4.0, seed=23
        ),
        3,
        lambda: None,
    ),
}


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


_NO_REMAINDER = _sha256([])


def _per_cluster(level: int, clusters: int, **fields) -> list[dict]:
    """One execution record per cluster of a level whose clusters all cost
    the same."""
    return [dict(level=level, cluster_index=i, **fields) for i in range(clusters)]


_SKEWED_DECOMPOSITIONS = [
    (
        [
            (0, "3d98dedf8b48f83b878f5d5ce75506a641c009bfaba414a496f6a3c289612fb7",
             "d23783b16ef081b680c4355b05141bec6c239a7fb32241c9577466b5081bcc53",
             0.3543859649122807),
        ],
        _NO_REMAINDER,
    ),
]
_SKEWED_EXECUTION = dict(
    level=0, cluster_index=0, vertices=150, edges=864, listers=0, demands=15346,
    messages=24643, words=98572, predicted_rounds=1138, halted=True,
)
_SKEWED_ROUTES = [
    (15346, "cb2c9004b96e30c9afad8a8e5017800d5fd45ee6cd29aa976799bd9d77250536")
]
_SKEWED_CLIQUES = (
    643, "00dfc16a20499f70b2a48c420239fddbe08a2c646c340ac89a81f49ccb28968a"
)

PINS = {
    "skewed-k3": {
        "decompositions": _SKEWED_DECOMPOSITIONS,
        "executions": [dict(_SKEWED_EXECUTION, rounds=281)],
        "levels": [(0, 864, 1, 864, 0.0, 281, 420)],
        "cliques": _SKEWED_CLIQUES,
        "routes": _SKEWED_ROUTES,
    },
    "skewed-k3-link-drop": {
        "decompositions": _SKEWED_DECOMPOSITIONS,
        "executions": [dict(_SKEWED_EXECUTION, rounds=325)],
        "levels": [(0, 864, 1, 864, 0.0, 325, 420)],
        "cliques": _SKEWED_CLIQUES,
        "routes": _SKEWED_ROUTES,
    },
    "planted-k3": {
        "decompositions": [
            (
                [
                    (0, "cfcbca88a019d2ee235e4b11ace5a889cfd9f227fbfe9ff1204cda6d4e3481c3",
                     "3a8637bc8a5b419ff7211c4573c488056d92afcf0bfdbc33595cd4bf3458d064",
                     0.17543859649122806),
                ],
                _NO_REMAINDER,
            ),
        ],
        "executions": [
            dict(
                level=0, cluster_index=0, vertices=295, edges=687, listers=237,
                demands=1206, rounds=93, messages=5095, words=19138,
                predicted_rounds=596, halted=True,
            )
        ],
        "levels": [(0, 687, 1, 687, 0.0, 93, 577)],
        "cliques": (
            136, "18b9847d4abc371b0596fb065dc86418870b3352d26865c66a4f3dbc5529e595"
        ),
        "routes": [
            (1206, "56172285d378bee78ab81fbfe40f59bf579c0c8f0cf8ac232496feb0f178e020")
        ],
    },
    "communities-k4": {
        "decompositions": [
            (
                [
                    (0, "ccf91e2b960f51464b77d855d580f583fe4e1cf0472832315bad6d855cf732f6",
                     "71bda52aaea2df32b018cb0474b68e82c44a0848996f11891113cc48ac2f69d7",
                     0.06569343065693431),
                ],
                _NO_REMAINDER,
            ),
        ],
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
    "ring-4x30-k3": {
        "decompositions": [
            (
                [
                    (0, "3adfd43b13410a9f680981b815abf4611f2c49650964f5c5f71a6d79e6033057",
                     "103ee3be7492b54ad8fbc5f63dfd747d81dfaddb27cf6ddaea56a1388d255ff9",
                     0.5172413793103449),
                    (1, "09e925136cd0e6fb70811a1a2f60dba101eccba7b38d61a42b078b9c64393d68",
                     "226086f9270e039d8c24ce28361293256536545d1bbd4484ae98cc55103a18f2",
                     0.5172413793103449),
                    (2, "3dd79e88e67b852307131b86eb7c449b5fed9e9476df51f3df7c145ccf216761",
                     "3ec9191fe2d248bd60cc2c6677c38c50978cd8de19f0b2c6db9e047c275a364d",
                     0.5172413793103449),
                    (3, "ffc042def4e2e565347e28abdc0daf025e6dd1a88f0661b248854c73af0f49cf",
                     "fc6c65da23eccf5f3236a65771326f3c54944f6e56a5dab2c9c27e119741e507",
                     0.5172413793103449),
                ],
                "337c2baff1f4ef50f316acfd92dbcdff9cf26496a238459f072f2958829d4d78",
            ),
            (
                [
                    (0, "59787cac21162a3c1a4bfffe56fbe5393e1eea44aa2f5526827e449ed71131ad",
                     "3ce569f5b83cfee105d8673718dbb3c073d3ecbd7411b010964acd946eb7b7ff",
                     1.0),
                    (1, "737663554ed1b779795966312b2da6bd46071d7a39818197d0e4d8ccf5e15639",
                     "56fe07290c589cd2203fb1ab5fa7e1d3561ea68d939108c513eb0baa5b199d74",
                     1.0),
                    (2, "2dd0602cf29bbb1c72267fdd3d1e2aedfaf93cc3ed63b32a36d6658820b5e581",
                     "f20656178dab2dc9f471d8cff7dc24aa50806ba4d062fe276086468ef9820e80",
                     1.0),
                    (3, "107c8841da272e0c40164b908824c78a25c448a2d4010b877d891914c89bece2",
                     "36ffd54a3f1e98f6fbf1d950ec03d8ec0ac5012eaf5bd184c7f4c75f868349b5",
                     1.0),
                ],
                _NO_REMAINDER,
            ),
        ],
        "executions": _per_cluster(
            0, 4, vertices=32, edges=437, listers=2, demands=3494, rounds=69,
            messages=3498, words=13982, predicted_rounds=673, halted=True,
        ) + _per_cluster(
            1, 4, vertices=60, edges=59, listers=60, demands=0, rounds=33,
            messages=236, words=2094, predicted_rounds=68, halted=True,
        ),
        "levels": [
            (0, 1744, 4, 1740, 0.0022935779816513763, 69, 377),
            (1, 4, 4, 4, 0.0, 33, 377),
        ],
        "cliques": (
            16240, "5264d65636d738e85bc2d896b34613ab81ad2552cfc81ee88e1287b4bd5d3d51"
        ),
        "routes": [
            (3494, "9885ea696f6d780a6514604a5c1a046dd3109f346d8bda0f1ee29e34284ba28d"),
            (3494, "149c7ba57200da616e7dab8737e3ecb4184afeceb07fe0e7e0664c837c776b65"),
            (3494, "84e40e9caaa48feda165adefd116d48730965387f9a2035e6ae226f9504f4941"),
            (3494, "349168f50d80c0cb17f0f3644a3ee751ac38ca2ae990de46e46a45a85c949c60"),
        ] + [(0, _sha256([]))] * 4,
    },
    "ring-6x25-k4": {
        "decompositions": [
            (
                [
                    (0, "6133c3201a04b8ddac4eb116cae3fc6d82c2181c4a1332b9ba1a02896bd86d83",
                     "72678f83adc38176cd4a30aa97ad80dde1b46d14f2f016c1d896f22d4aca0f09",
                     0.5416666666666666),
                    (1, "b4e9475246e5753b230555e7d7be66280cf81cda3816e63685d1b806b47571e0",
                     "790e05c975410a7caf585eb6ddb56703c4d64673948ce6602fdaffc12223a6e4",
                     0.5416666666666666),
                    (2, "340050ac9bdffefdedb23c9de9f3556386fffdb8557204236dd28eae6c11a4a1",
                     "ff00903da4de96be1d0f79d5d53d2f87e38a3475503f7138a09e03d8843b8d95",
                     0.5416666666666666),
                    (3, "b950826c8cf4da6283cc86dbd75e87b7ef530f124022fd89dede80c3e59fecdd",
                     "b0f0007e943031684a25c1640000316da74d317538529b48a3e7f35d65ccf794",
                     0.5416666666666666),
                    (4, "b85898d774211f81e892ec737b47feb2b807152990b541ef062ff04aade5c682",
                     "7580b1297ac7cf746e00f0edd38d3341ae45971f58daf30f6cc33227efee1db7",
                     0.5416666666666666),
                    (5, "883157c77eeabb4d13ea8d2a33cd190a0f0ac2e32399990c3349fc8fac9f61a5",
                     "67e9948c3a71733325acc91081beae5f2be31c50693f03348b9101226e4a7215",
                     0.5416666666666666),
                ],
                "e30d40245d69d8e328e42dfea58a544ecd4061929c3a1bb4a112fcfee7f36344",
            ),
            (
                [
                    (0, "499eda730068106e239212ff2ad0bd18382d3f6087595b859a578f916990bcad",
                     "2a8a71346313252a75e004af17c690fa66895b1dde279b6403963f56056ee8fe",
                     1.0),
                    (1, "7166a9c80d7b4d0e66af1ac0b3743b1558d2085832d5cec0d4a58996ee3a170f",
                     "e8491f7b74533b0400086054d9300d72f58e3cce05829e42f8ccea298dbe9488",
                     1.0),
                    (2, "c891e4f37cc6cf37e17f2ef69e3fe6f01a02bc7c87aa5c66c5ee198ba2b2eb34",
                     "c1169d637fac4d471cc6db104d7c900812e6ab69fa314cb4cc28c4d14086dec8",
                     1.0),
                    (3, "9706d48197ae4fedd4852dc768307b3b071af1b156044d6c9b98f531dbeb9a34",
                     "621994f59a97f372af295799c754591d65311a3d6db2d2f60b611151865b74fa",
                     1.0),
                    (4, "fa1f59d88ad20292e5cc29e39e928824e05165bdf5652d07785ae92a77dff623",
                     "4d07767a1dca06a7c61e26bcabd26de3302f6823c4ac79dc442cef3eae010592",
                     1.0),
                    (5, "a10d918f0b1b1e8d7b98c4a54f38bcdc3cfff975fb0ed366bce69f1757515cf8",
                     "185897a8868c5b831e21b0a74e7a231742c4edb3fe34c929c081167b95ce33f1",
                     1.0),
                ],
                _NO_REMAINDER,
            ),
        ],
        "executions": _per_cluster(
            0, 6, vertices=27, edges=302, listers=25, demands=0, rounds=51,
            messages=1204, words=29502, predicted_rounds=50, halted=True,
        ) + _per_cluster(
            1, 6, vertices=50, edges=601, listers=2, demands=0, rounds=51,
            messages=100, words=2454, predicted_rounds=50, halted=True,
        ),
        "levels": [
            (0, 1806, 6, 1800, 0.0033222591362126247, 51, 420),
            (1, 6, 6, 6, 0.0, 51, 420),
        ],
        "cliques": (
            75900, "7b9ddd1124c957522137784d948c854df7ea047c762346556b9cee362ae2aafb"
        ),
        "routes": [],
    },
    "planted-2000-k3": {
        "decompositions": [
            (
                [
                    (0, "01af602154fe64602a6ad4f7ec6f1928538e93619ccae282fbcd6f4c9ae886ce",
                     "65fa9b29243fd49e189e96ee4ba6f5442cfa68d3aa4cc374b775281d14c9b9d0",
                     0.22104404567699837),
                    (1, "d1817fb2f0aada017fc96088040c2cceda17419d9f6f30e19df659bf819f8025",
                     "1c3fc0c99b989ef998fbdadd16ff10ff5ce1f6f5b8387f4d915ae60f3bb93c01",
                     1.0),
                ],
                _NO_REMAINDER,
            ),
        ],
        "executions": [
            dict(
                level=0, cluster_index=0, vertices=1974, edges=4908, listers=1947,
                demands=136, rounds=42, messages=19317, words=82159,
                predicted_rounds=327, halted=True,
            ),
            dict(
                level=0, cluster_index=1, vertices=2, edges=1, listers=2,
                demands=0, rounds=4, messages=4, words=6,
                predicted_rounds=4, halted=True,
            ),
        ],
        "levels": [(0, 4909, 2, 4909, 0.0, 42, 1283)],
        "cliques": (
            819, "63b26264ddab8d35bc84cc202cf9026f704f5741f2bd7dea57edfc3275eb8772"
        ),
        "routes": [
            (136, "535504705c9a7a722175871eeb04dae4e7cbc02798fbdd7acf76ed08c2a870d9"),
            (0, _sha256([])),
        ],
    },
}


def route_vertices(plan) -> list[list[int]]:
    """Each demand's route as ids of ``plan.index``: the sender of its first
    slot, then the receiver of every slot."""
    index = plan.index
    return [
        [int(index.rows[slots[0]]), *index.indices[slots].tolist()]
        for slots in (
            plan.route_slots[start:end]
            for start, end in zip(plan.route_starts.tolist(), plan.route_ends.tolist())
        )
    ]


def route_digest(plan) -> str:
    """sha256 of ``[[u, w], [hop, ...]]`` per demand, in labels."""
    nodes = plan.index.labels
    return _sha256([
        [[nodes[u], nodes[w]], [nodes[i] for i in hops]]
        for (u, w), hops in zip(plan.route_edges.tolist(), route_vertices(plan))
    ])


def decomposition_digest(decomposition) -> tuple[list[tuple], str]:
    """Per cluster ``(index, vertices sha256, edges sha256, bound)``, then the
    remainder's sha256; vertices and edges sorted, edges smaller end first."""
    clusters = [
        (
            cluster.index,
            _sha256(sorted(cluster.vertices)),
            _sha256(sorted(cluster.edges)),
            cluster.conductance_lower_bound,
        )
        for cluster in decomposition.clusters
    ]
    return clusters, _sha256(sorted(decomposition.remainder_edges))


@pytest.mark.parametrize("case", list(CASES))
def test_listing_costs_and_routes_are_pinned(case, monkeypatch):
    build, p, scenario = CASES[case]
    plans = []
    decompositions = []
    learn = distributed.add_edge_learning
    decompose = recursion.expander_decompose

    def capture(plan, owner_edges):
        learn(plan, owner_edges)
        plans.append(plan)

    def capture_decomposition(*args, **kwargs):
        decomposition = decompose(*args, **kwargs)
        decompositions.append(decomposition_digest(decomposition))
        return decomposition

    monkeypatch.setattr(distributed, "add_edge_learning", capture)
    monkeypatch.setattr(recursion, "expander_decompose", capture_decomposition)
    result = list_cliques_distributed(
        build(), p, backend="vectorized", scenario=scenario()
    )
    pin = PINS[case]
    assert decompositions == pin["decompositions"]
    assert [dataclasses.asdict(e) for e in result.executions] == pin["executions"]
    assert [dataclasses.astuple(r) for r in result.level_reports] == pin["levels"]
    assert (len(result.cliques), _sha256(sorted(result.cliques))) == pin["cliques"]
    assert [(plan.demands, route_digest(plan)) for plan in plans] == pin["routes"]


# ---------------------------------------------------------------------------
# The centralized K_p listing's split trees (Theorem 26 per p', Lemma 37)
# ---------------------------------------------------------------------------


def _dense():
    return erdos_renyi(40, 14.0, seed=7)


SPLIT_TREE_CASES = {
    "dense-40-k4": (_dense, 4),
    "dense-40-k5": (_dense, 5),
    "communities-72-k4": (lambda: clustered_communities(4, 18, 0.6, 0.02, seed=3), 4),
}

# Per case: the run's (rounds, words, phase_rounds, phase_messages), then
# every cluster accountant's, in cluster order.
SPLIT_TREE_METRICS = {
    "dense-40-k4": [
        (3024, 23494, {"level0:decomposition": 216, "level0:clusters": 2808},
         {"level0:clusters": 23494}),
        (2808, 23494,
         {"level0-c0:lemma43-import": 0, "level0-c0:lemma45-degstar": 38,
          "level0-c0:lemma27-layer": 1235, "level0-c0:phase1-tokens": 214,
          "streaming:phase2-steps": 706, "level0-c0:lemma20-redistribute": 6,
          "level0-c0:lemma20-fetch": 4, "level0-c0:lemma37-edge-learning-p2": 58,
          "level0-c0:lemma37-edge-learning-p3": 149,
          "level0-c0:lemma37-edge-learning-p4": 398},
         {"level0-c0:lemma45-degstar": 7, "level0-c0:lemma27-layer": 1183,
          "level0-c0:phase1-tokens": 2400, "streaming:phase2-state": 2352,
          "level0-c0:lemma20-redistribute": 120, "level0-c0:lemma20-fetch": 117,
          "level0-c0:lemma37-edge-learning-p2": 511,
          "level0-c0:lemma37-edge-learning-p3": 3173,
          "level0-c0:lemma37-edge-learning-p4": 13631}),
    ],
    "dense-40-k5": [
        (7674, 85685, {"level0:decomposition": 216, "level0:clusters": 7458},
         {"level0:clusters": 85685}),
        (7458, 85685,
         {"level0-c0:lemma43-import": 0, "level0-c0:lemma45-degstar": 38,
          "level0-c0:lemma27-layer": 2394, "level0-c0:phase1-tokens": 2135,
          "streaming:phase2-steps": 1080, "level0-c0:lemma20-redistribute": 8,
          "level0-c0:lemma20-fetch": 6, "level0-c0:lemma37-edge-learning-p2": 58,
          "level0-c0:lemma37-edge-learning-p3": 149,
          "level0-c0:lemma37-edge-learning-p4": 398,
          "level0-c0:lemma37-edge-learning-p5": 1192},
         {"level0-c0:lemma45-degstar": 7, "level0-c0:lemma27-layer": 3738,
          "level0-c0:phase1-tokens": 7280, "streaming:phase2-state": 6448,
          "level0-c0:lemma20-redistribute": 160, "level0-c0:lemma20-fetch": 360,
          "level0-c0:lemma37-edge-learning-p2": 511,
          "level0-c0:lemma37-edge-learning-p3": 3173,
          "level0-c0:lemma37-edge-learning-p4": 13631,
          "level0-c0:lemma37-edge-learning-p5": 50377}),
    ],
    "communities-72-k4": [
        (3777, 26177, {"level0:decomposition": 293, "level0:clusters": 3484},
         {"level0:clusters": 26177}),
        (3484, 26177,
         {"level0-c0:low-degree": 34, "level0-c0:lemma43-import": 1,
          "level0-c0:lemma45-degstar": 87, "level0-c0:phase1-tokens": 207,
          "streaming:phase2-steps": 1080, "level0-c0:lemma27-layer": 1215,
          "level0-c0:lemma20-redistribute": 6, "level0-c0:lemma20-fetch": 3,
          "level0-c0:lemma37-edge-learning-p2": 198,
          "level0-c0:lemma37-edge-learning-p3": 233,
          "level0-c0:lemma37-edge-learning-p4": 420},
         {"level0-c0:low-degree": 136, "level0-c0:lemma43-import": 1,
          "level0-c0:lemma45-degstar": 63, "level0-c0:phase1-tokens": 3807,
          "streaming:phase2-state": 2832, "level0-c0:lemma27-layer": 1183,
          "level0-c0:lemma20-redistribute": 189, "level0-c0:lemma20-fetch": 117,
          "level0-c0:lemma37-edge-learning-p2": 793,
          "level0-c0:lemma37-edge-learning-p3": 4139,
          "level0-c0:lemma37-edge-learning-p4": 12917}),
    ],
}

# Per case: the clique count and digest, then per split tree built
# ``(p', |V_C^-|, tree sha256, leaf assignment sha256)``.
SPLIT_TREE_PINS = {
    "dense-40-k4": (
        (424, "c64a59953c33372273cb3e7518a7921aea27aae6248b200cb7395db8cfacc616"),
        [
            (2, 40, "976eb3a736c4f3e66345b5a50c147136f2f882101f342f78d0d92a3264855fd5",
             "61be99d187493e9167e1a4e3b59ced25d35c1d8ff688fa204b00e94868e71028"),
            (3, 40, "5673b5af797b58ce825a1fa8131dc980ba44ecf72cf037be1fb715d70b719166",
             "cc9830675b5a7741c80292a848df48832d95ba45f5f8912dea68b9510c0dc2fa"),
            (4, 40, "6c4bc8612442de78646ac2efade5810e34ee0ffb90638a2c83df6a4460ffae61",
             "1a866a96c7dab9af750bdb5d21b4c4038d2fafca28069c69bde482e8561bbfdc"),
        ],
    ),
    "dense-40-k5": (
        (99, "d5534be1205ba6f6e4c2805e4a44ccdb5319a024126c682ada06dd75b122cdd4"),
        [
            (2, 40, "4c852b2ff28d18fc188d6a3f46dc01f6358b9f37c70e6454b866f6d266e50941",
             "88eb674d8813c878b648d58d56318c655fb9f89c579e6c16f60a899372ccb790"),
            (3, 40, "0721ff022c06cefe362ca112df0394420e668d355b7f3a5595fed4a8d906bf9a",
             "f49fe82331ad4fefe5ca70f2c3f4a051cadc382b8c789b65bc06cac7be01d12d"),
            (4, 40, "0770fd648de0033a11fb9707aeb73fab3fc2de3e2b5117adcb4bedee457989cc",
             "34ad26613e49aeeaf9fa0ca5c1428f388823d8fd3e72562a7efe3f571cf8768a"),
            (5, 40, "6f5b4edd3435cd0cfe487e52bee842f5e0bcd48f9468a1a482d4dac07c703c63",
             "47a5010a301fda4d40f104f3b835a9dbebcff26720dc4da78b8a0f5f9edba087"),
        ],
    ),
    "communities-72-k4": (
        (617, "56af523c3218bad97a683833309821168ced1bccdffa9f7365c64e1b43305a8e"),
        [
            (2, 63, "c1d830c28e54a08150479cf22a6adda867547bf788823ea3fc081f9cd807133c",
             "bf8cc55cea618d7750a98db73f4e217a95eeb4192bd957e131d21408af237b55"),
            (3, 63, "66f2ff669240b7e40262116476c6a7b051ee303f0ef9c69daa59ae99bb61f7e1",
             "a42e48d08123a9da40ece8b65d2d05db2e2746984fdaf4f7dfcded006c986f7a"),
            (4, 63, "f650690c7ae305393512a3e2a6f2572fdd156bf4b7e93d5a09aaed95a7c91fd7",
             "f7d574ca349be410e589241801c8ccf2fb1536cbb7aa53259bd5f90ec12a0161"),
        ],
    ),
}


def split_tree_digest(tree) -> str:
    """sha256 of ``[path, [part endpoints, ...]]`` per node, by path."""
    nodes = sorted(tree.nodes(), key=lambda node: node.path)
    return _sha256(
        [[list(node.path), [list(part.endpoints()) for part in node.partition]]
         for node in nodes]
    )


def leaf_assignment_digest(assignment) -> str:
    """sha256 of the sorted ``[path, part index, owner]`` rows."""
    return _sha256(
        sorted([list(path), part, owner] for (path, part), owner in assignment.owner.items())
    )


@pytest.mark.parametrize("case", list(SPLIT_TREE_CASES))
def test_split_tree_listing_is_pinned(case, monkeypatch):
    build, p = SPLIT_TREE_CASES[case]
    trees = []
    accountants = []
    construct = cliques.construct_split_kp_tree
    new_accountant = recursion.RecursiveListingDriver.new_accountant

    def capture(cluster, *args, **kwargs):
        result = construct(cluster, *args, **kwargs)
        trees.append((
            kwargs["p_prime"], cluster.k, split_tree_digest(result.tree),
            leaf_assignment_digest(result.assignment),
        ))
        return result

    def capture_accountant(self, n, metrics=None):
        accountant = new_accountant(self, n, metrics)
        accountants.append(accountant.metrics)
        return accountant

    monkeypatch.setattr(cliques, "construct_split_kp_tree", capture)
    monkeypatch.setattr(recursion.RecursiveListingDriver, "new_accountant", capture_accountant)
    result = CliqueListing(p=p).run(build())
    assert (result.rounds, result.metrics.words) == SPLIT_TREE_METRICS[case][0][:2]
    assert [
        (m.rounds, m.words, dict(m.phase_rounds), dict(m.phase_messages))
        for m in accountants
    ] == SPLIT_TREE_METRICS[case]
    assert ((len(result.cliques), _sha256(sorted(result.cliques))), trees) == (
        SPLIT_TREE_PINS[case]
    )


# ---------------------------------------------------------------------------
# The triangle listing's K3-partition trees (Theorem 16, Lemma 34)
# ---------------------------------------------------------------------------

# Per case and cluster: ``(|V_C^-|, tree sha256, leaf assignment sha256)``,
# then ``(blueprint sha256, phase rounds, phase messages)`` of its predicted
# cost.
K3_TREE_PINS = {
    "skewed-k3": (
        [(150, "90b6640178b4da316c7ae8bbdb37d83ab17b59cb71b3ea692ad7d4bd090acd6c",
          "fffef1d5590c308d08eec46a23f76bc739753a5cd2a5d42e5310024eae3b0ae8")],
        [("514816ee26320cadbf8f39e5fb596a09829ec56a75ade2452c619ddb729946f8",
          {"level0-c0:phase1-tokens": 205, "streaming:phase2-steps": 233,
           "level0-c0:lemma19-phase1": 132, "level0-c0:lemma19-phase2": 131,
           "level0-c0:lemma20-redistribute": 6, "level0-c0:lemma20-fetch": 4,
           "level0-c0:lemma34-edge-learning": 427},
          {"level0-c0:phase1-tokens": 8700, "streaming:phase2-state": 1072,
           "level0-c0:lemma19-phase1": 336, "level0-c0:lemma19-phase2": 9744,
           "level0-c0:lemma20-redistribute": 150, "level0-c0:lemma20-fetch": 343,
           "level0-c0:lemma34-edge-learning": 28843})],
    ),
    "planted-k3": (
        [(58, "c7694df9239845afcf3168733424f796ca837cceac3effb8ff4e2b128dd723d3",
          "f28d2f0d722cdde095c63212a65dd435b6e1206a29fe197297489ecd436b7bcc")],
        [("173ee5984eaba7fdc62a60528ac4b4f6af483653acac1188ea8d00aed4af7356",
          {"level0-c0:phase1-tokens": 117, "streaming:phase2-steps": 176,
           "level0-c0:lemma19-phase1": 66, "level0-c0:lemma19-phase2": 67,
           "level0-c0:lemma20-redistribute": 3, "level0-c0:lemma20-fetch": 2,
           "level0-c0:low-degree": 14, "level0-c0:lemma34-edge-learning": 151},
          {"level0-c0:phase1-tokens": 1856, "streaming:phase2-state": 368,
           "level0-c0:lemma19-phase1": 120, "level0-c0:lemma19-phase2": 1800,
           "level0-c0:lemma20-redistribute": 58, "level0-c0:lemma20-fetch": 125,
           "level0-c0:low-degree": 1760, "level0-c0:lemma34-edge-learning": 2010})],
    ),
}


def blueprint_digest(blueprint) -> str:
    """sha256 of the ``owner_edges`` rows, the sorted ``received_load`` items
    and ``load_per_degree``."""
    return _sha256([
        blueprint.owner_edges.tolist(),
        sorted(blueprint.received_load.items()),
        blueprint.load_per_degree,
    ])


@pytest.mark.parametrize("case", list(K3_TREE_PINS))
def test_k3_partition_trees_are_pinned(case, monkeypatch):
    build, p, scenario = CASES[case]
    trees = []
    costs = []
    construct = triangles.construct_k3_partition_tree
    predict = triangles.TriangleListing.predict_cluster_cost

    def capture(cluster, *args, **kwargs):
        result = construct(cluster, *args, **kwargs)
        trees.append((
            cluster.k, split_tree_digest(result.tree),
            leaf_assignment_digest(result.assignment),
        ))
        return result

    def capture_cost(self, task):
        blueprint, accountant = predict(self, task)
        metrics = accountant.metrics
        costs.append((
            blueprint_digest(blueprint), dict(metrics.phase_rounds),
            dict(metrics.phase_messages),
        ))
        return blueprint, accountant

    monkeypatch.setattr(triangles, "construct_k3_partition_tree", capture)
    monkeypatch.setattr(triangles.TriangleListing, "predict_cluster_cost", capture_cost)
    list_cliques_distributed(build(), p, backend="vectorized", scenario=scenario())
    assert (trees, costs) == K3_TREE_PINS[case]
