"""Randomized load-balanced listing in the style of [CPSZ21] / [CHCLL21].

The randomized optimum the paper matches deterministically works as follows
(the "standard approach" recalled in Section 1.1): choose a uniformly random
partition ``V = V_1 ∪ ... ∪ V_x`` with ``x = Θ(n^{1/p})``; with high
probability the number of edges between any two parts is ``~|E|/x^2``; assign
every ``p``-tuple of parts to some vertex, which learns all edges between the
parts of its tuple and reports the cliques it sees.  Every clique falls into
at least one tuple, so listing is complete.

The implementation mirrors the deterministic pipeline's cost accounting so
experiment E3 can compare like for like: the only difference is that the
per-part edge balance is achieved by randomness instead of partition trees,
and that the routing overhead can be taken as the cheaper randomized one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import networkx as nx

from repro.baselines.congested_clique import list_by_part_tuples
from repro.congest.cost import CostAccountant, RoutingOverhead, polylog_overhead
from repro.congest.metrics import CongestMetrics
from repro.listing.recursion import ListingResult


@dataclass
class RandomizedListingReport:
    """Extra diagnostics of the randomized baseline."""

    x: int
    max_pair_edges: int
    expected_pair_edges: float
    balance_ratio: float


def randomized_partition_listing(
    graph: nx.Graph,
    p: int = 3,
    seed: int = 0,
    overhead: RoutingOverhead | None = None,
) -> tuple[ListingResult, RandomizedListingReport]:
    """Run the randomized partition-based listing baseline.

    Returns the listing result (with cost-model round accounting) together
    with a balance report: the maximum number of edges between any two parts
    versus the ``2|E|/x^2`` expectation, i.e. how well randomness achieved the
    load balance the deterministic partition trees must work for.
    """
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    metrics = CongestMetrics()
    accountant = CostAccountant(
        n=max(1, n), overhead=overhead or polylog_overhead(), metrics=metrics
    )
    if n == 0 or m == 0:
        empty = ListingResult(cliques=set(), p=p, rounds=0, levels=1, metrics=metrics)
        return empty, RandomizedListingReport(0, 0, 0.0, 1.0)

    rng = random.Random(seed)
    x = max(2, math.ceil(n ** (1.0 / p)))
    part_of = {v: rng.randrange(x) for v in graph.nodes}
    # Each p-tuple of parts (with repetition) is assigned to a vertex, which
    # learns all edges between parts of its tuple.  The per-vertex load is the
    # quantity the round cost is driven by.
    pair_sizes, cliques, reports, max_load = list_by_part_tuples(graph, part_of, x, p)

    # Cost: every vertex sends each of its edges O(x^{p-2} / n^{(p-2)/p}) = O(1)
    # times per tuple dimension; the binding term is the per-vertex receive
    # load, exactly as in the deterministic algorithm.
    delta = max(1, int(n ** (1.0 - 2.0 / p)))
    accountant.route_within_cluster(
        max_words_per_vertex=max_load,
        min_degree=delta,
        phase="randomized-edge-learning",
        total_words=int(pair_sizes.sum()),
    )

    max_pair = int(pair_sizes.max())
    expected = 2.0 * m / (x * x)
    report = RandomizedListingReport(
        x=x,
        max_pair_edges=max_pair,
        expected_pair_edges=expected,
        balance_ratio=max_pair / expected if expected > 0 else 1.0,
    )
    result = ListingResult(
        cliques=cliques,
        p=p,
        rounds=metrics.rounds,
        levels=1,
        metrics=metrics,
        reports=reports,
        fallback_edges=0,
    )
    return result, report
