"""Deterministic ``K_p`` listing in the Congested Clique ([DLP12]).

Dolev, Lenzen and Peled partition the vertex set deterministically into
``x = n^{1/p}`` groups of ``n^{1-1/p}`` consecutive vertices; each of the
``x^p = n`` ordered ``p``-tuples of groups is assigned to one vertex, which
learns all edges between the groups of its tuple and reports the cliques it
sees.  Because the Congested Clique allows every pair of vertices to exchange
a word per round, the per-vertex receive load of ``O(p^2 n^{2-2/p})`` words
translates into ``O(n^{1-2/p} / log n)`` rounds — the complexity the paper's
CONGEST algorithms match up to ``n^{o(1)}``.

The Congested Clique is a different model from CONGEST, so this baseline has
its own round accounting: ``rounds = ceil(max-load / (n-1))`` (every vertex
has ``n-1`` incident links).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Mapping

import networkx as nx

from repro.congest.metrics import CongestMetrics
from repro.graphs import canonical_edge
from repro.graphs.cliques import Clique, cliques_in_edge_set
from repro.listing.recursion import ListingResult

Edge = tuple[int, int]


@dataclass
class CongestedCliqueReport:
    """Diagnostics of the DLP12 run."""

    x: int
    groups: int
    tuples: int
    max_words_per_vertex: int
    theoretical_rounds: float


def list_by_part_tuples(
    graph: nx.Graph, part_of: Mapping[Hashable, int], parts: int, p: int
) -> tuple[dict[tuple[int, int], set[Edge]], set[Clique], int, int]:
    """Partition listing: each ``p``-tuple of parts (with repetition) learns
    the edges between its parts and lists the cliques among them.

    Returns the edges of each part pair, the cliques, the number of reports
    before deduplication and the most edges one tuple learns.
    """
    pair_edges: dict[tuple[int, int], set[Edge]] = {}
    for u, v in graph.edges:
        i, j = sorted((part_of[u], part_of[v]))
        pair_edges.setdefault((i, j), set()).add(canonical_edge(u, v))
    cliques: set[Clique] = set()
    reports = max_load = 0
    for part_tuple in itertools.combinations_with_replacement(range(parts), p):
        learned: set[Edge] = set()
        for i, j in itertools.combinations_with_replacement(sorted(set(part_tuple)), 2):
            learned |= pair_edges.get((i, j), set())
        max_load = max(max_load, len(learned))
        found = cliques_in_edge_set(learned, p)
        reports += len(found)
        cliques |= found
    return pair_edges, cliques, reports, max_load


def congested_clique_listing(graph: nx.Graph, p: int = 3) -> tuple[ListingResult, CongestedCliqueReport]:
    """Run the deterministic DLP12 listing in the Congested Clique model."""
    n = graph.number_of_nodes()
    metrics = CongestMetrics()
    if n == 0:
        return (
            ListingResult(cliques=set(), p=p, rounds=0, levels=1, metrics=metrics),
            CongestedCliqueReport(0, 0, 0, 0, 0.0),
        )
    vertices = sorted(graph.nodes)
    x = max(1, math.ceil(n ** (1.0 / p)))
    group_size = math.ceil(n / x)
    groups = [vertices[i * group_size : (i + 1) * group_size] for i in range(x)]
    groups = [g for g in groups if g]
    group_of = {}
    for index, group in enumerate(groups):
        for vertex in group:
            group_of[vertex] = index

    pair_edges, cliques, reports, max_load = list_by_part_tuples(
        graph, group_of, len(groups), p
    )
    rounds = math.ceil(max_load / max(1, n - 1))
    metrics.add_rounds(rounds, phase="congested-clique")
    metrics.add_messages(
        sum(len(edges) for edges in pair_edges.values()), phase="congested-clique"
    )
    theoretical = (n ** (1.0 - 2.0 / p)) / max(1.0, math.log2(max(2, n)))
    report = CongestedCliqueReport(
        x=x,
        groups=len(groups),
        tuples=math.comb(len(groups) + p - 1, p),
        max_words_per_vertex=max_load,
        theoretical_rounds=theoretical,
    )
    result = ListingResult(
        cliques=cliques, p=p, rounds=rounds, levels=1, metrics=metrics,
        reports=reports, fallback_edges=0,
    )
    return result, report
