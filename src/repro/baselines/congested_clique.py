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
import numpy as np

from repro.congest.metrics import CongestMetrics
from repro.graphs import LabelCSR
from repro.graphs.cliques import Clique, cliques_by_group
from repro.graphs.index import sorted_distinct
from repro.listing.recursion import ListingResult

# Learned edges per kernel pass of ``list_by_part_tuples``.
_PASS_EDGES = 1 << 16


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
) -> tuple[np.ndarray, set[Clique], int, int]:
    """Partition listing: each ``p``-tuple of parts (with repetition) learns
    the edges between its parts and lists the cliques among them.  All
    tuples list in one kernel pass over the ids of ``graph``'s index, one
    group per tuple.

    Returns the number of edges of each part pair ``i <= j`` at ``i * parts
    + j``, the cliques, the number of reports before deduplication and the
    most edges one tuple learns.
    """
    index = LabelCSR.from_graph(graph)
    n, upper = index.n, index.rows < index.indices
    part = np.fromiter(map(part_of.__getitem__, index.labels), dtype=np.int64, count=n)
    us, ws = index.rows[upper], index.indices[upper]
    pair = np.minimum(part[us], part[ws]) * parts + np.maximum(part[us], part[ws])
    tuples = np.array(list(itertools.combinations_with_replacement(range(parts), p)))
    k = len(tuples)
    # Every (part pair, tuple) with both parts in the tuple, ordered by pair.
    first, second = np.triu_indices(p)
    holds = sorted_distinct(
        ((tuples[:, first] * parts + tuples[:, second]) * k + np.arange(k)[:, None]).ravel()
    )
    # Each edge goes to the run of tuples holding its pair.
    start = np.searchsorted(holds, pair * k)
    count = np.searchsorted(holds, pair * k + k) - start
    edge = np.repeat(np.arange(pair.size), count)
    t = holds[np.repeat(start - np.cumsum(count) + count, count) + np.arange(edge.size)] % k
    # Kernel passes over runs of whole tuples of about _PASS_EDGES learned
    # edges each keep its arrays small: the loads sum to about m * parts.
    load = np.bincount(t, minlength=k)
    cuts = np.flatnonzero(np.diff(np.cumsum(load) // _PASS_EDGES)) + 1
    rows = []
    for lo, hi in zip((0, *cuts.tolist()), (*cuts.tolist(), k)):
        inside = (lo <= t) & (t < hi)
        rows.append(cliques_by_group(t[inside], us[edge[inside]], ws[edge[inside]], n, p)[1])
    rows = np.concatenate(rows)
    pair_sizes = np.bincount(pair, minlength=parts * parts)
    return pair_sizes, set(index.label_rows(rows)), len(rows), int(load.max())


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

    pair_sizes, cliques, reports, max_load = list_by_part_tuples(
        graph, group_of, len(groups), p
    )
    rounds = math.ceil(max_load / max(1, n - 1))
    metrics.add_rounds(rounds, phase="congested-clique")
    metrics.add_messages(int(pair_sizes.sum()), phase="congested-clique")
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
