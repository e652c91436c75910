"""Exhaustive 2-hop listing (Lemma 35, quoted from [CHFL+22, Claim 19]).

Every vertex ``v`` with ``deg(v) <= α`` can deterministically learn its
*induced* 2-hop neighbourhood in ``O(α)`` CONGEST rounds: ``v`` announces its
adjacency list to its neighbours (``α`` rounds, pipelined one identifier per
round per edge) and each neighbour answers which of the announced vertices it
is adjacent to (another ``α`` rounds).  Knowing the induced neighbourhood,
``v`` locally lists every clique that contains it.

The module provides both the centralized computation (which cliques each
low-degree vertex reports) and the round cost, and is used (a) inside the
listing algorithms for the low-degree vertices of each cluster and (b) as the
standalone exhaustive-search baseline of experiment E8.  It lists with one
pass of the clique kernel over the edges of the vertices' 2-hop views
(:func:`~repro.graphs.cliques.cliques_through`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.congest.cost import CostAccountant
from repro.graphs.cliques import Clique, cliques_through
from repro.graphs.index import LabelCSR


def exhaustive_rounds_bound(alpha: int) -> int:
    """Round cost of Lemma 35 for degree threshold ``alpha``: ``O(alpha)``.

    The constant is 2 (announce + answer), matching the protocol sketch.
    """
    return max(0, 2 * alpha)


def cliques_through_vertex(
    graph: Mapping[Hashable, Iterable[Hashable]], vertex: Hashable, p: int
) -> set[Clique]:
    """All ``K_p`` of ``graph`` containing ``vertex`` (local computation).

    ``graph`` is any adjacency mapping of an undirected graph: ``graph[v]``
    yields the neighbours of ``v``, so an ``nx.Graph`` and a dict of sets
    both qualify, and only ``vertex`` and its neighbours are looked up.
    This is exactly what the vertex can compute after learning its induced
    neighbourhood: every clique through ``v`` lies in ``v``'s closed
    neighbourhood, whose ``K_p`` the clique kernel lists.
    """
    return _cliques_through(graph, [vertex], p)


def _cliques_through(
    graph: Mapping[Hashable, Iterable[Hashable]], vertices: list, p: int
) -> set[Clique]:
    """Every ``K_p`` of ``graph`` through one of ``vertices``, in one kernel
    pass over the edges of their 2-hop views: an edge of the subgraph they
    span goes in when one of them is an end of it or a neighbour of both."""
    closure = set(vertices).union(*(graph[v] for v in vertices))
    index = LabelCSR.from_edges(
        ((u, w) for u in closure for w in graph[u] if w in closure), closure
    )
    mine = np.zeros(index.n, dtype=bool)
    mine[index.ids(vertices)] = True
    us, ws = index.rows, index.indices
    seen = mine[us] | mine[ws]
    if not seen.all():
        near, rest = index.matrix[:, mine], np.flatnonzero(~seen)
        seen[rest] = near[us[rest]].multiply(near[ws[rest]]).sum(axis=1) > 0
    return set(index.label_rows(cliques_through(us[seen], ws[seen], mine, p)))


def charge_exhaustive_pass(
    degrees: Sequence[int] | np.ndarray,
    alpha: int,
    accountant: CostAccountant,
    phase: str = "exhaustive-2hop",
) -> int:
    """Charge the ``O(alpha)`` rounds of a Lemma 35 pass at these ``degrees``.

    Shared by :func:`two_hop_exhaustive_listing` (which also performs the
    centralized clique extraction) and by the distributed listing planner,
    which needs the *predicted* cost of an exhaustive pass it is about to
    execute for real on the engine.  Returns the charged round bound.
    """
    rounds = exhaustive_rounds_bound(alpha)
    if len(degrees):
        accountant.direct_exchange(
            max_words_sent_per_vertex=2 * alpha,
            max_words_received_per_vertex=2 * alpha,
            min_degree=1,
            phase=phase,
            total_words=2 * int(np.minimum(degrees, alpha).sum()),
        )
    return rounds


@dataclass
class ExhaustiveListingOutcome:
    """Result of the 2-hop exhaustive pass over a set of vertices."""

    cliques: set[Clique]
    rounds: int
    vertices_processed: int


def two_hop_exhaustive_listing(
    graph: nx.Graph,
    vertices: Iterable[int],
    p: int,
    alpha: int | None = None,
    accountant: CostAccountant | None = None,
    phase: str = "exhaustive-2hop",
) -> ExhaustiveListingOutcome:
    """Run the Lemma 35 exhaustive pass for a set of (low-degree) vertices.

    Args:
        graph: the graph the cliques live in.
        vertices: the vertices that learn their induced 2-hop neighbourhood;
            the pass runs for all of them in parallel.
        p: clique size to list.
        alpha: degree bound used for the round cost (defaults to the maximum
            degree among ``vertices``).
        accountant: optional cost accountant; when given, ``O(alpha)`` rounds
            are charged to ``phase`` (the per-vertex work runs in parallel).

    Returns:
        The union of all cliques through the given vertices, with the round
        cost of the pass.
    """
    vertex_list = [v for v in vertices if v in graph]
    if not vertex_list:
        return ExhaustiveListingOutcome(cliques=set(), rounds=0, vertices_processed=0)
    degrees = [graph.degree(v) for v in vertex_list]
    if alpha is None:
        alpha = max(degrees)
    rounds = exhaustive_rounds_bound(alpha)
    if accountant is not None:
        charge_exhaustive_pass(degrees, alpha, accountant, phase=phase)
    return ExhaustiveListingOutcome(
        _cliques_through(graph, vertex_list, p), rounds, len(vertex_list)
    )
