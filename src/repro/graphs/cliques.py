"""Ground-truth clique enumeration, and the clique kernel of local listing.

The listing algorithms are validated against an independent, centralized
enumeration of all ``K_p`` instances.  For triangles we use a sorted
neighbourhood-intersection enumeration; for larger ``p`` we extend partial
cliques vertex by vertex over higher-numbered neighbours, which enumerates
each instance exactly once.

The local step of every listing algorithm (a vertex listing the cliques in
what it learned) runs :func:`extend_cliques` instead, which shares no code
with the ground truth :func:`enumerate_cliques` it is checked against.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Iterator, Mapping

import networkx as nx

Clique = tuple[int, ...]


def canonical_clique(vertices: Iterable[int]) -> Clique:
    """Canonical (sorted tuple) representation of a clique instance."""
    return tuple(sorted(vertices))


def enumerate_cliques(graph: nx.Graph, p: int) -> set[Clique]:
    """All instances of ``K_p`` in ``graph`` as canonical tuples.

    Args:
        graph: undirected simple graph.
        p: clique size, ``p >= 1``.

    Returns:
        The set of all ``p``-vertex cliques, each as a sorted tuple.
    """
    if p < 1:
        raise ValueError("clique size must be positive")
    if p == 1:
        return {(v,) for v in graph.nodes}
    if p == 2:
        return {canonical_clique(edge) for edge in graph.edges}
    return set(_iterate_cliques(graph, p))


def _iterate_cliques(graph: nx.Graph, p: int) -> Iterator[Clique]:
    """Enumerate ``K_p`` by extending over higher-numbered common neighbours."""
    adjacency = {v: set(graph.neighbors(v)) for v in graph.nodes}
    ordered = sorted(graph.nodes)

    def extend(partial: list[int], candidates: set[int]) -> Iterator[Clique]:
        if len(partial) == p:
            yield tuple(partial)
            return
        # Only extend with vertices larger than the last chosen one so each
        # clique is produced exactly once, in sorted order.
        last = partial[-1]
        for candidate in sorted(candidates):
            if candidate <= last:
                continue
            yield from extend(partial + [candidate], candidates & adjacency[candidate])

    for vertex in ordered:
        yield from extend([vertex], {u for u in adjacency[vertex] if u > vertex})


def count_cliques(graph: nx.Graph, p: int) -> int:
    """Number of ``K_p`` instances in ``graph``."""
    return len(enumerate_cliques(graph, p))


def extend_cliques(
    higher: Mapping[Hashable, set],
    candidates: set,
    size: int,
    prefix: Clique,
    found: set[Clique],
) -> None:
    """Add ``prefix + rest`` to ``found`` for every ``size``-clique ``rest`` of ``candidates``.

    The clique kernel of every local listing step.  ``higher`` is an
    adjacency mapping that keeps only higher-id neighbours (``higher[u]``
    holds the neighbours of ``u`` larger than ``u``), so a clique is reached
    once, along its sorted order, and comes out canonical when ``prefix`` is
    sorted and below every candidate.  Candidates narrow by set
    intersection, and the last level is emitted in one flat loop instead of
    one call per clique.
    """
    if size <= 1:
        if size == 0:
            found.add(prefix)
        else:
            found.update([prefix + (c,) for c in candidates])
        return
    if size == 2:
        for c in candidates:
            pair = prefix + (c,)
            found.update([pair + (w,) for w in candidates & higher[c]])
        return
    for c in candidates:
        narrowed = candidates & higher[c]
        if len(narrowed) >= size - 1:
            extend_cliques(higher, narrowed, size - 1, prefix + (c,), found)


def cliques_in_edge_set(edges: Iterable[tuple[int, int]], p: int) -> set[Clique]:
    """All ``K_p`` formed by an explicit edge set.

    This is the local computation a vertex performs after *learning* a set of
    edges (the final step of Lemmas 34 and 37, and of the distributed
    edge-learning protocol): every ``p``-subset of endpoints whose
    ``p(p-1)/2`` edges are all present in the set is a clique instance.  The
    edges become a higher-id adjacency mapping (a dict of sets; no graph
    object) that :func:`extend_cliques` lists from.
    """
    if p < 1:
        raise ValueError("clique size must be positive")
    higher: dict[Hashable, set] = {}
    for u, w in edges:
        if w < u:
            u, w = w, u
        higher.setdefault(u, set()).add(w)
        higher.setdefault(w, set())
    found: set[Clique] = set()
    for u, above in higher.items():
        extend_cliques(higher, above, p - 1, (u,), found)
    return found


def cliques_containing_edge(graph: nx.Graph, edge: tuple[int, int], p: int) -> set[Clique]:
    """All ``K_p`` instances that contain the given edge."""
    u, v = edge
    if not graph.has_edge(u, v):
        return set()
    if p == 2:
        return {canonical_clique((u, v))}
    common = set(graph.neighbors(u)) & set(graph.neighbors(v))
    result: set[Clique] = set()
    for extension in itertools.combinations(sorted(common), p - 2):
        if all(graph.has_edge(a, b) for a, b in itertools.combinations(extension, 2)):
            result.add(canonical_clique((u, v) + extension))
    return result


def triangles_of_vertex(graph: nx.Graph, vertex: int) -> set[Clique]:
    """All triangles containing ``vertex`` (used by the local-search baseline)."""
    neighbors = sorted(graph.neighbors(vertex))
    result: set[Clique] = set()
    for a, b in itertools.combinations(neighbors, 2):
        if graph.has_edge(a, b):
            result.add(canonical_clique((vertex, a, b)))
    return result
