"""Ground-truth clique enumeration, and the clique kernel of local listing.

The listing algorithms are validated against an independent, centralized
enumeration of all ``K_p`` instances, :func:`enumerate_cliques`: it extends
partial cliques vertex by vertex over sets of higher-numbered neighbours,
which enumerates each instance exactly once.

Every local step of every listing algorithm (a lister over its 2-hop view,
an edge owner over the edges it learned) runs :func:`cliques_in_edge_set`
instead: one array pass over integer ids, which shares no code with the
ground truth it is checked against; :func:`cliques_by_group` and
:func:`cliques_through` are its two common uses.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import networkx as nx
import numpy as np

from repro.graphs.index import self_loop, sorted_distinct

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


# Partial cliques grow in blocks of at most this many candidate vertices
# beyond those of the block's first partial clique, so the kernel's
# temporaries stay a few arrays of about this length whatever the number of
# cliques.
_BLOCK_CANDIDATES = 1 << 16


def cliques_in_edge_set(us: np.ndarray, ws: np.ndarray, p: int) -> np.ndarray:
    """Every ``K_p`` of the graph of the edges ``(us[i], ws[i])``.

    The clique kernel of every local listing step.  Ids are any
    non-negative integers, not necessarily contiguous; an edge may come in
    either orientation and more than once.  Each edge is oriented from its
    smaller id, and a partial clique grows by each higher neighbour of its
    last vertex that is adjacent to all its other vertices, tested by
    ``searchsorted`` on the sorted edge keys, so every clique is reached
    once, in increasing order.

    Returns:
        ``int64[k, p]``: the cliques as increasing rows in lexicographic
        order (``p = 1``: the endpoints; ``p = 2``: the edges).

    Raises:
        ValueError: when ``p < 1``, or when an edge is a self-loop.
    """
    if p < 1:
        raise ValueError("clique size must be positive")
    us = np.asarray(us, dtype=np.int64)
    ws = np.asarray(ws, dtype=np.int64)
    if (loops := np.flatnonzero(us == ws)).size:
        raise self_loop(int(us[loops[0]]))
    ids = sorted_distinct(np.concatenate((us, ws)))
    if p == 1:
        return ids[:, None]
    # Dense ids 0..k-1; edge keys low * k + high, sorted, so the higher
    # neighbours of ``v`` are ``heads[starts[v]:starts[v + 1]]``, increasing.
    k = ids.size
    keys = sorted_distinct(
        np.searchsorted(ids, np.minimum(us, ws)) * k + np.searchsorted(ids, np.maximum(us, ws))
    )
    tails, heads = np.divmod(keys, k)
    starts = np.searchsorted(tails, np.arange(k + 1))
    cliques = np.column_stack((tails, heads))
    for _ in range(p - 2):
        # A block's rows share the multiple of _BLOCK_CANDIDATES that their
        # running candidate counts have passed.
        counts = starts[cliques[:, -1] + 1] - starts[cliques[:, -1]]
        cuts = np.flatnonzero(np.diff(np.cumsum(counts) // _BLOCK_CANDIDATES)) + 1
        grown = [np.empty((0, cliques.shape[1] + 1), dtype=np.int64)]
        for block, sizes in zip(np.split(cliques, cuts), np.split(counts, cuts)):
            # Each row's candidates: the higher neighbours of its last vertex.
            row = np.repeat(np.arange(len(block)), sizes)
            shift = starts[block[:, -1]] - np.cumsum(sizes) + sizes
            new = heads[np.arange(row.size) + np.repeat(shift, sizes)]
            for column in block.T[:-1]:
                probe = column[row] * k + new
                hit = keys[np.minimum(np.searchsorted(keys, probe), keys.size - 1)] == probe
                row, new = row[hit], new[hit]
            grown.append(np.column_stack((block[row], new)))
        cliques = np.concatenate(grown)
    return ids[cliques]


def cliques_by_group(
    groups: np.ndarray, us: np.ndarray, ws: np.ndarray, n: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every ``K_p`` of each group's edges in one kernel pass: edge ``(us[i],
    ws[i])`` (ids below ``n``) of group ``groups[i]`` goes in as ``(g * n +
    us[i], g * n + ws[i])``, so no clique spans two groups.  Returns each
    clique's group and its increasing id row, ordered by group, then row."""
    base = np.asarray(groups, dtype=np.int64) * n
    group, rows = np.divmod(cliques_in_edge_set(base + us, base + ws, p), max(n, 1))
    return group[:, 0], rows


def cliques_through(us: np.ndarray, ws: np.ndarray, mask: np.ndarray, p: int) -> np.ndarray:
    """Every ``K_p`` of the edges ``(us[i], ws[i])`` (ids below ``len(mask)``)
    through a vertex ``v`` with ``mask[v]``, as the kernel's rows; at
    ``p = 1``, the marked vertices, isolated or not."""
    if p == 1:
        return np.flatnonzero(mask)[:, None]
    rows = cliques_in_edge_set(us, ws, p)
    return rows[mask[rows].any(axis=1)]
