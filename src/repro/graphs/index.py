"""One array index of a graph, its vertices numbered in label order.

:class:`LabelCSR` holds a graph once, as compressed sparse rows.  Dense id
``i`` is the ``i``-th smallest label, so an interval of a sorted vertex
universe (a partition-tree part) is an id range, and each row lists its
neighbours in increasing id, hence label, order.  A vector run of the
engine reads the index's arrays, its ids and slots; per-vertex code runs on
the ``networkx`` graph built from it in label order (:attr:`LabelCSR.graph`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Hashable, Iterable

import networkx as nx
import numpy as np
import scipy.sparse

Edge = tuple[int, int]


def canonical_edge(u: Hashable, v: Hashable) -> Edge:
    """The undirected edge ``{u, v}`` as a tuple, smaller label first."""
    return (u, v) if u <= v else (v, u)


def self_loop(vertex: Hashable) -> ValueError:
    """The error every edge indexer raises on a self-loop at ``vertex``."""
    return ValueError(f"self-loop at vertex {vertex!r}: the graph must be simple")


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, increasing; inverses are a
    ``searchsorted`` of the keys into them."""
    return distinct_counts(keys)[0]


def distinct_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys``, increasing, and how often each
    occurs, by one sort (45k ``int64`` keys: 0.4 ms, where ``np.unique``'s
    hash table in numpy 2.4 takes 9 ms)."""
    keys = np.sort(keys)
    step = np.ones(keys.size, dtype=bool)
    step[1:] = keys[1:] != keys[:-1]
    first = np.flatnonzero(step)
    return keys[first], np.diff(first, append=keys.size)


def unique_triples(keys: np.ndarray, n: int) -> np.ndarray:
    """The increasing distinct rows ``(a, b, c)`` of non-negative keys
    ``(a * n + b) * n + c``, as ``int64[k, 3]``."""
    first, rest = np.divmod(sorted_distinct(keys), n * n)
    return np.column_stack((first, *np.divmod(rest, n)))


def runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1`` for every
    ``i``, laid end to end."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def edges_among(index: "LabelCSR", ranges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per group ``g`` of ``ranges`` (``int64[G, d, 2]``: ``d`` id ranges
    ``(lo, hi)`` of ``index`` each), the edges between two of its ranges,
    each once, as increasing pairs ``(g, u * n + w)`` with ``u < w``: one
    :meth:`LabelCSR.edges_between` gather over every group's pairs."""
    left, right = np.triu_indices(ranges.shape[1], k=1)
    keys = index.edges_between(
        ranges[:, left].reshape(-1, 2).T, ranges[:, right].reshape(-1, 2).T
    )
    # Key q * n^2 + e of pair q to g * n^2 + e of its group.
    nn = index.n * index.n
    return np.divmod(sorted_distinct(keys // (left.size * nn) * nn + keys % nn), nn)


@dataclass(frozen=True, eq=False)
class LabelCSR:
    """A simple undirected graph as label-sorted compressed sparse rows.

    Attributes:
        labels: vertex labels; id ``i`` is ``labels[i]``.  They increase,
            except in an index built by :meth:`from_ids` in another order.
        indptr: ``int64[n + 1]``; the neighbours of ``i`` are
            ``indices[indptr[i]:indptr[i + 1]]``, increasing.
        indices: ``int64[2m]`` neighbour ids.
    """

    labels: tuple
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple], vertices: Iterable[Hashable] = ()
    ) -> "LabelCSR":
        """The graph of ``edges`` (either orientation, repeats allowed) on
        their endpoints plus ``vertices``; a self-loop raises ``ValueError``."""
        flat = list(chain.from_iterable(edges))
        labels = tuple(sorted(set(flat).union(vertices)))
        id_of = dict(zip(labels, range(len(labels))))
        ends = np.fromiter(map(id_of.__getitem__, flat), dtype=np.int64, count=len(flat))
        return cls.from_ids(labels, ends[0::2], ends[1::2])

    @classmethod
    def from_ids(cls, labels: tuple, us: np.ndarray, ws: np.ndarray) -> "LabelCSR":
        """The graph of the id pairs ``(us[i], ws[i])`` (either orientation,
        repeats allowed) on ``labels``, in their order."""
        if (loops := np.flatnonzero(us == ws)).size:
            raise self_loop(labels[us[loops[0]]])
        n = len(labels)
        rows, indices = np.divmod(
            sorted_distinct(np.concatenate((us * n + ws, ws * n + us))), max(n, 1)
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(labels=labels, indptr=indptr, indices=indices)

    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "LabelCSR":
        """The index of a ``networkx`` graph, isolated vertices included."""
        return cls.from_edges(graph.edges, graph.nodes)

    @property
    def n(self) -> int:
        return len(self.labels)

    def number_of_edges(self) -> int:  # named as ``nx.Graph`` names it
        return int(self.indices.size) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def rows(self) -> np.ndarray:
        """The row (source id) of every entry of ``indices``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    @cached_property
    def id_of(self) -> dict[Hashable, int]:
        return dict(zip(self.labels, range(self.n)))

    def ids(self, labels: Iterable[Hashable]) -> np.ndarray:
        """Dense ids of ``labels``, in their order (``KeyError`` on a stranger)."""
        return np.fromiter(map(self.id_of.__getitem__, labels), dtype=np.int64)

    @cached_property
    def label_array(self) -> np.ndarray:
        """``labels`` as an object array, to map id arrays to labels."""
        return np.fromiter(self.labels, dtype=object, count=self.n)

    def label_pairs(self, keys: np.ndarray) -> list[tuple]:
        """The label pairs of edge keys ``u * n + w``."""
        us, ws = np.divmod(keys, self.n)
        return list(zip(self.label_array[us].tolist(), self.label_array[ws].tolist()))

    def label_rows(self, rows: np.ndarray) -> list[tuple]:
        """The label tuples of the id rows ``rows`` (``int64[k, p]``)."""
        return list(zip(*(self.label_array[column].tolist() for column in rows.T)))

    def edges(self) -> list[tuple]:
        """Every edge once as a label pair, smaller id first, in row order."""
        upper = self.rows < self.indices
        return self.label_pairs(self.rows[upper] * self.n + self.indices[upper])

    @cached_property
    def graph(self) -> nx.Graph:
        """The ``networkx`` graph: nodes and every adjacency in label order."""
        graph = nx.Graph()
        graph.add_nodes_from(self.labels)
        graph.add_edges_from(self.edges())
        return graph

    @cached_property
    def matrix(self) -> scipy.sparse.csr_array:
        """The 0/1 ``int64`` adjacency matrix over the index's own arrays."""
        ones = np.ones(self.indices.size, dtype=np.int64)
        return scipy.sparse.csr_array(
            (ones, self.indices, self.indptr), shape=(self.n, self.n)
        )

    def induced(self, ids: np.ndarray) -> "LabelCSR":
        """The subgraph induced on the increasing ``ids``, renumbered ``0..k-1``;
        it reads only their rows, so its cost follows their degrees, not ``n``."""
        k, counts = len(ids), self.degrees[ids]
        neighbours = self.indices[runs(self.indptr[ids], counts)]
        cols = np.searchsorted(ids, neighbours)
        keep = ids[np.minimum(cols, k - 1)] == neighbours
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(np.repeat(np.arange(k), counts)[keep], minlength=k), out=indptr[1:])
        labels = tuple(self.label_array[ids].tolist())
        return LabelCSR(labels=labels, indptr=indptr, indices=cols[keep])

    def edge_subgraph(self, us: np.ndarray, ws: np.ndarray) -> "LabelCSR":
        """The graph of the edges ``(us[i], ws[i])`` (ids, either orientation,
        repeats allowed) on their endpoints, renumbered ``0..k-1``."""
        ends = np.concatenate((us, ws))
        kept = sorted_distinct(ends)
        ends = np.searchsorted(kept, ends)
        labels = tuple(self.label_array[kept].tolist())
        return LabelCSR.from_ids(labels, ends[: len(us)], ends[len(us):])

    @cached_property
    def slot_keys(self) -> np.ndarray:
        """``row * n + neighbour`` of every slot of ``indices``, increasing."""
        return self.rows * self.n + self.indices

    def slots(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """The slots of the directed edges ``us[i] -> ws[i]``, which must exist."""
        return np.searchsorted(self.slot_keys, us * self.n + ws)

    @cached_property
    def reverse(self) -> np.ndarray:
        """Per slot ``u -> w``, the slot of ``w -> u``."""
        return self.slots(self.indices, self.rows)

    def degrees_into(self, lo: int, hi: int) -> np.ndarray:
        """Per row, the number of neighbours with id in ``[lo, hi]``."""
        if hi < lo:
            return np.zeros(self.n, dtype=np.int64)
        keys = self.slot_keys
        base = np.arange(self.n, dtype=np.int64) * self.n
        return np.searchsorted(keys, base + hi, "right") - np.searchsorted(keys, base + lo)

    def edges_between(self, rows: tuple, columns: tuple) -> np.ndarray:
        """Edges with one end in the id range ``rows`` and the other in the id
        range ``columns`` (inclusive), as keys ``u * n + w`` with ``u < w``.

        The ranges are ``(lo, hi)`` pairs of ids, or of equal-length id
        arrays for many pairs of ranges in one gather: the edges of pair
        ``q`` get the keys ``q * n^2 + u * n + w``.  An edge with both ends
        in both ranges of a pair is listed twice.
        """
        lo, hi, first, last = map(np.atleast_1d, np.broadcast_arrays(*rows, *columns))
        sizes = np.maximum(hi - lo + 1, 0)
        pair = np.repeat(np.arange(lo.size), sizes)
        us = runs(lo, sizes)
        # A row's neighbours in a range are a run of its sorted slots.
        begin = self.slot_keys.searchsorted(us * self.n + first[pair])
        end = self.slot_keys.searchsorted(us * self.n + last[pair], "right")
        counts = np.maximum(end - begin, 0)
        ws = self.indices[runs(begin, counts)]
        pair, us = np.repeat(pair, counts), np.repeat(us, counts)
        return (pair * self.n + np.minimum(us, ws)) * self.n + np.maximum(us, ws)

    def distances(self, roots: np.ndarray) -> np.ndarray:
        """Hop distances from each root, ``int32[len(roots), n]``, ``-1`` where
        a vertex is unreachable from the root.  All roots advance together, one
        BFS level per sparse product with the adjacency matrix."""
        count = len(roots)
        columns = np.arange(count)
        distances = np.full((self.n, count), -1, dtype=np.int32)
        distances[roots, columns] = 0
        frontier = np.zeros((self.n, count), dtype=np.float32)
        frontier[roots, columns] = 1
        level = 0
        while (fresh := (self.matrix @ frontier > 0) & (distances < 0)).any():
            level += 1
            distances[fresh] = level
            frontier = fresh.astype(np.float32)
        return np.ascontiguousarray(distances.T)
