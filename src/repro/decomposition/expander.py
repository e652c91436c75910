"""Deterministic expander decomposition (Theorem 5 substitute).

The paper uses the Chang–Saranurak deterministic distributed expander
decomposition as a black box: a partition ``E = E_1 ∪ ... ∪ E_x ∪ E_r`` where
the subgraphs ``G[E_i]`` are vertex-disjoint φ-clusters and ``|E_r| <= ε|E|``.
Re-implementing the distributed CS20 construction (cut-matching games with
deterministic derandomisation) is far outside the scope of a Python
reproduction, and the listing layer only depends on the *output object*.  We
therefore provide a deterministic, centralized construction with the same
guarantees, and charge its round cost separately through the cost model
(see :func:`decomposition_round_cost`).

The construction is the classical recursive sparse-cut argument:

1. pick ``φ = ε / (2 ⌈log2 m⌉ + 2)``;
2. on each connected piece, search for a sweep cut (over the Fiedler vector
   of the normalised Laplacian) of conductance below ``φ``;
3. if none exists, the piece is certified as a φ-cluster; otherwise remove
   the cut edges (they join the remainder ``E_r``) and recurse on both sides.

Charging every removed edge to an endpoint on the smaller-volume side of its
cut shows each edge is charged ``O(log m)`` times with ``φ`` volume fraction
per level, so ``|E_r| <= ε |E|`` — the same accounting CS20 and its
predecessors use.  Because the cut search is spectral and ties are broken by
vertex identifier, the whole procedure is deterministic.

All of it runs on one label-sorted CSR of the input (``index``): components
from ``scipy.sparse.csgraph``, pieces as induced sub-indices, sweep cuts as
prefix sums over the Fiedler order.  Clusters are numbered ``0..k-1`` in
increasing order of their smallest vertex label, so the numbering depends on
the clusters alone, not on the order the cuts found them in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import networkx as nx
import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components

from repro.congest.cost import CostAccountant
from repro.graphs.index import LabelCSR

Edge = tuple[int, int]


@dataclass(frozen=True, eq=False)
class ExpanderCluster:
    """One φ-cluster of a decomposition.

    Attributes:
        index: position of this cluster in the decomposition.
        piece: the cluster ``G[E_i]`` as a label-sorted CSR, induced on ``V_i``
            in the decomposed graph; ``vertices`` and ``edges`` come from it.
        members: ``V_i`` as increasing ids of the decomposition's index.
        conductance_lower_bound: the certified conductance lower bound
            (no sweep cut below this value exists in the cluster).
    """

    index: int
    piece: LabelCSR
    members: np.ndarray
    conductance_lower_bound: float

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(self.piece.labels)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.piece.edges())

    def subgraph(self) -> nx.Graph:
        """The cluster as a standalone graph ``G[E_i]``, in label order."""
        return self.piece.graph

    @property
    def num_vertices(self) -> int:
        return self.piece.n

    @property
    def num_edges(self) -> int:
        return self.piece.number_of_edges()


@dataclass
class ExpanderDecomposition:
    """An (ε, φ)-expander decomposition (Definition 4).

    ``E = E_1 ∪ ... ∪ E_x ∪ E_r`` with vertex-disjoint φ-clusters ``G[E_i]``
    and ``|E_r| <= ε |E|`` (the bound holds for the construction in this
    module; :meth:`remainder_fraction` reports the achieved value).
    """

    index: LabelCSR
    epsilon: float
    phi: float
    clusters: list[ExpanderCluster]
    remainder_edges: set[Edge] = field(default_factory=set)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def remainder_fraction(self) -> float:
        """``|E_r| / |E|`` actually achieved."""
        m = self.index.number_of_edges()
        if m == 0:
            return 0.0
        return len(self.remainder_edges) / m

    def cluster_of_vertex(self) -> dict[int, int]:
        """Map vertex -> cluster index (vertices in no cluster are absent)."""
        assignment: dict[int, int] = {}
        for cluster in self.clusters:
            for vertex in cluster.vertices:
                assignment[vertex] = cluster.index
        return assignment

    def covered_edges(self) -> set[Edge]:
        covered: set[Edge] = set()
        for cluster in self.clusters:
            covered.update(cluster.edges)
        return covered

    def validate(self) -> None:
        """Raise ``AssertionError`` if the decomposition object is inconsistent."""
        seen_vertices: set[int] = set()
        for cluster in self.clusters:
            overlap = seen_vertices & cluster.vertices
            assert not overlap, f"clusters share vertices: {sorted(overlap)[:5]}"
            seen_vertices.update(cluster.vertices)
        covered = self.covered_edges()
        all_edges = set(self.index.edges())
        assert covered | self.remainder_edges == all_edges, "edges lost by decomposition"
        assert not (covered & self.remainder_edges), "edge both covered and in remainder"


# ---------------------------------------------------------------------------
# Sparse-cut search
# ---------------------------------------------------------------------------


def normalized_laplacian(index: LabelCSR) -> scipy.sparse.csr_array:
    """``D^{-1/2} (D - A) D^{-1/2}`` over the index's ids, built in the steps
    ``nx.normalized_laplacian_matrix`` takes, so the two agree entry for
    entry (isolated ids get zero rows)."""
    n, degrees = index.n, index.degrees
    laplacian = scipy.sparse.dia_array((degrees, 0), shape=(n, n)).tocsr() - index.matrix
    with np.errstate(divide="ignore"):
        scale = 1.0 / np.sqrt(degrees)
    scale[np.isinf(scale)] = 0
    half = scipy.sparse.dia_array((scale, 0), shape=(n, n)).tocsr()
    return half @ (laplacian @ half)


def _fiedler_order(index: LabelCSR) -> np.ndarray:
    """Ids ordered by the Fiedler vector of the normalised Laplacian.

    Deterministic: eigensolver inputs are deterministic and ties between
    equal vector entries are broken by id, which is label order.
    """
    n = index.n
    if n <= 2:
        return np.arange(n)
    laplacian = normalized_laplacian(index)
    if n <= 400:
        eigenvalues, eigenvectors = np.linalg.eigh(laplacian.toarray())
        fiedler = eigenvectors[:, np.argsort(eigenvalues)[1]]
    else:
        # Shift-invert around zero is fragile; use the smallest-magnitude
        # eigenpairs of the (PSD) normalised Laplacian directly.
        try:
            eigenvalues, eigenvectors = scipy.sparse.linalg.eigsh(
                laplacian, k=2, which="SM", v0=np.ones(n) / math.sqrt(n), maxiter=5000,
            )
            fiedler = eigenvectors[:, int(np.argmax(eigenvalues))]
        except Exception:  # pragma: no cover - solver convergence fallback
            eigenvalues, eigenvectors = np.linalg.eigh(laplacian.toarray())
            fiedler = eigenvectors[:, np.argsort(eigenvalues)[1]]
    return np.argsort(fiedler, kind="stable")


def sparsest_sweep_cut(index: LabelCSR) -> tuple[np.ndarray, float]:
    """Best sweep cut of the Fiedler ordering: (cut side, conductance).

    The side is a bool mask over ids: of the Fiedler-order prefixes, the first
    of least conductance, or its complement when that has smaller volume.
    Without edges the side is empty and the conductance infinite.
    """
    n = index.n
    if not index.number_of_edges():
        return np.zeros(n, dtype=bool), math.inf
    order = _fiedler_order(index)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    upper = index.rows < index.indices
    ends = position[index.rows[upper]], position[index.indices[upper]]
    # Prefix k cuts the edges with one end at or before k and the other after.
    enters, leaves = (np.bincount(end(*ends), minlength=n) for end in (np.minimum, np.maximum))
    boundary = np.cumsum(enters - leaves)[:-1]
    volume = np.cumsum(index.degrees[order])[:-1]
    rest = index.indices.size - volume
    denominator = np.minimum(volume, rest)
    values = np.full(n - 1, math.inf)
    np.divide(boundary, denominator, out=values, where=denominator > 0)
    best = int(np.argmin(values))
    side = position <= best
    return (~side if rest[best] < volume[best] else side), float(values[best])


# ---------------------------------------------------------------------------
# The decomposition itself
# ---------------------------------------------------------------------------


def expander_decompose(
    graph: nx.Graph | LabelCSR,
    epsilon: float = 0.15,
    accountant: CostAccountant | None = None,
) -> ExpanderDecomposition:
    """Compute a deterministic (ε, φ)-expander decomposition.

    Args:
        graph: input graph, or its index.  Vertices must be mutually
            comparable.
        epsilon: target bound on the remainder fraction ``|E_r| / |E|``; the
            threshold ``φ = ε / (2 ⌈log2 m⌉ + 2)`` is the value for which the
            recursive charging argument bounds the remainder by ``ε|E|``.
        accountant: optional cost accountant; if given, the CS20 round cost
            of the decomposition is charged to phase ``"expander-decomposition"``.

    Returns:
        An :class:`ExpanderDecomposition` whose clusters are vertex-disjoint,
        numbered in increasing order of their smallest vertex label, and
        certified to contain no sweep cut of conductance below ``phi``.

    Raises:
        ValueError: for ``epsilon`` outside ``(0, 1)``, or a self-loop.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    index = graph if isinstance(graph, LabelCSR) else LabelCSR.from_graph(graph)
    m = index.number_of_edges()
    phi = epsilon / (2 * math.ceil(math.log2(max(2, m))) + 2) if m else epsilon

    found: list[tuple[LabelCSR, np.ndarray, float]] = []  # (piece, members, bound)
    remainder: set[Edge] = set()

    def recurse(piece: LabelCSR, members: np.ndarray) -> None:
        """Decompose ``piece``, whose ids are the increasing ``members``."""
        if not piece.number_of_edges():
            return
        if piece.n <= 2:  # one edge
            found.append((piece, members, 1.0))
            return
        count, component = connected_components(piece.matrix, directed=False)
        if count > 1:
            sizes = np.bincount(component, minlength=count)
            grouped = np.split(np.argsort(component, kind="stable"), np.cumsum(sizes)[:-1])
            # A single vertex has no edge: it is in no cluster.
            parts = [ids for ids in grouped if ids.size > 1]
        else:
            side, value = sparsest_sweep_cut(piece)
            if value >= phi:
                found.append((piece, members, max(phi, min(1.0, value))))
                return
            rows, indices = piece.rows, piece.indices
            crossing = (side[rows] != side[indices]) & (rows < indices)
            remainder.update(piece.label_pairs(rows[crossing] * piece.n + indices[crossing]))
            parts = [np.flatnonzero(side), np.flatnonzero(~side)]
        for ids in parts:
            recurse(piece.induced(ids), members[ids])

    recurse(index, np.arange(index.n))
    found.sort(key=lambda cluster: cluster[1][0])  # by smallest member id, so label
    clusters = [ExpanderCluster(i, *cluster) for i, cluster in enumerate(found)]

    decomposition = ExpanderDecomposition(
        index=index,
        epsilon=epsilon,
        phi=phi,
        clusters=clusters,
        remainder_edges=remainder,
    )
    if accountant is not None:
        accountant.local_rounds(
            decomposition_round_cost(index.n, epsilon),
            phase="expander-decomposition",
        )
    return decomposition


def decomposition_round_cost(n: int, epsilon: float) -> float:
    """CS20 round cost ``poly(1/ε) · 2^{O(sqrt(log n log log n))}`` (Theorem 5).

    This is the number of rounds the deterministic distributed construction
    would take; the listing experiments charge it explicitly so that the
    measured totals reflect the whole pipeline.
    """
    if n < 2:
        return 0.0
    logn = math.log2(n)
    loglogn = math.log2(max(2.0, logn))
    subpoly = 2.0 ** math.sqrt(logn * loglogn)
    return (1.0 / epsilon) * subpoly


# ---------------------------------------------------------------------------
# Recursion schedule (Lemma 8 / Lemma 33 driver)
# ---------------------------------------------------------------------------


def recursive_decomposition_schedule(
    graph: nx.Graph,
    epsilon: float = 0.15,
    max_depth: int | None = None,
) -> Iterator[tuple[int, ExpanderDecomposition, nx.Graph]]:
    """Yield the per-level decompositions of the recursive listing driver.

    Level ``i`` decomposes the graph induced by the edges left over from
    level ``i-1`` (the remainder ``E_r`` plus the edges outside all ``E_i^-``
    sets — here simply the remainder, since the listing layer decides which
    cluster edges to defer).  The iteration stops when no edges remain or the
    depth cap is hit.  Lemma 8 guarantees a logarithmic number of levels when
    the listing layer removes a constant fraction per level; the tests check
    this on workload graphs.
    """
    if max_depth is None:
        max_depth = 2 * math.ceil(math.log2(max(2, graph.number_of_edges() + 1))) + 4
    current = graph.copy()
    for depth in range(max_depth):
        if current.number_of_edges() == 0:
            return
        decomposition = expander_decompose(current, epsilon=epsilon)
        yield depth, decomposition, current
        residual = nx.Graph()
        residual.add_nodes_from(current.nodes)
        residual.add_edges_from(decomposition.remainder_edges)
        # Remove isolated vertices to keep recursion cheap.
        residual.remove_nodes_from([v for v in residual.nodes if residual.degree(v) == 0])
        if residual.number_of_edges() >= current.number_of_edges():
            return
        current = residual
