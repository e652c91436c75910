"""Communication clusters (Definitions 7, 15, 24, 25 of the paper).

A ``(φ, δ)``-communication cluster is a high-conductance cluster together
with a designated subset ``V_C^-`` of vertices whose communication degree is
at least ``δ``; these are the vertices that participate in the heavy
load-balancing machinery.  For triangle listing ``δ = K^{1/3}`` (Definition
15); for ``K_p`` listing with ``p > 3``, ``δ = n^{1-2/p}`` (Definition 24).
The edges a ``K_p`` cluster imports from outside, ``E_bar`` into ``V_C^-``
and ``E'`` among its outside neighbours, are id ranges of its split graph
(:class:`repro.partition_trees.split_tree.SplitGraph`), not sets on the
cluster.

:func:`core_vertices` implements the ``V_C^\\circ`` construction of Section
2 / Lemma 33: the vertices that have the majority of their edges inside
their cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import networkx as nx
import numpy as np

from repro.graphs.index import LabelCSR

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# Section 2 construction: V°
# ---------------------------------------------------------------------------


def core_vertices(inside: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``V_C^\\circ`` as a mask over a cluster's vertices, given their degrees
    ``inside`` the cluster and in the ``total`` graph it was cut from: the
    vertices with ``deg_{E_i}(v) >= deg_{E \\ E_i}(v)`` (Section 2)."""
    return 2 * inside >= total


# ---------------------------------------------------------------------------
# (φ, δ)-communication clusters
# ---------------------------------------------------------------------------


@dataclass
class CommunicationCluster:
    """A ``(φ, δ)``-communication cluster (Definition 7).

    Attributes:
        graph: the ambient graph ``G``.
        index: the cluster ``C = (V_C, E_C)`` as a label-sorted CSR, the one
            copy of its edges every layer reads (:mod:`repro.graphs.index`).
        delta: the degree threshold ``δ``.
        phi: certified conductance lower bound of the cluster.
        v_minus: the designated subset ``V_C^-`` of vertices with
            communication degree at least ``δ``.
    """

    graph: nx.Graph
    index: LabelCSR
    delta: float
    phi: float
    v_minus: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        self.v_minus = frozenset(self.core.labels)

    @cached_property
    def core_ids(self) -> np.ndarray:
        """Per id of :attr:`core`, its id in :attr:`index` (increasing)."""
        return np.flatnonzero(self.index.degrees >= self.delta)

    @cached_property
    def core(self) -> LabelCSR:
        """``C[V_C^-]`` as its own index: an interval of the members is an id range."""
        return self.index.induced(self.core_ids)

    # -- notation from Definition 7 ------------------------------------------

    @property
    def n(self) -> int:
        """``n = |V|`` of the ambient graph."""
        return self.graph.number_of_nodes()

    @property
    def big_k(self) -> int:
        """``K = |V_C|``."""
        return self.index.n

    @property
    def k(self) -> int:
        """``k = |V_C^-|``."""
        return len(self.v_minus)

    def communication_degree(self, vertex: int) -> int:
        """``deg_C(v)``: number of cluster edges incident to ``v``."""
        return int(self.index.degrees[self.index.id_of[vertex]])

    @property
    def mu(self) -> float:
        """Average communication degree ``μ`` of ``V_C^-`` vertices."""
        if not self.v_minus:
            return 0.0
        return sum(self.communication_degree(v) for v in self.v_minus) / self.k

    @property
    def v_star(self) -> frozenset[int]:
        """``V_C^*``: the ``V_C^-`` vertices with at least half-average degree."""
        threshold = self.mu / 2.0
        return frozenset(
            v for v in self.v_minus if self.communication_degree(v) >= threshold
        )

    @property
    def v_low(self) -> frozenset[int]:
        """``V_C^L = V_C \\ V_C^-``: the low-degree cluster vertices."""
        return frozenset(self.index.labels) - self.v_minus

    def ordered_members(self) -> list[int]:
        """``V_C^-`` sorted by identifier (the contiguous numbering the
        streaming simulation relies on)."""
        return list(self.core.labels)

    def validate(self) -> None:
        """Sanity checks on the Definition 7 invariants."""
        for vertex in self.v_minus:
            assert self.communication_degree(vertex) >= self.delta, (
                f"vertex {vertex} in V^- has communication degree "
                f"{self.communication_degree(vertex)} < delta={self.delta}"
            )
        assert set(self.index.labels) <= set(self.graph.nodes)


def build_communication_cluster(
    graph: nx.Graph,
    cluster_edges: Iterable[Edge],
    delta: float,
    phi: float = 0.0,
) -> CommunicationCluster:
    """Build a :class:`CommunicationCluster` from an edge set of ``graph``."""
    return CommunicationCluster(
        graph=graph, index=LabelCSR.from_edges(cluster_edges), delta=delta, phi=phi
    )


# ---------------------------------------------------------------------------
# K3-compatible clusters (Definition 15)
# ---------------------------------------------------------------------------


@dataclass
class K3CompatibleCluster(CommunicationCluster):
    """A K3-compatible cluster: ``δ = K^{1/3}`` (Definition 15)."""

    @classmethod
    def from_edges(
        cls, graph: nx.Graph, cluster_edges: Iterable[Edge], phi: float = 0.0
    ) -> "K3CompatibleCluster":
        return cls.from_index(graph, LabelCSR.from_edges(cluster_edges), phi)

    @classmethod
    def from_index(
        cls, graph: nx.Graph, index: LabelCSR, phi: float = 0.0
    ) -> "K3CompatibleCluster":
        delta = index.n ** (1.0 / 3.0) if index.n else 0.0
        return cls(graph=graph, index=index, delta=delta, phi=phi)


# ---------------------------------------------------------------------------
# Kp-compatible clusters (Definitions 24 / 25)
# ---------------------------------------------------------------------------


@dataclass
class KpCompatibleCluster(CommunicationCluster):
    """A ``K_p``-compatible cluster for ``p > 3``: ``δ = n^{1-2/p}``
    (Definition 24).  Its imported edges ``E_bar`` and ``E'`` are ``E_12``
    and ``E_2`` of its split graph, whose delivery the listing charges
    (:meth:`repro.listing.cliques.CliqueListing._import_outside_edges`)."""

    p: int = 4

    @classmethod
    def from_edges(
        cls,
        graph: nx.Graph,
        cluster_edges: Iterable[Edge],
        p: int,
        phi: float = 0.0,
        delta: float | None = None,
    ) -> "KpCompatibleCluster":
        return cls.from_index(graph, LabelCSR.from_edges(cluster_edges), p, phi, delta)

    @classmethod
    def from_index(
        cls, graph: nx.Graph, index: LabelCSR, p: int, phi: float = 0.0,
        delta: float | None = None,
    ) -> "KpCompatibleCluster":
        if p <= 3:
            raise ValueError("KpCompatibleCluster requires p > 3; use K3CompatibleCluster")
        n = graph.number_of_nodes()
        if delta is None:
            delta = n ** (1.0 - 2.0 / p) if n else 0.0
        return cls(graph=graph, index=index, delta=delta, phi=phi, p=p)
