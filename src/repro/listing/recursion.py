"""The recursive expander-decomposition driver shared by K3 and Kp listing.

Both Theorem 32 (triangles) and Theorem 36 (``K_p``, ``p >= 4``) follow the
same outer structure (Lemmas 33, 38, 39): decompose the *current* edge set
into high-conductance clusters, let each cluster list every clique of the
original graph that contains an edge joining two of the cluster's *core*
vertices (``V_C^\\circ``), remove those handled edges, and recurse on the rest
— whose size Lemma 8 bounds by a constant fraction, giving logarithmic depth.

The driver here owns the recursion, the per-level parallel round accounting
(clusters are edge-disjoint, so a level costs the *maximum* over its
clusters, not the sum) and the final safety net that exhaustively covers any
edges left when the recursion bottoms out.  The per-cluster work is supplied
as a callback, which is where triangles and larger cliques differ.

The recursion runs on one index of ``G``, the one level 0's decomposition
builds.  The residual edges are a ``bool`` mask over its edges: each later
level decomposes the edges still set, cut from the index by ids, and one
``searchsorted`` of their keys clears the edges the clusters finished.

Reproduction note: the paper inherits from [CS20] an
augmented cluster edge set ``E_i^+`` whose exact construction is internal to
that work.  We use the slightly larger, self-contained choice
``E_i ∪ {edges of G incident to V_{C_i}^\\circ}``: every clique of the original
graph containing an edge between two core vertices then lies entirely inside
the cluster's working subgraph, which makes the coverage argument direct
while preserving the edge-disjointness (up to the factor 2 the paper also
tolerates) and the load shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import networkx as nx
import numpy as np

from repro.congest.cost import CostAccountant, RoutingOverhead, polylog_overhead
from repro.congest.metrics import CongestMetrics
from repro.decomposition.cluster import core_vertices
from repro.decomposition.expander import decomposition_round_cost, expander_decompose
from repro.graphs.cliques import Clique
from repro.graphs.index import LabelCSR, sorted_distinct
from repro.listing.local import two_hop_exhaustive_listing


@dataclass
class ClusterTask:
    """The per-cluster work unit handed to the listing callback.

    Attributes:
        graph: the original input graph ``G`` (cliques are cliques of ``G``).
        index: ``G`` as a label-sorted CSR, built by level 0's decomposition.
        level: recursion level (0-based).
        cluster_index: index of the cluster within its level.
        cluster: the cluster ``G[E_i]`` (residual edges) as its own index.
        members: the cluster's vertices as increasing ids of ``index``.
        core: the core vertices ``V_{C_i}^\\circ`` as increasing ids of ``index``;
            the cluster must "finish" the residual edges between two of them
            (report every clique of ``G`` containing one).
        accountant: a per-cluster cost accountant (clusters run in parallel;
            the driver folds in only the maximum round count of a level).
    """

    graph: nx.Graph
    index: LabelCSR
    level: int
    cluster_index: int
    cluster: LabelCSR
    members: np.ndarray
    core: np.ndarray
    accountant: CostAccountant

    @cached_property
    def working(self) -> LabelCSR:
        """The augmented graph the cluster may use: ``E_i`` plus all ``G``-edges
        incident to a core vertex, cut from ``index`` on a handler's first ask."""
        incident = self.index.matrix[self.core].tocoo()
        return self.index.edge_subgraph(
            np.concatenate((self.core[incident.row], self.members[self.cluster.rows])),
            np.concatenate((incident.col, self.members[self.cluster.indices])),
        )


ClusterHandler = Callable[[ClusterTask], set[Clique]]

# Covers the residual edges left when the recursion bottoms out: called as
# ``fallback(graph, index, endpoints, p, accountant)`` with ``endpoints`` the
# residual edges' ends as increasing ids of ``index`` (the run's index of
# ``G``), and returns the cliques through them.  The default runs the
# centralized Lemma 35 pass under the cost model; the distributed driver
# substitutes an engine-executed pass with the same output.
FallbackHandler = Callable[[nx.Graph, LabelCSR, np.ndarray, int, CostAccountant], set[Clique]]


def exhaustive_fallback(
    graph: nx.Graph, index: LabelCSR, endpoints: np.ndarray, p: int, accountant: CostAccountant
) -> set[Clique]:
    """Default safety net: exhaustively cover the residual edges (cost model)."""
    outcome = two_hop_exhaustive_listing(
        graph, index.label_array[endpoints].tolist(), p, accountant=accountant,
        phase="fallback-exhaustive",
    )
    return outcome.cliques


@dataclass
class LevelReport:
    """Diagnostics of one recursion level."""

    level: int
    residual_edges: int
    clusters: int
    handled_edges: int
    remainder_fraction: float
    max_cluster_rounds: int
    decomposition_rounds: int


@dataclass
class ListingResult:
    """Outcome of a full listing run.

    Attributes:
        cliques: the set of listed cliques (deduplicated, canonical tuples).
        p: clique size.
        rounds: total CONGEST rounds charged (per-level cluster maxima plus
            shared steps), including routing overhead.
        levels: number of recursion levels executed.
        metrics: the global metric object (rounds, messages, per-phase).
        level_reports: per-level diagnostics.
        reports: number of (possibly duplicate) clique reports before
            deduplication — the listing "duplication factor" is
            ``reports / max(1, len(cliques))``.
        fallback_edges: edges that had to be covered by the final exhaustive
            safety net (0 on the workloads the recursion handles fully).
    """

    cliques: set[Clique]
    p: int
    rounds: int
    levels: int
    metrics: CongestMetrics
    level_reports: list[LevelReport] = field(default_factory=list)
    reports: int = 0
    fallback_edges: int = 0

    @property
    def duplication_factor(self) -> float:
        return self.reports / max(1, len(self.cliques))

    @classmethod
    def from_engine_run(cls, run, p: int) -> "ListingResult":
        """Build a single-level result from an engine ``SynchronousRun``.

        Used by every driver that executes a per-vertex listing algorithm
        on the execution engine (:mod:`repro.engine`): the listed cliques
        are the union of the per-vertex outputs, and the (pre-dedup)
        report count sums the per-vertex output sizes.
        """
        # Must accept exactly the container types combined_output() unions,
        # or list-valued outputs would yield a nonsense duplication factor.
        reports = sum(
            len(output)
            for output in run.outputs.values()
            if isinstance(output, (set, frozenset, list, tuple))
        )
        return cls(
            cliques=run.combined_output(),
            p=p,
            rounds=run.rounds,
            levels=1,
            metrics=run.metrics,
            reports=reports,
        )


class RecursiveListingDriver:
    """Runs the outer recursion of Theorems 32 / 36 around a cluster handler."""

    def __init__(
        self,
        p: int,
        epsilon: float = 1.0 / 18.0,
        overhead: RoutingOverhead | None = None,
        max_levels: int | None = None,
    ):
        if p < 3:
            raise ValueError("clique size must be at least 3")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        self.p = p
        self.epsilon = epsilon
        self.overhead = overhead if overhead is not None else polylog_overhead()
        self.max_levels = max_levels

    # -- helpers ---------------------------------------------------------------

    def new_accountant(self, n: int, metrics: CongestMetrics | None = None) -> CostAccountant:
        return CostAccountant(n=n, overhead=self.overhead, metrics=metrics)

    # -- the recursion ----------------------------------------------------------

    def run(
        self,
        graph: nx.Graph,
        handler: ClusterHandler,
        fallback: FallbackHandler = exhaustive_fallback,
    ) -> ListingResult:
        """List the cliques of ``graph`` (a self-loop raises ``ValueError``)."""
        n = graph.number_of_nodes()
        metrics = CongestMetrics()
        global_accountant = self.new_accountant(n, metrics)
        index: LabelCSR | None = None  # G, indexed by level 0's decomposition
        residual = np.ones(graph.number_of_edges(), dtype=bool)  # per edge us[i] < ws[i]
        cliques: set[Clique] = set()
        reports = 0
        level_reports: list[LevelReport] = []
        max_levels = self.max_levels
        if max_levels is None:
            max_levels = 2 * math.ceil(math.log2(max(2, residual.size + 1))) + 4

        level = 0
        while (residual_edges := int(np.count_nonzero(residual))) and level < max_levels:
            if index is None:
                decomposition = expander_decompose(graph, epsilon=self.epsilon)
                index, to_graph = decomposition.index, np.arange(decomposition.index.n)
                upper = index.rows < index.indices
                us, ws = index.rows[upper], index.indices[upper]
            else:
                ends = us[residual], ws[residual]
                decomposition = expander_decompose(index.edge_subgraph(*ends), epsilon=self.epsilon)
                to_graph = sorted_distinct(np.concatenate(ends))  # its ids in index
            decomposition_rounds = global_accountant.local_rounds(
                decomposition_round_cost(n, self.epsilon), phase=f"level{level}:decomposition"
            )
            level_degrees = decomposition.index.degrees

            finished = []  # per cluster, keys ``u * n + w`` of the edges it finished
            max_cluster_rounds = 0
            for cluster in decomposition.clusters:
                piece = cluster.piece
                inner = core_vertices(piece.degrees, level_degrees[cluster.members])
                finish = inner[piece.rows] & inner[piece.indices] & (piece.rows < piece.indices)
                if not finish.any():
                    continue
                members = to_graph[cluster.members]
                task = ClusterTask(
                    graph=graph, index=index, level=level, cluster_index=cluster.index,
                    cluster=piece, members=members, core=members[inner],
                    accountant=self.new_accountant(n),
                )
                found = handler(task)
                reports += len(found)
                if cliques:
                    cliques |= found
                else:  # a handler's set is its own: keep the first one
                    cliques = found
                # A cluster is the residual graph induced on its vertices, so
                # the residual edges between core vertices are cluster edges.
                u, w = members[piece.rows[finish]], members[piece.indices[finish]]
                finished.append(u * index.n + w)
                max_cluster_rounds = max(max_cluster_rounds, task.accountant.metrics.rounds)
                # Rounds are parallel across clusters (max), messages add up.
                metrics.add_messages(
                    task.accountant.metrics.messages,
                    phase=f"level{level}:clusters",
                    words=task.accountant.metrics.words,
                )

            # Clusters are edge-disjoint and run in parallel: a level costs the
            # most expensive cluster (the factor-2 edge reuse of the paper is
            # absorbed in the routing overhead).
            global_accountant.local_rounds(max_cluster_rounds, phase=f"level{level}:clusters")
            handled_edges = sum(keys.size for keys in finished)
            level_reports.append(
                LevelReport(
                    level=level,
                    residual_edges=residual_edges,
                    clusters=len(finished),
                    handled_edges=handled_edges,
                    remainder_fraction=decomposition.remainder_fraction(),
                    max_cluster_rounds=max_cluster_rounds,
                    decomposition_rounds=decomposition_rounds,
                )
            )

            if not handled_edges:
                break
            # Clusters are vertex-disjoint: no edge is finished twice.
            residual[np.searchsorted(us * index.n + ws, np.concatenate(finished))] = False
            level += 1

        # Safety net: exhaustively cover whatever the recursion left behind.
        fallback_edges = int(np.count_nonzero(residual))
        if fallback_edges:
            if index is None:  # no level ran: every edge is left
                index = LabelCSR.from_graph(graph)
                endpoints = np.flatnonzero(index.degrees)
            else:
                endpoints = sorted_distinct(np.concatenate((us[residual], ws[residual])))
            found = fallback(graph, index, endpoints, self.p, global_accountant)
            reports += len(found)
            cliques |= found

        return ListingResult(
            cliques=cliques,
            p=self.p,
            rounds=metrics.rounds,
            levels=level,
            metrics=metrics,
            level_reports=level_reports,
            reports=reports,
            fallback_edges=fallback_edges,
        )
