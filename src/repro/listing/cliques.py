"""Deterministic ``K_p`` listing in ``n^{1-2/p+o(1)}`` rounds, ``p >= 4`` (Theorem 36).

The outer recursion (Lemmas 38/39) is shared with the triangle algorithm;
the per-cluster work implements Lemma 37:

* core vertices whose cluster degree is below ``β · n^{1-2/p}`` are handled by
  exhaustive 2-hop search (Lemma 41 via Lemma 35);
* the high-degree vertices ``V_C^-`` import the boundary edges ``E_bar`` and
  the outside edges ``E'`` they may need (Lemma 43 / Definition 24), then for
  every ``2 <= p' <= p`` build a ``(p', p)``-split ``K_p``-partition tree
  (Theorem 26) whose leaf parts are distributed over ``V_C^*`` (Lemma 20);
  each leaf owner learns the edges between its part's ancestor parts and
  reports the ``K_p`` instances it sees.  Theorem 23 guarantees that every
  clique with exactly ``p'`` vertices in ``V_C^-`` is caught by some leaf.

A cluster builds its split graph once, from ``G``'s index: the import
charges, every tree and every leaf's edges read its id ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.congest.cost import RoutingOverhead
from repro.decomposition.cluster import KpCompatibleCluster
from repro.decomposition.routing import ClusterRouter
from repro.graphs.cliques import Clique, cliques_by_group
from repro.graphs.index import edges_among
from repro.listing.local import two_hop_exhaustive_listing
from repro.listing.recursion import ClusterTask, ListingResult, RecursiveListingDriver
from repro.partition_trees.split_tree import SplitGraph, construct_split_kp_tree


@dataclass
class CliqueListing:
    """Theorem 36: deterministic CONGEST listing of ``K_p``, ``p >= 4``.

    Attributes:
        p: clique size (``>= 4``; use :class:`TriangleListing` for ``p = 3``).
        epsilon: expander-decomposition remainder parameter (Lemma 38 uses
            1/18, Lemma 39 uses 1/12; any small constant works).
        beta: the degree-threshold constant of Section 6 (β).
        overhead: routing-overhead model for the ``n^{o(1)}`` factor.
        check_tree_constraints: validate the split trees against
            Definition 22 (slower; used by the test-suite).
    """

    p: int = 4
    epsilon: float = 1.0 / 18.0
    beta: float = 1.0
    overhead: RoutingOverhead | None = None
    max_levels: int | None = None
    check_tree_constraints: bool = False

    def __post_init__(self) -> None:
        if self.p < 4:
            raise ValueError("CliqueListing handles p >= 4; use TriangleListing for p = 3")

    def run(self, graph: nx.Graph) -> ListingResult:
        """List every ``K_p`` of ``graph``; see :class:`ListingResult`."""
        driver = RecursiveListingDriver(
            p=self.p, epsilon=self.epsilon, overhead=self.overhead,
            max_levels=self.max_levels,
        )
        return driver.run(graph, self._handle_cluster)

    # -- Lemma 37: listing inside one cluster ----------------------------------

    def _handle_cluster(self, task: ClusterTask) -> set[Clique]:
        n = task.graph.number_of_nodes()
        delta = self.beta * (n ** (1.0 - 2.0 / self.p))
        cluster = KpCompatibleCluster.from_index(
            task.graph, task.working, p=self.p, delta=delta
        )
        found: set[Clique] = set()

        # Lemma 41: core vertices below the degree threshold are exhausted in
        # O(n^{1-2/p}) rounds; their cliques are listed from the full graph so
        # instances leaving the cluster are caught too.
        core = task.index.label_array[task.core].tolist()
        low_core = [v for v in core if cluster.communication_degree(v) < delta]
        if low_core:
            outcome = two_hop_exhaustive_listing(
                task.graph, low_core, p=self.p,
                alpha=max(1, math.ceil(2 * delta)),
                accountant=task.accountant,
                phase=f"level{task.level}-c{task.cluster_index}:low-degree",
            )
            found |= outcome.cliques

        members = cluster.ordered_members()
        if len(members) < 2:
            return found
        router = ClusterRouter(
            cluster=cluster, accountant=task.accountant,
            phase_prefix=f"level{task.level}-c{task.cluster_index}",
        )

        split = SplitGraph.from_index(task.index, task.index.ids(members))
        self._import_outside_edges(split, router)

        if len(members) < self.p:
            # Too few high-degree vertices to host the split-tree machinery:
            # exhaust them directly (their count is O(p), so this is cheap).
            outcome = two_hop_exhaustive_listing(
                task.graph, members, p=self.p,
                accountant=task.accountant,
                phase=f"level{task.level}-c{task.cluster_index}:tiny-core",
            )
            return found | outcome.cliques

        for p_prime in range(2, self.p + 1):
            found |= self._list_with_split_tree(task, cluster, split, router, p_prime)
        return found

    # -- Lemma 43 / Theorem 31: building the K_p-compatible input ----------------

    @staticmethod
    def _import_outside_edges(split: SplitGraph, router: ClusterRouter) -> None:
        """Charge shipping ``E_bar`` and ``E'`` into the cluster (Lemma 43) and
        distributing the ``deg*`` values (Lemma 45).

        ``E'`` is the split graph's ``E_2``, the edges of ``G`` among the
        outside neighbourhood of ``V_C^-`` (the ``V_2`` vertices with a
        neighbour in ``V_1``): every clique with ``>= 2`` vertices inside has
        all its outside edges there.  Edge ``(u, w)``, ``u`` the smaller
        label, goes to the lowest-numbered ``V_C^-`` neighbour of ``u``, its
        first neighbour in the split graph (mirrors the chunked delivery of
        Lemma 43).  Both steps are charged by the actual per-vertex loads.
        """
        index, k = split.index, split.k
        outside = k + np.flatnonzero(split.deg_v1[k:])
        e_prime = split.edges_between(split.v2, split.v2)
        holders = index.indices[index.indptr[e_prime // index.n]]
        router.direct(
            max_sent=int(split.deg_v2[outside].max(initial=0)),
            max_received=int(np.bincount(holders).max(initial=0)),
            total_words=int(e_prime.size), phase="lemma43-import",
        )
        router.broadcast(total_words=max(1, outside.size), phase="lemma45-degstar")

    # -- Theorem 26 + final listing step of Lemma 37 -----------------------------

    def _list_with_split_tree(
        self,
        task: ClusterTask,
        cluster: KpCompatibleCluster,
        split: SplitGraph,
        router: ClusterRouter,
        p_prime: int,
    ) -> set[Clique]:
        result = construct_split_kp_tree(
            cluster, split, p=self.p, p_prime=p_prime, router=router,
            check_constraints=self.check_tree_constraints,
        )
        if self.check_tree_constraints and result.violations:
            raise AssertionError(
                f"split tree (p'={p_prime}) violates Definition 22: "
                + "; ".join(result.violations[:3])
            )
        # Each leaf owner learns the edges between its leaf part's ancestor
        # parts, id ranges of the split graph (its first π layers partition
        # V_2, numbered from k), each once, all leaves in one gather.
        ranges = result.tree.ancestor_ranges(result.assignment.owner)
        ranges[:, : self.p - p_prime] += split.k
        leaf, keys = edges_among(split.index, ranges)
        # One kernel pass over every leaf's edges, as ids of G's index, one
        # group per leaf.
        us, ws = (split.graph_ids[ends] for ends in np.divmod(keys, split.n))
        _, rows = cliques_by_group(leaf, us, ws, task.index.n, self.p)
        found = set(task.index.label_rows(rows))

        # Final edge-delivery step of Lemma 37: every V^- vertex pushes its
        # edges to the leaf owners that need them.  Loads are
        # degree-proportional (each edge is sent ~n^{1-2/p} times, each owner
        # receives ~n^{1-2/p} deg(v) edges), so Theorem 6 routes them in
        # ~n^{1-2/p} * n^{o(1)} rounds.
        received_load: dict[int, int] = {}
        owners = result.assignment.owner.values()
        for owner, received in zip(owners, np.bincount(leaf, minlength=len(owners)).tolist()):
            received_load[owner] = received_load.get(owner, 0) + received
        members = cluster.ordered_members()
        a = max(1.0, len(members) ** (1.0 / self.p))
        load_per_degree = a
        for owner, received in received_load.items():
            degree = max(1, cluster.communication_degree(owner))
            load_per_degree = max(load_per_degree, received / degree)
        router.route_proportional(
            load_per_degree=load_per_degree,
            total_words=sum(received_load.values()),
            phase=f"lemma37-edge-learning-p{p_prime}",
        )
        return found


def list_cliques(graph: nx.Graph, p: int, **kwargs) -> ListingResult:
    """List all ``K_p`` of ``graph`` with the paper's deterministic algorithm.

    Dispatches to :class:`~repro.listing.triangles.TriangleListing` for
    ``p = 3`` and to :class:`CliqueListing` for ``p >= 4``.
    """
    if p == 3:
        from repro.listing.triangles import TriangleListing

        return TriangleListing(**kwargs).run(graph)
    return CliqueListing(p=p, **kwargs).run(graph)
