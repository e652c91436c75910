"""Deterministic triangle listing in ``n^{1/3+o(1)}`` rounds (Theorem 32).

The outer recursion (Lemma 33) is provided by
:class:`~repro.listing.recursion.RecursiveListingDriver`; this module supplies
the per-cluster work of Lemma 34:

* vertices whose communication degree is below ``δ = K^{1/3}`` learn their
  induced 2-hop neighbourhood by exhaustive search (Lemma 35) and report all
  triangles through them;
* the remaining high-degree vertices ``V_C^-`` build a K3-partition tree of
  ``C[V_C^-]`` (Theorem 16); each ``V_C^*`` vertex then learns, for every
  leaf part assigned to it, the edges running between the part's ancestor
  parts and reports the triangles it sees.  Theorem 13 guarantees that every
  triangle with all three vertices in ``V_C^-`` is caught by some leaf part.

A cluster's working graph is cut from the index of ``G`` (``cluster.index``);
degrees, partition-tree layers and ancestor-part edges are all read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.congest.cost import CostAccountant, RoutingOverhead, polylog_overhead
from repro.congest.metrics import CongestMetrics
from repro.decomposition.cluster import K3CompatibleCluster
from repro.decomposition.routing import ClusterRouter
from repro.graphs.cliques import Clique, cliques_by_group, cliques_through
from repro.graphs.index import edges_among, unique_triples
from repro.listing.local import charge_exhaustive_pass
from repro.listing.recursion import ClusterTask, ListingResult, RecursiveListingDriver
from repro.partition_trees.construction import construct_k3_partition_tree
from repro.partition_trees.tree import HTreeConstraints



@dataclass
class TriangleClusterBlueprint:
    """The Lemma 34 work division inside one cluster, execution-agnostic.

    The blueprint separates *what* a cluster computes from *how* it is
    executed: the cost-model handler charges its communication primitives
    and extracts the cliques centrally, while the distributed driver
    (:mod:`repro.listing.distributed`) compiles the same blueprint into a
    per-vertex message protocol and runs it on the execution engine.

    Attributes:
        cluster: the K3-compatible communication cluster over the
            augmented (working) edge set; its index is the working graph.
        low_degree: vertices below ``δ = K^{1/3}`` — handled by the
            exhaustive 2-hop pass of Lemma 35.
        alpha: degree bound used for the exhaustive pass round cost.
        tiny_core: ``V_C^-`` members when there are fewer than three of
            them (exhausted directly instead of building a tree).
        owner_edges: ``int64[d, 3]`` rows ``(owner, u, w)`` of ids of
            ``cluster.index``, sorted and unique, ``u < w``: each ``V_C^*``
            leaf-part owner and the ancestor-part edges it must learn (step
            2 of Lemma 34).
        received_load: per-owner number of learned edge words (before
            per-owner deduplication), as the cost model charges it.
        load_per_degree: the ``L`` parameter of the Theorem 6 routing.
    """

    cluster: K3CompatibleCluster
    low_degree: list[int] = field(default_factory=list)
    alpha: int = 1
    tiny_core: list[int] = field(default_factory=list)
    owner_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), np.int64))
    received_load: dict[int, int] = field(default_factory=dict)
    load_per_degree: float = 0.0

    @property
    def listers(self) -> list[int]:
        """Vertices that run the exhaustive 2-hop pass."""
        return list(self.low_degree) + list(self.tiny_core)


@dataclass
class TriangleListing:
    """Theorem 32: deterministic CONGEST triangle listing.

    Attributes:
        epsilon: expander-decomposition remainder parameter (the proof of
            Lemma 38 fixes 1/18; any constant below ~1/4 keeps the recursion
            logarithmic).
        overhead: routing-overhead model for the ``n^{o(1)}`` factor.
        check_tree_constraints: validate every constructed partition tree
            against Definition 14 (slower; used by the test-suite).
    """

    epsilon: float = 1.0 / 18.0
    overhead: RoutingOverhead | None = None
    max_levels: int | None = None
    check_tree_constraints: bool = False

    def run(self, graph: nx.Graph) -> ListingResult:
        """List every triangle of ``graph``; see :class:`ListingResult`."""
        driver = RecursiveListingDriver(
            p=3, epsilon=self.epsilon, overhead=self.overhead, max_levels=self.max_levels
        )
        return driver.run(graph, self._handle_cluster)

    # -- Lemma 34: the cluster blueprint (shared with the distributed driver) --

    def blueprint_cluster(
        self, task: ClusterTask, accountant: CostAccountant
    ) -> TriangleClusterBlueprint:
        """Compute the Lemma 34 work division for one cluster.

        The partition-tree construction (Theorem 16, via the Theorem 11
        streaming simulation) is performed here and its round cost is
        charged to ``accountant``; the returned blueprint records which
        vertices run the exhaustive pass and which edges each ``V_C^*``
        owner must learn.  The caller decides how the remaining
        communication happens: charged to the cost model
        (:meth:`_handle_cluster`) or executed as per-vertex messages
        (:mod:`repro.listing.distributed`).
        """
        cluster = K3CompatibleCluster.from_index(task.graph, task.working)
        index = cluster.index
        delta = cluster.delta
        blueprint = TriangleClusterBlueprint(
            cluster=cluster,
            low_degree=index.label_array[index.degrees < delta].tolist(),
            alpha=max(1, math.ceil(delta)),
        )
        members = cluster.ordered_members()
        if len(members) >= 3:
            self._plan_high_degree(task, cluster, blueprint, accountant)
        elif members:
            blueprint.tiny_core = members
        return blueprint

    def charge_blueprint(
        self, task: ClusterTask, blueprint: TriangleClusterBlueprint,
        accountant: CostAccountant,
    ) -> None:
        """Charge the communication costs of the blueprint's remaining steps.

        Covers the Lemma 35 exhaustive passes and the Theorem 6 edge
        delivery; the tree-construction cost was already charged when the
        blueprint was built.
        """
        prefix = f"level{task.level}-c{task.cluster_index}"
        index = blueprint.cluster.index
        if blueprint.low_degree:
            charge_exhaustive_pass(
                index.degrees[index.ids(blueprint.low_degree)], blueprint.alpha,
                accountant, phase=f"{prefix}:low-degree",
            )
        if blueprint.tiny_core:
            degrees = index.degrees[index.ids(blueprint.tiny_core)]
            charge_exhaustive_pass(
                degrees, int(degrees.max()), accountant, phase=f"{prefix}:tiny-core"
            )
        # Step 1/2 of Lemma 34: interval announcements plus edge deliveries.
        # Loads are degree-proportional (each vertex sends each of its edges
        # O(k^{1/3}) times; each V* owner receives O(k^{1/3} deg(v)) edges),
        # so the routing of Theorem 6 takes ~k^{1/3} * n^{o(1)} rounds.
        if blueprint.load_per_degree > 0:
            router = ClusterRouter(
                cluster=blueprint.cluster, accountant=accountant,
                phase_prefix=prefix,
            )
            router.route_proportional(
                load_per_degree=blueprint.load_per_degree,
                total_words=sum(blueprint.received_load.values()),
                phase="lemma34-edge-learning",
            )

    def predict_cluster_cost(
        self, task: ClusterTask
    ) -> tuple[TriangleClusterBlueprint, CostAccountant]:
        """Blueprint plus the cost model's round prediction for the cluster.

        Used by the distributed driver as the cross-check baseline: the
        prediction accounts the full Lemma 34 pipeline (tree construction,
        exhaustive passes, Theorem 6 edge delivery) the way the cost-model
        execution mode would.
        """
        accountant = CostAccountant(
            n=task.graph.number_of_nodes(),
            overhead=self.overhead if self.overhead is not None else polylog_overhead(),
            metrics=CongestMetrics(),
        )
        blueprint = self.blueprint_cluster(task, accountant)
        self.charge_blueprint(task, blueprint, accountant)
        return blueprint, accountant

    # -- Lemma 34: the cost-model execution of the blueprint -------------------

    def _handle_cluster(self, task: ClusterTask) -> set[Clique]:
        blueprint = self.blueprint_cluster(task, task.accountant)
        self.charge_blueprint(task, blueprint, task.accountant)
        return self.cliques_from_blueprint(blueprint)

    @staticmethod
    def cliques_from_blueprint(blueprint: TriangleClusterBlueprint) -> set[Clique]:
        """Centrally extract the triangles a blueprint's cluster reports.

        Listers report every triangle through themselves in their 2-hop
        working-graph view (Lemma 35); each ``V_C^*`` owner reports the
        triangles among the ancestor-part edges it learned.  One kernel
        pass over the working graph serves the listers, one over every
        owner's edges, one group per owner, the owners.  This is exactly
        what the per-vertex outputs of the distributed protocol union to,
        which is what makes the two modes output-equivalent.
        """
        index = blueprint.cluster.index
        lister = np.zeros(index.n, dtype=bool)
        lister[index.ids(blueprint.listers)] = True
        owners, us, ws = blueprint.owner_edges.T
        _, learned = cliques_by_group(owners, us, ws, index.n, 3)
        listed = cliques_through(index.rows, index.indices, lister, 3)
        return set(index.label_rows(np.concatenate((listed, learned))))

    def _plan_high_degree(
        self,
        task: ClusterTask,
        cluster: K3CompatibleCluster,
        blueprint: TriangleClusterBlueprint,
        accountant: CostAccountant,
    ) -> None:
        """Theorem 16 + step 2 of Lemma 34: who must learn which edges.

        Parts are id ranges of the core index, so the edges between two of
        a leaf part's ancestor parts are range queries over its rows, all
        leaves' in one gather.  Core id ``i`` is id ``cluster.core_ids[i]``
        of the cluster's index.
        """
        core = cluster.core
        router = ClusterRouter(
            cluster=cluster, accountant=accountant,
            phase_prefix=f"level{task.level}-c{task.cluster_index}",
        )
        result = construct_k3_partition_tree(
            cluster, router=router,
            constraints=HTreeConstraints(p=3),
            check_constraints=self.check_tree_constraints,
        )
        if self.check_tree_constraints and result.violations:
            raise AssertionError(
                "K3-partition tree violates Definition 14: " + "; ".join(result.violations[:3])
            )

        # Every leaf's ancestor-part edges, each once per leaf, in one gather.
        owners = list(result.assignment.owner.values())
        leaf, edges = edges_among(core, result.tree.ancestor_ranges(result.assignment.owner))
        received_load: dict[int, int] = {}
        for owner, received in zip(owners, np.bincount(leaf, minlength=len(owners)).tolist()):
            received_load[owner] = received_load.get(owner, 0) + received
        # Core keys u * core.n + w to keys (owner * n + u) * n + w of ids.
        n, (us, ws) = cluster.index.n, np.divmod(edges, core.n)
        owner_ids = cluster.index.ids(owners)[leaf]
        owner_edges = unique_triples(
            (owner_ids * n + cluster.core_ids[us]) * n + cluster.core_ids[ws], n
        )
        x = max(1.0, core.n ** (1.0 / 3.0))
        load_per_degree = x  # the send side: every edge travels O(x) times
        for owner, received in received_load.items():
            degree = max(1, cluster.communication_degree(owner))
            load_per_degree = max(load_per_degree, received / degree)
        blueprint.owner_edges = owner_edges
        blueprint.received_load = received_load
        blueprint.load_per_degree = load_per_degree


def list_triangles(graph: nx.Graph, **kwargs) -> ListingResult:
    """Convenience wrapper: run :class:`TriangleListing` with keyword options."""
    return TriangleListing(**kwargs).run(graph)
