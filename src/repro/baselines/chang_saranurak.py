"""The previous deterministic CONGEST state of the art: [CS20] triangle listing.

Chang and Saranurak's deterministic triangle listing runs in
``n^{2/3+o(1)}`` rounds: it uses the same expander decomposition and routing
but, lacking an efficient deterministic load-balancing step inside clusters,
falls back to a coarser strategy in which every participating cluster vertex
may have to learn a ``~|E_C| / K^{1/3}``-edge share of the cluster — a factor
``K^{1/3}`` more than the partition-tree approach of the reproduced paper.

We model exactly that difference: the recursion, decomposition and
low-degree handling are identical to :class:`repro.listing.triangles.TriangleListing`;
only the within-cluster high-degree step charges the heavier
``K^{2/3}``-per-vertex load, which is what produces the ``n^{2/3}`` versus
``n^{1/3}`` separation measured in experiment E3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx

from repro.congest.cost import RoutingOverhead
from repro.decomposition.cluster import K3CompatibleCluster
from repro.decomposition.routing import ClusterRouter
from repro.graphs.cliques import Clique, cliques_in_edge_set
from repro.listing.local import two_hop_exhaustive_listing
from repro.listing.recursion import ClusterTask, ListingResult, RecursiveListingDriver


@dataclass
class CS20TriangleListing:
    """Deterministic ``n^{2/3+o(1)}``-round triangle listing baseline."""

    epsilon: float = 1.0 / 18.0
    overhead: RoutingOverhead | None = None
    max_levels: int | None = None

    def run(self, graph: nx.Graph) -> ListingResult:
        driver = RecursiveListingDriver(
            p=3, epsilon=self.epsilon, overhead=self.overhead, max_levels=self.max_levels
        )
        return driver.run(graph, self._handle_cluster)

    def _handle_cluster(self, task: ClusterTask) -> set[Clique]:
        cluster = K3CompatibleCluster.from_index(task.graph, task.working)
        working = cluster.index.graph
        router = ClusterRouter(
            cluster=cluster, accountant=task.accountant,
            phase_prefix=f"cs20-level{task.level}-c{task.cluster_index}",
        )
        found: set[Clique] = set()

        delta = cluster.delta
        low_degree = [v for v in working.nodes if working.degree(v) < delta]
        if low_degree:
            outcome = two_hop_exhaustive_listing(
                working, low_degree, p=3,
                alpha=max(1, math.ceil(delta)),
                accountant=task.accountant,
                phase="cs20-low-degree",
            )
            found |= outcome.cliques

        members = cluster.ordered_members()
        if len(members) < 3:
            if members:
                outcome = two_hop_exhaustive_listing(
                    working, members, p=3, accountant=task.accountant,
                    phase="cs20-tiny-core",
                )
                found |= outcome.cliques
            return found

        # Without partition trees, the deterministic load balancing known to
        # [CS20] leaves each of the k high-degree vertices responsible for a
        # ~(m_C / k^{1/3})-edge share: charge that load and list centrally.
        # Every high-degree vertex may need a k^{2/3}-fold share of its degree
        # in edges (versus the k^{1/3}-fold share the partition-tree approach
        # achieves), which is the source of the n^{2/3} total.
        router.route_proportional(
            load_per_degree=max(1.0, len(members) ** (2.0 / 3.0)),
            total_words=cluster.core.number_of_edges(),
            phase="cs20-edge-learning",
        )
        core = cluster.core
        return found | set(core.label_rows(cliques_in_edge_set(core.rows, core.indices, 3)))


def cs20_triangle_listing(graph: nx.Graph, **kwargs) -> ListingResult:
    """Convenience wrapper for :class:`CS20TriangleListing`."""
    return CS20TriangleListing(**kwargs).run(graph)
