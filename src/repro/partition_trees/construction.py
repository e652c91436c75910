"""Construction of K3-partition trees (Lemmas 17, 18 and Theorem 16).

The construction builds the three layers of a K3-partition tree over the
``V_C^-`` vertices of a K3-compatible cluster.  Each layer is produced by a
batch of partial-pass streaming algorithms (one per part of the previous
layer) simulated with Theorem 11; the root and middle layers are then made
known to every ``V_C^-`` vertex (Lemma 19) and the leaf layer is spread over
the ``V_C^*`` vertices proportionally to their communication degree
(Lemma 20).

Every layer reads the core index ``cluster.core``: a part is an id range of
the sorted core, so a degree into a part is a range query over a sorted row.
Lemma 17's algorithm is three running counters that close a part where one
would overflow, so a part is found by one search per counter over prefix
sums of the degree columns (:meth:`K3Layer.parts`), and Theorem 11 charges
the batch from its token owners, one per core vertex per algorithm
(:func:`repro.streaming.simulation.charge_simulation`).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.decomposition.cluster import CommunicationCluster
from repro.decomposition.routing import ClusterRouter
from repro.partition_trees.load_balance import amplifier_broadcast, assign_leaf_parts
from repro.partition_trees.parts import Partition, VertexInterval
from repro.partition_trees.tree import (
    HTreeConstraints,
    LeafAssignment,
    PartitionTree,
    prefix_sums,
)
from repro.streaming.simulation import SimulationPlan, charge_simulation


@dataclass(frozen=True)
class K3Layer:
    """The counter-based greedy layer construction of Lemma 17.

    The partial-pass streaming algorithm reads the ``V'`` vertices in
    increasing id order; each main token carries the vertex's degree into
    ``V'`` and its degree into each ancestor part.  Three counters mirror the
    constraints SIZE, DEG and UP_DEG of Definition 14: whenever adding the
    current vertex would take a counter past its cap, the current part is
    closed (its endpoints are written to the output stream) and the vertex
    starts a fresh part.  A part always takes its first vertex.

    Attributes:
        max_size, max_deg, max_up_deg: the caps of the three counters.
        n_out: ``N_out``, the most parts (output tokens) the algorithm may
            write.
    """

    max_size: float
    max_deg: float
    max_up_deg: float
    n_out: int

    @classmethod
    def of(
        cls, k: int, m: int, num_ancestors: int, constraints: HTreeConstraints
    ) -> "K3Layer":
        """The caps for a node with ``num_ancestors`` ancestor parts over a
        ``k``-vertex universe with ``m`` edges."""
        k = max(1, k)
        x = max(1.0, k ** (1.0 / 3))
        m_tilde = max(m, k * x)
        c = constraints
        return cls(
            max_size=c.c3 * k / x,
            max_deg=c.c1 * m_tilde / x,
            max_up_deg=c.c2 * max(1, num_ancestors) * m_tilde / (x * x) + c.c3 * 3 * k / x,
            # With the default build targets (c1=2, c2=4, c3=1) the closure
            # counting of Lemma 17 gives at most ~3.5x parts; the additive
            # slack keeps tiny test clusters within budget.
            n_out=math.ceil(3.5 * x) + 8,
        )

    def parts(self, degrees: np.ndarray, ancestors: Sequence[np.ndarray]) -> list[tuple[int, int]]:
        """The parts ``(first id, last id)`` the algorithm writes for the
        vertices ``0..len(degrees)-1``, given their degrees into ``V'`` and
        into each ancestor part (non-negative integer columns).

        A counter's sum over a part grows with the part, so a part that
        starts at ``i`` ends before the first vertex whose prefix sum from
        ``i`` passes the cap: one binary search per part and counter over
        the prefix sums.  The sums are integers, so comparing them with
        ``floor(cap)`` matches ``counter + value > cap`` exactly.

        Raises:
            AssertionError: when the algorithm writes more than ``N_out``
                parts, as its stream run would.
        """
        k = len(degrees)
        up = sum(ancestors, np.zeros(k, dtype=np.int64))
        degree_sums, up_sums = (prefix_sums(column).tolist() for column in (degrees, up))
        size, deg, up_deg = map(math.floor, (self.max_size, self.max_deg, self.max_up_deg))
        parts = []
        first = 0
        while first < k:
            last = min(
                k - 1,
                first + size - 1,
                bisect.bisect_right(degree_sums, degree_sums[first] + deg) - 2,
                bisect.bisect_right(up_sums, up_sums[first] + up_deg) - 2,
            )
            last = max(first, last)
            parts.append((first, last))
            first = last + 1
        if len(parts) > self.n_out:
            raise AssertionError(
                f"algorithm wrote {len(parts)} tokens, declared N_out={self.n_out}"
            )
        return parts


@dataclass
class K3TreeResult:
    """Output of Theorem 16.

    Attributes:
        tree: the constructed K3-partition tree over ``C[V_C^-]``.
        assignment: leaf-part -> responsible ``V_C^*`` vertex.
        rounds: CONGEST rounds charged (0 when no router was supplied).
        violations: Definition 14 constraint violations (empty when valid).
    """

    tree: PartitionTree
    assignment: LeafAssignment
    rounds: int
    violations: list[str] = field(default_factory=list)


#: Tighter constants the greedy *aims* for while building.  Any partition
#: built against these trivially also satisfies Definition 14 with the
#: official constants (c1=9, c2=36, c3=4); the tighter targets keep the parts
#: small enough that the load balance is visible at practically simulable
#: cluster sizes, at the price of up to ~3.5x parts per node instead of x.
DEFAULT_BUILD_CONSTRAINTS = HTreeConstraints(c1=2.0, c2=4.0, c3=1.0, p=3)


def construct_k3_partition_tree(
    cluster: CommunicationCluster,
    router: ClusterRouter | None = None,
    constraints: HTreeConstraints | None = None,
    build_constraints: HTreeConstraints | None = None,
    check_constraints: bool = False,
) -> K3TreeResult:
    """Theorem 16: build a K3-partition tree of ``C[V_C^-]`` in ``k^{1/3} n^{o(1)}`` rounds.

    Args:
        cluster: a K3-compatible cluster.
        router: cluster router used to charge the construction's round cost
            (``None`` constructs the tree without charging).
        constraints: Definition 14 constants (defaults to the Lemma 17 values).
        check_constraints: when ``True``, the finished tree is validated
            against Definition 14 and violations reported in the result.

    Returns:
        A :class:`K3TreeResult` meeting the Theorem 16 guarantees: the root
        and middle layers are known to all ``V_C^-`` (broadcast is charged),
        each leaf part is assigned to a ``V_C^*`` vertex, and each ``V_C^*``
        vertex owns ``O(deg_C(v)/μ)`` leaf parts.
    """
    constraints = constraints or HTreeConstraints(p=3)
    build_constraints = build_constraints or DEFAULT_BUILD_CONSTRAINTS
    core = cluster.core
    members = core.labels
    k = len(members)
    rounds_before = router.accountant.metrics.rounds if router is not None else 0
    if k == 0:
        empty_tree = PartitionTree.with_root([], 3, Partition.whole([]))
        return K3TreeResult(tree=empty_tree, assignment=LeafAssignment(), rounds=0)

    m = core.number_of_edges()
    plan = SimulationPlan(cluster=cluster, t_max=1)
    owners = np.arange(k)
    # A root part is an ancestor of every node below it: read its column once.
    degrees_into = functools.cache(core.degrees_into)

    def build_layer(ancestor_lists: list[list[VertexInterval]]) -> list[Partition]:
        """One Theorem 11 batch: one partition per ancestor-part choice."""
        partitions = []
        for ancestors in ancestor_lists:
            layer = K3Layer.of(k, m, len(ancestors), build_constraints)
            columns = [degrees_into(part.lo, part.hi) for part in ancestors]
            partitions.append(Partition(tuple(
                VertexInterval(members, lo, hi) for lo, hi in layer.parts(core.degrees, columns)
            )))
        if router is not None:
            charge_simulation(plan, router, [owners] * len(ancestor_lists))
        return partitions

    # Layer 0 (root): a single instance with no ancestors.
    root_partition = build_layer([[]])[0]
    amplifier_broadcast(
        cluster, router,
        {("root", j): members[0] for j in range(len(root_partition))},
    )
    tree = PartitionTree.with_root(members, num_layers=3, root_partition=root_partition)

    # Layer 1 (middle): one instance per root part.
    middle_ancestors = [[root_partition[j]] for j in range(len(root_partition))]
    middle_partitions = build_layer(middle_ancestors)
    amplifier_broadcast(
        cluster, router,
        {("middle", j, i): members[j % len(members)]
         for j, partition in enumerate(middle_partitions)
         for i in range(len(partition))},
    )
    for j, partition in enumerate(middle_partitions):
        tree.root.add_child(j, partition)

    # Layer 2 (leaves): one instance per (root part, middle part) pair.
    leaf_specs: list[tuple[int, int]] = []
    leaf_ancestors: list[list[VertexInterval]] = []
    for j, middle_node_partition in enumerate(middle_partitions):
        for l in range(len(middle_node_partition)):
            leaf_specs.append((j, l))
            leaf_ancestors.append([root_partition[j], middle_node_partition[l]])
    leaf_partitions = build_layer(leaf_ancestors)
    for (j, l), partition in zip(leaf_specs, leaf_partitions):
        tree.root.children[j].add_child(l, partition)

    # Leaf distribution (Lemma 20): each V* vertex receives O(deg/mu) parts.
    assignment = assign_leaf_parts(cluster, router, tree)

    violations: list[str] = []
    if check_constraints:
        violations = constraints.check_tree(tree, core)

    rounds_after = router.accountant.metrics.rounds if router is not None else 0
    return K3TreeResult(
        tree=tree,
        assignment=assignment,
        rounds=rounds_after - rounds_before,
        violations=violations,
    )
