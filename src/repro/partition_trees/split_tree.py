"""Split graphs and (p', p)-split Kp-partition trees (Section 4.2).

For ``p >= 4`` a cluster is responsible for cliques whose vertices straddle
the cluster boundary, so the partition tree must simultaneously balance three
kinds of edges: edges inside ``V_1 = V_C^-`` (``E_1``), edges entirely outside
(``E_2 = E'``), and boundary edges (``E_12 = E_bar``).  Definition 22 captures
this through six balancing constraints; Lemma 29 gives the counter-based
partial-pass streaming algorithm (Algorithm 2 of the paper) that constructs a
valid layer, using GET-AUX to zoom into an interval of vertices only when its
aggregate would overflow a counter; Theorems 26/28 wrap the layers into the
full tree.

The split graph is one index with ``V_1`` numbered first, so each universe
and each part of it is an id range: a degree into a part, a layer token's
counters and the edges between two parts are range queries over sorted rows,
as for K3 trees (:mod:`repro.partition_trees.construction`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.decomposition.cluster import KpCompatibleCluster
from repro.decomposition.routing import ClusterRouter
from repro.graphs.index import LabelCSR, sorted_distinct
from repro.partition_trees.load_balance import assign_leaf_parts
from repro.partition_trees.parts import Partition, VertexInterval
from repro.partition_trees.tree import LeafAssignment, PartitionTree, PartitionTreeNode
from repro.streaming.algorithm import PartialPassAlgorithm, StreamingParameters
from repro.streaming.simulation import AlgorithmInstance, SimulationPlan, simulate_in_cluster
from repro.streaming.stream import MainToken, Stream

IdRange = tuple[int, int]


# ---------------------------------------------------------------------------
# Definition 21: split graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SplitGraph:
    """A split graph (Definition 21) as one index over all of ``G``'s vertices.

    Ids ``0..k-1`` are ``V_1`` and ids ``k..n-1`` are ``V_2``, each in label
    order, so a part of either universe is an id range.  :attr:`index` holds
    the edges of ``G`` among ``V_1`` and its neighbours: an edge with both
    ends below ``k`` is in ``E_1``, with one in ``E_12``, with none in ``E_2``.

    Attributes:
        index: the split graph; a label's id differs from its id in ``G``.
        k: ``|V_1|``.
        graph_ids: per id of :attr:`index`, the vertex's id in ``G``'s index.
    """

    index: LabelCSR
    k: int
    graph_ids: np.ndarray

    @classmethod
    def from_index(cls, graph: LabelCSR, v1: np.ndarray) -> "SplitGraph":
        """The split graph of Theorem 26 for ``V_1 = V_C^-``, the increasing
        ids ``v1`` of ``G``'s index ``graph``: ``V_2 = V \\ V_C^-``,
        ``E_1 = E(V_C^-, V_C^-)``, ``E_12 = E_bar`` and ``E_2 = E'``, the edges
        among the outside neighbours of ``V_C^-`` (Lemma 43)."""
        inside = np.zeros(graph.n, dtype=bool)
        inside[v1] = True
        graph_ids = np.concatenate((v1, np.flatnonzero(~inside)))
        position = np.empty(graph.n, dtype=np.int64)
        position[graph_ids] = np.arange(graph.n)
        near = inside | (graph.matrix @ inside > 0)
        us, ws = graph.rows, graph.indices
        kept = near[us] & near[ws] & (us < ws)
        index = LabelCSR.from_ids(
            tuple(graph.label_array[graph_ids].tolist()), position[us[kept]], position[ws[kept]]
        )
        return cls(index=index, k=len(v1), graph_ids=graph_ids)

    # -- Definition 21 notation ------------------------------------------------

    @property
    def n(self) -> int:
        return self.index.n

    @property
    def v1(self) -> IdRange:
        return 0, self.k - 1

    @property
    def v2(self) -> IdRange:
        return self.k, self.n - 1

    @cached_property
    def deg_v1(self) -> np.ndarray:
        """Per id, its degree into ``V_1`` (via ``E_1`` or ``E_12``)."""
        return self.index.degrees_into(*self.v1)

    @cached_property
    def deg_v2(self) -> np.ndarray:
        """Per id, its degree into ``V_2`` (via ``E_2`` or ``E_12``)."""
        return self.index.degrees - self.deg_v1

    @cached_property
    def m1(self) -> int:
        return int(self.deg_v1[: self.k].sum()) // 2

    @cached_property
    def m2(self) -> int:
        return int(self.deg_v2[self.k :].sum()) // 2

    @cached_property
    def m12(self) -> int:
        return int(self.deg_v1[self.k :].sum())

    def part_ids(self, part: VertexInterval, in_v2: bool) -> IdRange:
        """The id range of a part of ``V_2`` (``in_v2``) or of ``V_1``."""
        offset = self.k if in_v2 else 0
        return part.lo + offset, part.hi + offset

    def edges_between(self, left: IdRange, right: IdRange) -> np.ndarray:
        """The edges with one end in each id range, each once, as increasing
        keys ``u * n + w`` with ``u < w``."""
        return sorted_distinct(self.index.edges_between(left, right))


# ---------------------------------------------------------------------------
# Definition 22: the six balancing constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitTreeConstraints:
    """Constants and thresholds of Definition 22 (Lemma 29 proves c1=8, c2=36)."""

    c1: float = 8.0
    c2: float = 36.0
    p: int = 4
    p_prime: int = 2
    a: int = 2
    b: int = 2

    @property
    def pi(self) -> int:
        """``π = p - p'``: number of layers partitioning ``V_2``."""
        return self.p - self.p_prime

    def m_tilde(self, split: SplitGraph) -> tuple[float, float, float]:
        m1_tilde = max(split.m1, split.k * self.a)
        m2_tilde = max(split.m2, split.n * self.b)
        m12_tilde = max(split.m12, split.n * self.a)
        return m1_tilde, m2_tilde, m12_tilde

    def thresholds(self, split: SplitGraph, depth: int) -> dict[str, float]:
        """Counter maxima for a node at ``depth``: a partition of ``V_2``
        below ``π``, of ``V_1`` from ``π`` on."""
        m1_tilde, m2_tilde, m12_tilde = self.m_tilde(split)
        if depth < self.pi:
            return {
                "DEG_2to2": self.c1 * split.m2 / self.b + split.n,
                "DEG_2to1": self.c1 * split.m12 / self.b + split.n,
                "UP_DEG_2to2": self.c2 * depth * m2_tilde / (self.b ** 2) + split.n,
            }
        return {
            "DEG_1to1": self.c1 * split.m1 / self.a + split.k,
            "UP_DEG_1to1": self.c2 * (depth - self.pi) * m1_tilde / (self.a ** 2) + split.k,
            "UP_DEG_1to2": self.c2 * self.pi * m12_tilde / (self.a * self.b) + split.n,
        }

    def counters(self, split: SplitGraph, ancestors: Sequence[VertexInterval]) -> np.ndarray:
        """``int64[|universe|, 3]``: per vertex of the universe a node at
        depth ``len(ancestors)`` partitions, what it adds to each counter, in
        the order of that depth's :meth:`thresholds`.  ``ancestors[d]`` is
        the part chosen at depth ``d``; a degree into it is a range query."""
        depth = len(ancestors)
        into = split.index.degrees_into
        up = [into(*split.part_ids(part, d < self.pi)) for d, part in enumerate(ancestors)]
        zero = np.zeros(split.n, dtype=np.int64)
        if depth < self.pi:
            (lo, hi), columns = split.v2, (split.deg_v2, split.deg_v1, sum(up, zero))
        else:
            (lo, hi), columns = split.v1, (
                split.deg_v1, sum(up[self.pi :], zero), sum(up[: self.pi], zero)
            )
        return np.column_stack(columns)[lo : hi + 1]

    def check_tree(self, tree: PartitionTree, split: SplitGraph) -> list[str]:
        """Validate every part of ``tree`` against Definition 22; a part's
        count into a vertex set is the number of edges between them."""
        violations: list[str] = []
        for node in tree.nodes():
            in_v2 = node.depth < self.pi
            limits = self.thresholds(split, node.depth)
            for index in range(len(node.partition)):
                *ancestors, part = tree.ancestor_parts(node, index)
                here = split.part_ids(part, in_v2)
                up = [
                    split.edges_between(here, split.part_ids(ancestor, d < self.pi)).size
                    for d, ancestor in enumerate(ancestors)
                ]
                if in_v2:
                    counts = (
                        split.edges_between(here, split.v2).size,
                        split.edges_between(here, split.v1).size,
                        sum(up),
                    )
                else:
                    counts = (
                        split.edges_between(here, split.v1).size,
                        sum(up[self.pi :]),
                        sum(up[: self.pi]),
                    )
                violations.extend(
                    f"{name} at {node.path}/{index}"
                    for (name, limit), count in zip(limits.items(), counts)
                    if count > limit + 1e-9
                )
        return violations


# ---------------------------------------------------------------------------
# Lemma 29 / Algorithm 2: the layer construction with GET-AUX
# ---------------------------------------------------------------------------


class SplitLayerBuilder(PartialPassAlgorithm):
    """Algorithm 2: build one layer of a (p', p)-split Kp-partition tree.

    The stream has one main token per ``V_C^-`` vertex; each summarises an
    interval of vertices of the universe being partitioned (``V_2`` for the
    first ``π`` layers, ``V_1`` afterwards) as ``(first vertex, last vertex,
    sums)``, the interval's counter contributions in the order of the
    layer's thresholds, and its auxiliary tokens are ``(vertex, sums)``.
    Whenever adding a whole interval would overflow a counter the algorithm
    performs GET-AUX and walks the interval vertex by vertex, closing parts
    exactly where the overflow happens.
    """

    def __init__(
        self,
        split: SplitGraph,
        depth: int,
        constraints: SplitTreeConstraints,
        n_in: int,
    ):
        self.split = split
        self.n_in = max(1, n_in)
        self.limits = tuple(constraints.thresholds(split, depth).values())
        self.max_parts = constraints.b if depth < constraints.pi else constraints.a

    def parameters(self) -> StreamingParameters:
        logn = max(8, math.ceil(math.log2(max(2, self.split.n))))
        # Lemma 29 proves at most a (resp. b) parts for c1=8, c2=36 once the
        # branching factor is large enough; small clusters get additive slack.
        n_out = 2 * self.max_parts + 4
        return StreamingParameters(
            token_bits=8 * logn,
            n_in=self.n_in,
            n_out=n_out,
            b_aux=n_out,
            b_write=n_out,
        )

    def _overflows(self, counters: list[int], sums: Sequence[int]) -> bool:
        return any(c + s > limit for c, s, limit in zip(counters, sums, self.limits))

    def process(self, stream: Stream) -> None:
        counters = [0] * len(self.limits)
        part_start = previous_vertex = None
        while (token := stream.read()) is not None:
            first_vertex, last_vertex, interval_sums = token.summary
            if part_start is None:
                part_start = first_vertex
            if not self._overflows(counters, interval_sums):
                counters = [c + s for c, s in zip(counters, interval_sums)]
                previous_vertex = last_vertex
                continue
            # Zoom in: inspect the interval vertex by vertex.
            stream.get_aux()
            for _ in range(token.num_auxiliary):
                vertex, vertex_sums = stream.read()
                if self._overflows(counters, vertex_sums) and previous_vertex is not None:
                    stream.write((part_start, previous_vertex))
                    counters = [0] * len(self.limits)
                    part_start = vertex
                counters = [c + s for c, s in zip(counters, vertex_sums)]
                previous_vertex = vertex
        if part_start is not None:
            stream.write((part_start, previous_vertex))


# ---------------------------------------------------------------------------
# Theorem 26 / 28: the full construction
# ---------------------------------------------------------------------------


@dataclass
class SplitTreeResult:
    """Output of Theorem 26: the tree, leaf assignment and charged rounds."""

    tree: PartitionTree
    assignment: LeafAssignment
    rounds: int
    violations: list[str] = field(default_factory=list)


def construct_split_kp_tree(
    cluster: KpCompatibleCluster,
    split: SplitGraph,
    p: int,
    p_prime: int,
    router: ClusterRouter | None = None,
    constraints: SplitTreeConstraints | None = None,
    check_constraints: bool = False,
) -> SplitTreeResult:
    """Theorem 26: construct a (p', p)-split Kp-partition tree of a cluster.

    ``split`` is the cluster's split graph (``V_1 = V_C^-``).  The first
    ``π = p - p'`` layers partition ``V_2 = V \\ V_C^-`` and the remaining
    ``p'`` layers partition ``V_1 = V_C^-``; all parts end up known to all
    ``V_C^-`` vertices (Lemma 27 broadcasts are charged through the router)
    and the leaf layer is distributed over ``V_C^*`` by Lemma 20.
    """
    if not 2 <= p_prime <= p:
        raise ValueError("p' must satisfy 2 <= p' <= p")
    members = cluster.ordered_members()
    k = len(members)
    rounds_before = router.accountant.metrics.rounds if router is not None else 0
    ab = max(2, math.ceil(max(1, k) ** (1.0 / p)))
    if constraints is None:
        constraints = SplitTreeConstraints(p=p, p_prime=p_prime, a=ab, b=ab)
    # Tighter targets for the greedy (any partition built against them also
    # satisfies Definition 22 with the official c1=8, c2=36); the smaller
    # parts keep the final-step loads balanced at simulable sizes.
    build_constraints = SplitTreeConstraints(
        c1=2.0, c2=4.0, p=p, p_prime=p_prime, a=constraints.a, b=constraints.b
    )
    pi = constraints.pi
    v1_universe, v2_universe = split.index.labels[: split.k], split.index.labels[split.k :]

    def prepare_instance(ancestors: list[VertexInterval]):
        """Build the (algorithm, tokens) pair for one layer construction:
        one main token per interval of ``k`` equal intervals of the universe,
        held by the ``V_C^-`` vertex of its rank."""
        depth = len(ancestors)
        universe = v2_universe if depth < pi else v1_universe
        if not universe:
            return None, universe
        sums = build_constraints.counters(split, ancestors)
        chunk = math.ceil(len(universe) / max(1, k))
        starts = range(0, len(universe), chunk)
        rows = list(map(tuple, sums.tolist()))
        totals = map(tuple, np.add.reduceat(sums, starts).tolist())
        tokens = []
        for index, (owner, start, total) in enumerate(zip(members, starts, totals)):
            interval = universe[start : start + chunk]
            tokens.append(MainToken(
                index=index,
                owner=owner,
                summary=(interval[0], interval[-1], total),
                auxiliary=tuple(zip(interval, rows[start : start + chunk])),
            ))
        builder = SplitLayerBuilder(
            split=split, depth=depth, constraints=build_constraints, n_in=len(tokens)
        )
        return AlgorithmInstance(algorithm=builder, tokens=tokens), universe

    def build_layer_batch(specs: list[list[VertexInterval]]) -> list[Partition]:
        """Construct all partitions of one layer in parallel (Lemma 30).

        The instances of a layer are simulated together in a single Theorem 11
        invocation, so the round cost of a layer is that of one (parallel)
        batch, not the sum over its nodes.
        """
        prepared = [prepare_instance(ancestors) for ancestors in specs]
        live = [(i, inst) for i, (inst, _) in enumerate(prepared) if inst and inst.tokens]
        outputs_by_position: dict[int, list] = {}
        if live:
            instances = [inst for _, inst in live]
            if router is not None:
                plan = SimulationPlan(cluster=cluster, t_max=1)
                result = simulate_in_cluster(instances, plan, router=router)
                for (position, _), out in zip(live, result.outputs):
                    outputs_by_position[position] = out
            else:
                for position, instance in live:
                    stream = instance.algorithm.enforce_budgets(list(instance.tokens))
                    outputs_by_position[position] = instance.algorithm.run_reference(stream)
        partitions = []
        for position, (_, universe) in enumerate(prepared):
            boundaries = outputs_by_position.get(position, [])
            if not boundaries:
                partitions.append(Partition.whole(universe))
            else:
                partitions.append(Partition.from_boundaries(universe, boundaries))
        return partitions

    # Build the tree breadth-first, one parallel streaming batch per layer.
    root_partition = build_layer_batch([[]])[0]
    tree_universe = v1_universe if pi == 0 else v2_universe
    tree = PartitionTree.with_root(tree_universe, num_layers=p, root_partition=root_partition)
    frontier: list[PartitionTreeNode] = [tree.root]
    for _ in range(1, p):
        # One instance per part of the frontier, below that part's ancestors.
        chosen = [(node, index) for node in frontier for index in range(len(node.partition))]
        partitions = build_layer_batch([tree.ancestor_parts(node, index) for node, index in chosen])
        frontier = [
            node.add_child(index, partition)
            for (node, index), partition in zip(chosen, partitions)
        ]
        # Lemma 27: make the new layer known to all V^- vertices.
        if router is not None:
            layer_parts = sum(len(node.partition) for node in frontier)
            router.broadcast(total_words=max(1, layer_parts), phase="lemma27-layer")

    # Leaf distribution (Lemma 20).
    assignment = assign_leaf_parts(cluster, router, tree)

    violations: list[str] = []
    if check_constraints:
        violations = constraints.check_tree(tree, split)

    rounds_after = router.accountant.metrics.rounds if router is not None else 0
    return SplitTreeResult(
        tree=tree,
        assignment=assignment,
        rounds=rounds_after - rounds_before,
        violations=violations,
    )
