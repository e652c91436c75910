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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.decomposition.cluster import KpCompatibleCluster
from repro.graphs import canonical_edge
from repro.decomposition.routing import ClusterRouter
from repro.partition_trees.load_balance import balance_by_communication_degree
from repro.partition_trees.parts import Partition, VertexInterval
from repro.partition_trees.tree import LeafAssignment, PartitionTree, PartitionTreeNode
from repro.streaming.algorithm import PartialPassAlgorithm, StreamingParameters
from repro.streaming.simulation import AlgorithmInstance, SimulationPlan, simulate_in_cluster
from repro.streaming.stream import MainToken, Stream

Edge = tuple[int, int]
DirectedEdge = tuple[int, int]


# ---------------------------------------------------------------------------
# Definition 21: split graphs
# ---------------------------------------------------------------------------


@dataclass
class SplitGraph:
    """A split graph (Definition 21).

    ``V = V_1 ∪ V_2`` with ``E_1 ⊆ V_1 × V_1``, ``E_2 ⊆ V_2 × V_2`` and
    ``E_12 ⊆ V_1 × V_2``.  Adjacency dictionaries are precomputed so the
    layer constructions can query degrees into parts cheaply.
    """

    v1: frozenset[int]
    v2: frozenset[int]
    e1: frozenset[Edge]
    e2: frozenset[Edge]
    e12: frozenset[Edge]

    adj1: dict[int, set[int]] = field(init=False)
    adj2: dict[int, set[int]] = field(init=False)
    adj12: dict[int, set[int]] = field(init=False)

    def __post_init__(self) -> None:
        self.adj1 = {}
        self.adj2 = {}
        self.adj12 = {}
        for u, v in self.e1:
            self.adj1.setdefault(u, set()).add(v)
            self.adj1.setdefault(v, set()).add(u)
        for u, v in self.e2:
            self.adj2.setdefault(u, set()).add(v)
            self.adj2.setdefault(v, set()).add(u)
        for u, v in self.e12:
            self.adj12.setdefault(u, set()).add(v)
            self.adj12.setdefault(v, set()).add(u)

    @classmethod
    def from_cluster(cls, cluster: KpCompatibleCluster) -> "SplitGraph":
        """Build the split graph of Theorem 26: ``V_1 = V_C^-``, ``V_2 = V \\ V_C^-``,
        ``E_1 = E(V_C^-, V_C^-)``, ``E_2 = E'``, ``E_12 = E_bar``."""
        v1 = frozenset(cluster.v_minus)
        v2 = frozenset(set(cluster.graph.nodes) - set(v1))
        e1 = frozenset(
            canonical_edge(u, v) for u, v in cluster.graph.edges
            if u in v1 and v in v1
        )
        e12 = frozenset(canonical_edge(u, v) for u, v in cluster.e_bar)
        e2 = frozenset(
            canonical_edge(u, v) for u, v in cluster.e_prime
            if u in v2 and v in v2
        )
        return cls(v1=v1, v2=v2, e1=e1, e2=e2, e12=e12)

    # -- Definition 21 notation ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.v1) + len(self.v2)

    @property
    def k(self) -> int:
        return len(self.v1)

    @property
    def m1(self) -> int:
        return len(self.e1)

    @property
    def m2(self) -> int:
        return len(self.e2)

    @property
    def m12(self) -> int:
        return len(self.e12)

    # -- degree queries ---------------------------------------------------------

    def deg_into_v1(self, vertex: int) -> int:
        """Degree of ``vertex`` into ``V_1`` (via ``E_1`` or ``E_12``)."""
        if vertex in self.v1:
            return len(self.adj1.get(vertex, ()))
        return len(self.adj12.get(vertex, ()))

    def deg_into_v2(self, vertex: int) -> int:
        """Degree of ``vertex`` into ``V_2`` (via ``E_2`` or ``E_12``)."""
        if vertex in self.v2:
            return len(self.adj2.get(vertex, ()))
        return len(self.adj12.get(vertex, ()))

    def edges_between(self, left: Iterable[int], right: Iterable[int]) -> set[Edge]:
        """All split-graph edges with one endpoint in each of the two sets."""
        left_set, right_set = set(left), set(right)
        found: set[Edge] = set()
        for vertex in left_set:
            for adjacency in (self.adj1, self.adj2, self.adj12):
                for neighbor in adjacency.get(vertex, ()):
                    if neighbor in right_set:
                        found.add(canonical_edge(vertex, neighbor))
        return found


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

    def thresholds_v2(self, split: SplitGraph, depth: int) -> dict[str, float]:
        """Counter maxima for a node at depth ``< π`` (a partition of ``V_2``)."""
        _, m2_tilde, _ = self.m_tilde(split)
        return {
            "deg_2to2": self.c1 * split.m2 / self.b + split.n,
            "up_deg_2to2": self.c2 * depth * m2_tilde / (self.b ** 2) + split.n,
            "deg_2to1": self.c1 * split.m12 / self.b + split.n,
        }

    def thresholds_v1(self, split: SplitGraph, depth: int) -> dict[str, float]:
        """Counter maxima for a node at depth ``>= π`` (a partition of ``V_1``)."""
        m1_tilde, _, m12_tilde = self.m_tilde(split)
        return {
            "deg_1to1": self.c1 * split.m1 / self.a + split.k,
            "up_deg_1to1": self.c2 * max(0, depth - self.pi) * m1_tilde / (self.a ** 2) + split.k,
            "up_deg_1to2": self.c2 * self.pi * m12_tilde / (self.a * self.b) + split.n,
        }

    def check_tree(self, tree: PartitionTree, split: SplitGraph) -> list[str]:
        """Validate every part of ``tree`` against Definition 22."""
        violations: list[str] = []
        for node in tree.nodes():
            depth = node.depth
            ancestors = []
            current = tree.root
            for choice in node.path:
                ancestors.append((current.depth, current.partition[choice]))
                current = current.child(choice)
            for index, part in enumerate(node.partition):
                part_vertices = set(part.vertices())
                if depth < self.pi:
                    limits = self.thresholds_v2(split, depth)
                    deg_2to2 = len(split.edges_between(part_vertices, split.v2))
                    deg_2to1 = len(split.edges_between(part_vertices, split.v1))
                    up = sum(
                        len(split.edges_between(part_vertices, anc.vertices()))
                        for (_, anc) in ancestors
                    )
                    if deg_2to2 > limits["deg_2to2"] + 1e-9:
                        violations.append(f"DEG_2to2 at {node.path}/{index}")
                    if deg_2to1 > limits["deg_2to1"] + 1e-9:
                        violations.append(f"DEG_2to1 at {node.path}/{index}")
                    if up > limits["up_deg_2to2"] + 1e-9:
                        violations.append(f"UP_DEG_2to2 at {node.path}/{index}")
                else:
                    limits = self.thresholds_v1(split, depth)
                    deg_1to1 = len(split.edges_between(part_vertices, split.v1))
                    up_v1 = sum(
                        len(split.edges_between(part_vertices, anc.vertices()))
                        for (d, anc) in ancestors if d >= self.pi
                    )
                    up_v2 = sum(
                        len(split.edges_between(part_vertices, anc.vertices()))
                        for (d, anc) in ancestors if d < self.pi
                    )
                    if deg_1to1 > limits["deg_1to1"] + 1e-9:
                        violations.append(f"DEG_1to1 at {node.path}/{index}")
                    if up_v1 > limits["up_deg_1to1"] + 1e-9:
                        violations.append(f"UP_DEG_1to1 at {node.path}/{index}")
                    if up_v2 > limits["up_deg_1to2"] + 1e-9:
                        violations.append(f"UP_DEG_1to2 at {node.path}/{index}")
        return violations


# ---------------------------------------------------------------------------
# Lemma 29 / Algorithm 2: the layer construction with GET-AUX
# ---------------------------------------------------------------------------


class SplitLayerBuilder(PartialPassAlgorithm):
    """Algorithm 2: build one layer of a (p', p)-split Kp-partition tree.

    The stream has one main token per ``V_C^-`` vertex; each summarises an
    interval of vertices of the universe being partitioned (``V_2`` for the
    first ``π`` layers, ``V_1`` afterwards) with the aggregate degree sums the
    counters need.  Whenever adding a whole interval would overflow a counter
    the algorithm performs GET-AUX and walks the interval vertex by vertex,
    closing parts exactly where the overflow happens.
    """

    def __init__(
        self,
        split: SplitGraph,
        depth: int,
        constraints: SplitTreeConstraints,
        universe_size: int,
        n_in: int,
    ):
        self.split = split
        self.depth = depth
        self.constraints = constraints
        self.universe_size = universe_size
        self.n_in = max(1, n_in)
        self.partitioning_v2 = depth < constraints.pi
        if self.partitioning_v2:
            self.limits = constraints.thresholds_v2(split, depth)
            self.max_parts = constraints.b
        else:
            self.limits = constraints.thresholds_v1(split, depth)
            self.max_parts = constraints.a

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

    def _overflows(self, counters: dict[str, float], sums: dict[str, float]) -> bool:
        return any(
            counters[key] + sums.get(key, 0.0) > self.limits[key]
            for key in self.limits
        )

    def process(self, stream: Stream) -> None:
        counters = {key: 0.0 for key in self.limits}
        part_start: int | None = None
        previous_vertex: int | None = None

        def add(sums: dict[str, float]) -> None:
            for key in counters:
                counters[key] += sums.get(key, 0.0)

        def reset() -> None:
            for key in counters:
                counters[key] = 0.0

        while True:
            token = stream.read()
            if token is None:
                break
            if isinstance(token, MainToken):
                first_vertex, last_vertex, interval_sums = token.summary
                if part_start is None:
                    part_start = first_vertex
                if not self._overflows(counters, interval_sums):
                    add(interval_sums)
                    previous_vertex = last_vertex if last_vertex is not None else previous_vertex
                    continue
                # Zoom in: inspect the interval vertex by vertex.
                stream.get_aux()
                for _ in range(token.num_auxiliary):
                    aux = stream.read()
                    vertex, vertex_sums = aux
                    if self._overflows(counters, vertex_sums) and previous_vertex is not None:
                        stream.write((part_start, previous_vertex))
                        reset()
                        part_start = vertex
                    add(vertex_sums)
                    previous_vertex = vertex
            else:  # pragma: no cover - auxiliary tokens are consumed above
                raise AssertionError("unexpected bare auxiliary token")
        if part_start is not None and previous_vertex is not None:
            stream.write((part_start, previous_vertex))


# ---------------------------------------------------------------------------
# Theorem 26 / 28: the full construction
# ---------------------------------------------------------------------------


@dataclass
class SplitTreeResult:
    """Output of Theorem 26: the tree, leaf assignment and charged rounds."""

    tree: PartitionTree
    assignment: LeafAssignment
    split: SplitGraph
    rounds: int
    violations: list[str] = field(default_factory=list)


def _interval_sums(
    split: SplitGraph,
    vertices: Sequence[int],
    ancestors: Sequence[tuple[int, VertexInterval]],
    partitioning_v2: bool,
    pi: int,
) -> tuple[dict[str, float], list[tuple[int, dict[str, float]]]]:
    """Aggregate and per-vertex counter contributions for an interval."""
    per_vertex: list[tuple[int, dict[str, float]]] = []
    totals: dict[str, float] = {}
    ancestor_sets = [(depth, set(part.vertices())) for depth, part in ancestors]
    for vertex in vertices:
        sums: dict[str, float] = {}
        if partitioning_v2:
            sums["deg_2to2"] = float(split.deg_into_v2(vertex))
            sums["deg_2to1"] = float(split.deg_into_v1(vertex))
            up = 0
            neighbors = (split.adj2.get(vertex, set()) | split.adj12.get(vertex, set())
                         | split.adj1.get(vertex, set()))
            for _, members in ancestor_sets:
                up += len(neighbors & members)
            sums["up_deg_2to2"] = float(up)
        else:
            sums["deg_1to1"] = float(split.deg_into_v1(vertex))
            neighbors = (split.adj1.get(vertex, set()) | split.adj12.get(vertex, set())
                         | split.adj2.get(vertex, set()))
            up_v1 = sum(len(neighbors & members) for depth, members in ancestor_sets if depth >= pi)
            up_v2 = sum(len(neighbors & members) for depth, members in ancestor_sets if depth < pi)
            sums["up_deg_1to1"] = float(up_v1)
            sums["up_deg_1to2"] = float(up_v2)
        per_vertex.append((vertex, sums))
        for key, value in sums.items():
            totals[key] = totals.get(key, 0.0) + value
    return totals, per_vertex


def _universe_intervals(universe: Sequence[int], num_chunks: int) -> list[list[int]]:
    """Split a sorted universe into ``num_chunks`` contiguous intervals."""
    ordered = sorted(universe)
    if not ordered:
        return [[] for _ in range(num_chunks)]
    chunk = math.ceil(len(ordered) / max(1, num_chunks))
    return [ordered[i * chunk : (i + 1) * chunk] for i in range(num_chunks)]


def construct_split_kp_tree(
    cluster: KpCompatibleCluster,
    p: int,
    p_prime: int,
    router: ClusterRouter | None = None,
    constraints: SplitTreeConstraints | None = None,
    build_constraints: SplitTreeConstraints | None = None,
    check_constraints: bool = False,
) -> SplitTreeResult:
    """Theorem 26: construct a (p', p)-split Kp-partition tree of a cluster.

    The first ``π = p - p'`` layers partition ``V_2 = V \\ V_C^-`` and the
    remaining ``p'`` layers partition ``V_1 = V_C^-``; all parts end up known
    to all ``V_C^-`` vertices (Lemma 27 broadcasts are charged through the
    router) and the leaf layer is distributed over ``V_C^*`` by Lemma 20.
    """
    if not 2 <= p_prime <= p:
        raise ValueError("p' must satisfy 2 <= p' <= p")
    split = SplitGraph.from_cluster(cluster)
    members = cluster.ordered_members()
    k = len(members)
    rounds_before = router.accountant.metrics.rounds if router is not None else 0
    ab = max(2, math.ceil(max(1, k) ** (1.0 / p)))
    if constraints is None:
        constraints = SplitTreeConstraints(p=p, p_prime=p_prime, a=ab, b=ab)
    if build_constraints is None:
        # Tighter targets for the greedy (any partition built against them
        # also satisfies Definition 22 with the official c1=8, c2=36); the
        # smaller parts keep the final-step loads balanced at simulable sizes.
        build_constraints = SplitTreeConstraints(
            c1=2.0, c2=4.0, p=p, p_prime=p_prime, a=constraints.a, b=constraints.b
        )
    pi = constraints.pi

    v1_sorted = sorted(split.v1)
    v2_sorted = sorted(split.v2)

    def prepare_instance(depth: int, ancestors: list[tuple[int, VertexInterval]]):
        """Build the (algorithm, tokens) pair for one layer construction."""
        partitioning_v2 = depth < pi
        universe = v2_sorted if partitioning_v2 else v1_sorted
        if not universe:
            return None, universe
        intervals = _universe_intervals(universe, max(1, k))
        tokens: list[MainToken] = []
        index = 0
        for owner, interval in zip(members, intervals):
            if not interval:
                continue
            totals, per_vertex = _interval_sums(split, interval, ancestors, partitioning_v2, pi)
            tokens.append(
                MainToken(
                    index=index,
                    owner=owner,
                    summary=(interval[0], interval[-1], totals),
                    auxiliary=tuple(per_vertex),
                )
            )
            index += 1
        builder = SplitLayerBuilder(
            split=split,
            depth=depth,
            constraints=build_constraints,
            universe_size=len(universe),
            n_in=max(1, len(tokens)),
        )
        return AlgorithmInstance(algorithm=builder, tokens=tokens), universe

    def build_layer_batch(specs: list[tuple[int, list[tuple[int, VertexInterval]]]]) -> list[Partition]:
        """Construct all partitions of one layer in parallel (Lemma 30).

        The instances of a layer are simulated together in a single Theorem 11
        invocation, so the round cost of a layer is that of one (parallel)
        batch, not the sum over its nodes.
        """
        prepared = [prepare_instance(depth, ancestors) for depth, ancestors in specs]
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
    root_partition = build_layer_batch([(0, [])])[0]
    tree_universe = v1_sorted if pi == 0 else v2_sorted
    tree = PartitionTree.with_root(tree_universe, num_layers=p, root_partition=root_partition)
    frontier: list[PartitionTreeNode] = [tree.root]
    for depth in range(1, p):
        specs: list[tuple[int, list[tuple[int, VertexInterval]]]] = []
        spec_owner: list[tuple[PartitionTreeNode, int]] = []
        for node in frontier:
            # Reconstruct the ancestor (depth, part) pairs along this node's path.
            ancestors: list[tuple[int, VertexInterval]] = []
            current = tree.root
            for choice in node.path:
                ancestors.append((current.depth, current.partition[choice]))
                current = current.child(choice)
            for part_index in range(len(node.partition)):
                specs.append((depth, ancestors + [(node.depth, node.partition[part_index])]))
                spec_owner.append((node, part_index))
        partitions = build_layer_batch(specs)
        next_frontier: list[PartitionTreeNode] = []
        for (node, part_index), child_partition in zip(spec_owner, partitions):
            next_frontier.append(node.add_child(part_index, child_partition))
        frontier = next_frontier
        # Lemma 27: make the new layer known to all V^- vertices.
        if router is not None:
            layer_parts = sum(len(node.partition) for node in frontier)
            router.broadcast(total_words=max(1, layer_parts), phase="lemma27-layer")

    # Leaf distribution (Lemma 20).
    leaf_parts = tree.leaf_parts()
    balanced = balance_by_communication_degree(cluster, router, num_messages=len(leaf_parts))
    assignment = LeafAssignment()
    v_star = sorted(cluster.v_star)
    fallback = v_star if v_star else members
    for number, (node, part_index) in enumerate(leaf_parts, start=1):
        owner = balanced.owner_of_message(number)
        if owner is None and fallback:
            owner = fallback[number % len(fallback)]
        assignment.assign(node.path, part_index, owner if owner is not None else -1)

    violations: list[str] = []
    if check_constraints:
        violations = constraints.check_tree(tree, split)

    rounds_after = router.accountant.metrics.rounds if router is not None else 0
    return SplitTreeResult(
        tree=tree,
        assignment=assignment,
        split=split,
        rounds=rounds_after - rounds_before,
        violations=violations,
    )
