"""Tests of partition trees: parts, tree structure, K3 and split constructions."""

import itertools
import math
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.congest.cost import CostAccountant, unit_overhead
from repro.decomposition.cluster import K3CompatibleCluster, KpCompatibleCluster
from repro.decomposition.routing import ClusterRouter
from repro.graphs import erdos_renyi
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.index import LabelCSR
from repro.partition_trees import (
    HTreeConstraints,
    K3Layer,
    Partition,
    PartitionTree,
    SplitGraph,
    SplitTreeConstraints,
    VertexInterval,
    balance_by_communication_degree,
    construct_k3_partition_tree,
    construct_split_kp_tree,
    covering_leaf,
)
from repro.partition_trees.load_balance import (
    DegreeBalancedAssignment,
    MessageBalancer,
    amplifier_broadcast,
)
from repro.streaming.algorithm import PartialPassAlgorithm, StreamingParameters
from repro.streaming.stream import MainToken, Stream


class TestVertexIntervalAndPartition:
    def test_interval_vertices_and_contains(self):
        universe = tuple(range(0, 20, 2))
        interval = VertexInterval(universe, 2, 5)
        assert interval.vertices() == (4, 6, 8, 10)
        assert interval.contains(6)
        assert not interval.contains(7)
        assert not interval.contains(12)
        assert interval.endpoints() == (4, 10)

    def test_empty_interval(self):
        interval = VertexInterval(tuple(range(5)), 0, -1)
        assert interval.size == 0
        assert not interval.contains(0)
        assert interval.endpoints() == (-1, -1)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            VertexInterval(tuple(range(3)), 0, 5)

    def test_partition_from_boundaries_round_trip(self):
        universe = [3, 5, 7, 9, 11]
        partition = Partition.from_boundaries(universe, [(3, 5), (7, 7), (9, 11)])
        assert partition.covers_universe()
        assert partition.part_containing(7) == 1
        assert partition.max_part_size() == 2

    def test_whole_partition(self):
        partition = Partition.whole([4, 2, 8])
        assert partition.covers_universe()
        assert len(partition) == 1


def _uniform_tree(universe, layers, parts_per_node):
    """A small hand-built partition tree splitting the universe evenly."""
    ordered = sorted(universe)
    chunk = math.ceil(len(ordered) / parts_per_node)
    boundaries = [
        (ordered[i * chunk], ordered[min(len(ordered), (i + 1) * chunk) - 1])
        for i in range(math.ceil(len(ordered) / chunk))
    ]
    partition = Partition.from_boundaries(ordered, boundaries)
    tree = PartitionTree.with_root(ordered, num_layers=layers, root_partition=partition)
    frontier = [tree.root]
    for _ in range(layers - 1):
        next_frontier = []
        for node in frontier:
            for index in range(len(node.partition)):
                next_frontier.append(node.add_child(index, partition))
        frontier = next_frontier
    return tree


class TestPartitionTreeStructure:
    def test_structure_validation(self):
        tree = _uniform_tree(range(12), layers=3, parts_per_node=3)
        tree.validate_structure(x=3)
        assert len(tree.leaf_nodes()) == 9
        assert len(tree.leaf_parts()) == 27

    def test_ancestor_parts_length_equals_depth_plus_one(self):
        tree = _uniform_tree(range(12), layers=3, parts_per_node=3)
        node, part_index = tree.leaf_parts()[5]
        ancestors = tree.ancestor_parts(node, part_index)
        assert len(ancestors) == 3

    def test_covering_leaf_theorem_13(self):
        """Every triangle's edges run between the ancestor parts of its leaf."""
        graph = erdos_renyi(12, 6.0, seed=3)
        tree = _uniform_tree(range(12), layers=3, parts_per_node=3)
        for triangle in enumerate_cliques(graph, 3):
            node, part_index, chosen = covering_leaf(tree, list(triangle))
            ancestors = tree.ancestor_parts(node, part_index)
            covered = set()
            for left, right in itertools.combinations(range(len(ancestors)), 2):
                for u in ancestors[left].vertices():
                    for v in ancestors[right].vertices():
                        if graph.has_edge(u, v):
                            covered.add(tuple(sorted((u, v))))
            for u, v in itertools.combinations(triangle, 2):
                assert tuple(sorted((u, v))) in covered

    def test_covering_leaf_wrong_arity(self):
        tree = _uniform_tree(range(12), layers=3, parts_per_node=3)
        with pytest.raises(ValueError):
            covering_leaf(tree, [1, 2])


class TestHTreeConstraints:
    def test_single_part_partitions_violate_size(self):
        """A degenerate tree with one giant part violates SIZE for large k."""
        universe = list(range(256))
        partition = Partition.whole(universe)
        tree = PartitionTree.with_root(universe, 3, partition)
        child = tree.root.add_child(0, partition)
        child.add_child(0, partition)
        graph = erdos_renyi(256, 10.0, seed=1)
        violations = HTreeConstraints(p=3).check_tree(tree, LabelCSR.from_graph(graph))
        assert any("SIZE" in violation for violation in violations)


    def test_counts_match_neighbour_sets(self):
        """DEG and UP_DEG read off the core index equal the counts over
        neighbour sets (each part vertex's neighbours in the universe, in
        each ancestor part), with constants tight enough that parts violate
        all three constraints."""
        graph = erdos_renyi(60, 14.0, seed=8)
        cluster = K3CompatibleCluster.from_edges(graph, graph.edges)
        tree = construct_k3_partition_tree(cluster).tree
        tight = HTreeConstraints(c1=0.5, c2=1.0, c3=0.5, p=3)
        members = cluster.ordered_members()
        k, m = len(members), cluster.core.number_of_edges()
        x = k ** (1.0 / 3)
        m_tilde = max(m, k * x)

        def into(part, target):
            return sum(len(set(graph[v]) & set(target)) for v in part)

        expected = []
        for node in tree.nodes():
            for index, part in enumerate(node.partition):
                if part.size > tight.c3 * k / x + 1e-9:
                    expected.append(
                        f"SIZE violated at path {node.path} part {index}: "
                        f"{part.size} > {tight.c3 * k / x:.1f}"
                    )
                degree = into(part, members)
                if degree > tight.c1 * m_tilde / x + 1e-9:
                    expected.append(
                        f"DEG violated at path {node.path} part {index}: "
                        f"{degree} > {tight.c1 * m_tilde / x:.1f}"
                    )
                ancestors = tree.ancestor_parts(node, index)[:-1]
                up = sum(into(part, ancestor) for ancestor in ancestors)
                bound = tight.c2 * node.depth * m_tilde / (x * x) + tight.c3 * 3 * k / x
                if ancestors and up > bound + 1e-9:
                    expected.append(
                        f"UP_DEG violated at path {node.path} part {index}: {up} > {bound:.1f}"
                    )
        assert {violation.split()[0] for violation in expected} == {"SIZE", "DEG", "UP_DEG"}
        assert tight.check_tree(tree, cluster.core) == expected


class TestLoadBalanceLemmas:
    def _cluster(self, n=60):
        graph = erdos_renyi(n, 12.0, seed=8)
        cluster = K3CompatibleCluster.from_edges(graph, graph.edges)
        accountant = CostAccountant(n=n, overhead=unit_overhead())
        return cluster, ClusterRouter(cluster=cluster, accountant=accountant)

    def test_message_balancer_respects_budgets(self):
        balancer = MessageBalancer(num_messages=50, total_comm_degree=200, mu=4.0, n=60, k=50)
        tokens = [MainToken(index=i, owner=i, summary=(i, 4)) for i in range(50)]
        outputs = balancer.run_reference(Stream(tokens, b_aux=0, b_write=1))
        assert len(outputs) == 50

    def test_balance_by_degree_covers_all_messages(self):
        cluster, router = self._cluster()
        num_messages = cluster.k
        assignment = balance_by_communication_degree(cluster, router, num_messages)
        owners = [assignment.owner_of_message(m) for m in range(1, num_messages + 1)]
        assert all(owner is not None for owner in owners)
        assert set(owners) <= set(cluster.v_star)

    def test_balance_by_degree_proportional_loads(self):
        """Lemma 20: each V* vertex gets O(deg/mu) messages."""
        cluster, router = self._cluster()
        num_messages = cluster.k
        assignment = balance_by_communication_degree(cluster, router, num_messages)
        mu = cluster.mu
        for vertex in cluster.v_star:
            load = len(assignment.messages_of(vertex, num_messages))
            bound = 4 * (cluster.communication_degree(vertex) / mu) + 2
            assert load <= bound

    def test_low_degree_vertices_get_nothing(self):
        cluster, router = self._cluster()
        assignment = balance_by_communication_degree(cluster, router, cluster.k)
        below_average = set(cluster.v_minus) - set(cluster.v_star)
        for vertex in below_average:
            assert assignment.ranges.get(vertex) is None

    def test_owner_of_message_searches_the_ranges(self):
        """Vertices without a range and empty ranges are skipped; a number
        outside every range has no owner."""
        assignment = DegreeBalancedAssignment(
            ranges={"a": None, "b": (1, 4), "c": (5, 4), "d": None, "e": (5, 6), "f": (7, 10)},
            rounds=0,
        )
        owners = [assignment.owner_of_message(m) for m in range(-1, 13)]
        assert owners == [None, None] + ["b"] * 4 + ["e"] * 2 + ["f"] * 4 + [None] * 2
        assert DegreeBalancedAssignment(ranges={}, rounds=0).owner_of_message(1) is None

    def test_amplifier_broadcast_reaches_everyone(self):
        cluster, router = self._cluster()
        members = cluster.ordered_members()
        holders = {f"msg{i}": members[i % len(members)] for i in range(10)}
        known = amplifier_broadcast(cluster, router, holders)
        for audience in known.values():
            assert audience == set(members)


class TestK3Construction:
    def _cluster(self, n=60, seed=8):
        graph = erdos_renyi(n, 14.0, seed=seed)
        cluster = K3CompatibleCluster.from_edges(graph, graph.edges)
        accountant = CostAccountant(n=n, overhead=unit_overhead())
        return graph, cluster, ClusterRouter(cluster=cluster, accountant=accountant)

    def test_three_layers_and_universe(self):
        _, cluster, router = self._cluster()
        result = construct_k3_partition_tree(cluster, router=router)
        assert result.tree.num_layers == 3
        assert set(result.tree.universe) == set(cluster.ordered_members())
        result.tree.validate_structure()

    def test_definition_14_constraints_hold(self):
        _, cluster, router = self._cluster()
        result = construct_k3_partition_tree(cluster, router=router, check_constraints=True)
        assert result.violations == []

    def test_rounds_charged(self):
        _, cluster, router = self._cluster()
        result = construct_k3_partition_tree(cluster, router=router)
        assert result.rounds > 0

    def test_every_leaf_part_assigned_to_a_vstar_vertex(self):
        _, cluster, router = self._cluster()
        result = construct_k3_partition_tree(cluster, router=router)
        assert len(result.assignment) == len(result.tree.leaf_parts())
        assert set(result.assignment.owner.values()) <= set(cluster.v_star)

    def test_leaf_load_balanced_by_degree(self):
        """Theorem 16: each V* vertex owns O(deg/mu) leaf parts."""
        _, cluster, router = self._cluster()
        result = construct_k3_partition_tree(cluster, router=router)
        mu = cluster.mu
        total_parts = len(result.tree.leaf_parts())
        k = cluster.k
        for vertex, load in result.assignment.load_per_vertex().items():
            bound = 4 * (total_parts / k) * (cluster.communication_degree(vertex) / mu) + 4
            assert load <= bound

    def test_every_triangle_covered_by_some_leaf(self):
        """Theorem 13 applied to the constructed tree over V^-."""
        graph, cluster, router = self._cluster()
        result = construct_k3_partition_tree(cluster, router=router)
        members = set(cluster.ordered_members())
        inner_triangles = [
            t for t in enumerate_cliques(graph, 3) if set(t) <= members
        ]
        for triangle in inner_triangles:
            node, part_index, _ = covering_leaf(result.tree, list(triangle))
            assert (node.path, part_index) in result.assignment.owner

    def test_works_without_router(self):
        _, cluster, _ = self._cluster()
        result = construct_k3_partition_tree(cluster, router=None)
        assert result.rounds == 0
        assert len(result.assignment) > 0

    @pytest.mark.parametrize("charged", [True, False], ids=["router", "no-router"])
    def test_lemma_17_output_budget_is_enforced(self, charged):
        """A DEG cap below every degree closes a part at every vertex: 60
        parts, more than Lemma 17's ``N_out``."""
        _, cluster, router = self._cluster()
        with pytest.raises(AssertionError, match="algorithm wrote 60 tokens, declared N_out=22"):
            construct_k3_partition_tree(
                cluster, router=router if charged else None,
                build_constraints=HTreeConstraints(c1=0.01, c2=4.0, c3=1.0, p=3),
            )


class StreamK3Layer(PartialPassAlgorithm):
    """Lemma 17's greedy as a partial-pass streaming algorithm, with the caps
    of a :class:`K3Layer`: main token ``i`` carries ``(i, degree, ancestor
    degrees)``.  The oracle of :meth:`K3Layer.parts`."""

    def __init__(self, layer: K3Layer, k: int):
        self.layer = layer
        self.k = k

    def parameters(self) -> StreamingParameters:
        n_out = self.layer.n_out
        return StreamingParameters(token_bits=64, n_in=self.k, n_out=n_out, b_aux=0, b_write=n_out)

    def process(self, stream: Stream) -> None:
        layer = self.layer
        size_counter = deg_counter = up_deg_counter = 0
        part_start = previous_vertex = None
        while (token := stream.read()) is not None:
            vertex, degree, ancestor_degrees = token.summary
            up_degree = sum(ancestor_degrees)
            overflow = (
                size_counter + 1 > layer.max_size
                or deg_counter + degree > layer.max_deg
                or up_deg_counter + up_degree > layer.max_up_deg
            )
            if overflow and part_start is not None:
                stream.write((part_start, previous_vertex))
                size_counter = deg_counter = up_deg_counter = 0
                part_start = vertex
            elif part_start is None:
                part_start = vertex
            size_counter += 1
            deg_counter += degree
            up_deg_counter += up_degree
            previous_vertex = vertex
        if part_start is not None:
            stream.write((part_start, previous_vertex))


# Zeros, small degrees and degrees past every drawn cap, so a vertex can pass
# a cap alone; caps are exact integers or fractions.
_degrees = st.one_of(st.just(0), st.integers(0, 6), st.integers(20, 40))
_caps = st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 30.0))


@st.composite
def k3_layer_inputs(draw):
    k = draw(st.integers(1, 40))
    column = st.lists(_degrees, min_size=k, max_size=k)
    layer = K3Layer(
        max_size=draw(st.one_of(st.integers(0, 12).map(float), st.floats(0.0, 12.0))),
        max_deg=draw(_caps),
        max_up_deg=draw(_caps),
        # B_write is N_out, and two writes can follow the last read (the
        # part it closes and the last part), so N_out >= 2 as in Lemma 17.
        n_out=draw(st.integers(2, k + 1)),
    )
    return draw(column), draw(st.lists(column, max_size=2)), layer


@given(k3_layer_inputs())
@example(([3, 2, 5, 0, 0], [], K3Layer(10.0, 5.0, 0.0, 5)))  # sums hit an integer cap
@example(([0, 9, 1, 1], [[1, 0, 0, 2]], K3Layer(10.0, 4.0, 2.0, 4)))  # 9 alone passes
@example(([1, 1, 1], [[2, 2, 2], [1, 1, 1]], K3Layer(10.0, 9.0, 2.0, 2)))  # over N_out
@settings(max_examples=300, deadline=None)
def test_k3_layer_matches_the_stream_algorithm(inputs):
    """:meth:`K3Layer.parts` writes the parts, or fails the ``N_out`` check
    with the message, of the stream run of Lemma 17's greedy."""
    degrees, ancestors, layer = inputs
    tokens = [
        MainToken(index=i, owner=i, summary=(i, degrees[i], tuple(a[i] for a in ancestors)))
        for i in range(len(degrees))
    ]
    oracle = StreamK3Layer(layer, len(degrees))
    columns = [np.array(a, dtype=np.int64) for a in ancestors]
    try:
        expected = oracle.run_reference(oracle.enforce_budgets(tokens))
    except AssertionError as error:
        with pytest.raises(AssertionError, match=re.escape(str(error))):
            layer.parts(np.array(degrees, dtype=np.int64), columns)
    else:
        assert layer.parts(np.array(degrees, dtype=np.int64), columns) == expected


class TestSplitTree:
    def _cluster(self, n=70, seed=5, p=4):
        graph = erdos_renyi(n, 16.0, seed=seed)
        core_edges = [e for e in graph.edges if e[0] < n // 2 and e[1] < n // 2]
        cluster = KpCompatibleCluster.from_edges(graph, core_edges, p=p, delta=3)
        index = LabelCSR.from_graph(graph)
        split = SplitGraph.from_index(index, index.ids(cluster.ordered_members()))
        accountant = CostAccountant(n=n, overhead=unit_overhead())
        return graph, cluster, split, ClusterRouter(cluster=cluster, accountant=accountant)

    def test_split_graph_edge_classification(self):
        """``E_1`` is ``G[V_C^-]`` and ``E_2`` the edges among the outside
        neighbours of ``V_C^-`` (Definition 21, Lemma 43); ``E_12`` and the
        two vertex ranges are checked in tests/test_clusters_and_routing.py."""
        graph, cluster, split, _ = self._cluster()
        inside = cluster.v_minus
        near = inside.union(*(graph[v] for v in inside))
        edges = {frozenset(edge) for edge in split.index.edges()}
        e1 = {edge for edge in edges if edge <= inside}
        e2 = {edge for edge in edges if not edge & inside}
        assert edges <= {frozenset(edge) for edge in graph.edges}
        assert e1 == {frozenset(edge) for edge in graph.subgraph(inside).edges}
        assert e2 == {frozenset(edge) for edge in graph.subgraph(near - inside).edges}
        assert (split.m1, split.m2, split.m12) == (len(e1), len(e2), len(edges - e1 - e2))

    def test_split_tree_layer_universes(self):
        _, cluster, split, router = self._cluster()
        result = construct_split_kp_tree(cluster, split, p=4, p_prime=2, router=router)
        tree = result.tree
        pi = 4 - 2
        v1, v2 = set(split.index.labels[: split.k]), set(split.index.labels[split.k :])
        for node in tree.nodes():
            universe = set(node.partition.universe)
            if node.depth < pi:
                assert universe <= v2
            else:
                assert universe <= v1

    def test_split_tree_has_p_layers_and_valid_partitions(self):
        _, cluster, split, router = self._cluster()
        result = construct_split_kp_tree(cluster, split, p=4, p_prime=3, router=router)
        assert result.tree.num_layers == 4
        for node in result.tree.nodes():
            assert node.partition.covers_universe()

    def test_definition_22_constraints_hold(self):
        _, cluster, split, router = self._cluster()
        result = construct_split_kp_tree(cluster, split, p=4, p_prime=2, router=router,
                                         check_constraints=True)
        assert result.violations == []

    @pytest.mark.parametrize("p_prime", [2, 3])
    def test_range_queries_match_neighbour_sets(self, p_prime):
        """Algorithm 2's per-vertex counters and Definition 22's counts (set
        semantics: an edge inside two overlapping parts counts once) equal
        the same counts over neighbour sets of ``G``, on every node of a tree
        and with constants tight enough that parts violate them."""
        graph, cluster, split, router = self._cluster()
        result = construct_split_kp_tree(cluster, split, p=4, p_prime=p_prime, router=router)
        labels, pi = split.index.labels, 4 - p_prime
        v1, v2 = set(labels[: split.k]), set(labels[split.k :])
        near = v1.union(*(graph[v] for v in v1))
        adjacency = {v: set(graph[v]) & near if v in near else set() for v in labels}

        def between(left, right):
            return len({frozenset((a, b)) for a in left for b in adjacency[a] & set(right)})

        tight = SplitTreeConstraints(c1=0.5, c2=0.5, p=4, p_prime=p_prime, a=2, b=2)
        expected = []
        for node in result.tree.nodes():
            in_v2 = node.depth < pi
            limits = tight.thresholds(split, node.depth)
            universe = node.partition.universe
            for index in range(len(node.partition)):
                *ancestors, part = result.tree.ancestor_parts(node, index)
                # Per universe vertex, its degree into each ancestor part.
                up = [[len(adjacency[v] & set(anc)) for anc in ancestors] for v in universe]
                if in_v2:
                    reference = [
                        [len(adjacency[v] & v2), len(adjacency[v] & v1), sum(row)]
                        for v, row in zip(universe, up)
                    ]
                    counts = (between(part, v2), between(part, v1),
                              sum(between(part, anc) for anc in ancestors))
                else:
                    reference = [
                        [len(adjacency[v] & v1), sum(row[pi:]), sum(row[:pi])]
                        for v, row in zip(universe, up)
                    ]
                    counts = (between(part, v1),
                              sum(between(part, anc) for anc in ancestors[pi:]),
                              sum(between(part, anc) for anc in ancestors[:pi]))
                assert tight.counters(split, ancestors).tolist() == reference
                expected.extend(
                    f"{name} at {node.path}/{index}"
                    for (name, limit), count in zip(limits.items(), counts)
                    if count > limit + 1e-9
                )
        assert expected
        assert tight.check_tree(result.tree, split) == expected

    def test_invalid_p_prime_rejected(self):
        _, cluster, split, router = self._cluster()
        with pytest.raises(ValueError):
            construct_split_kp_tree(cluster, split, p=4, p_prime=1, router=router)

    def test_rounds_charged(self):
        _, cluster, split, router = self._cluster()
        result = construct_split_kp_tree(cluster, split, p=4, p_prime=2, router=router)
        assert result.rounds > 0

    def test_theorem_23_coverage(self):
        """Cliques with exactly p' vertices in V1 are covered by some leaf."""
        graph, cluster, split, router = self._cluster()
        result = construct_split_kp_tree(cluster, split, p=4, p_prime=2, router=router)
        v1 = set(split.index.labels[: split.k])
        candidates = [
            clique for clique in enumerate_cliques(graph, 4)
            if len(set(clique) & v1) == 2
        ][:10]
        assert candidates
        for clique in candidates:
            outside = sorted(set(clique) - v1)
            inside = sorted(set(clique) & v1)
            ordered = outside + inside  # V2 vertices choose first, then V1
            node, part_index, chosen = covering_leaf(result.tree, ordered)
            ancestors = result.tree.ancestor_parts(node, part_index)
            ranges = [split.part_ids(part, depth < 2) for depth, part in enumerate(ancestors)]
            learned = set()
            for a, b in itertools.combinations(ranges, 2):
                learned.update(
                    tuple(sorted(pair))
                    for pair in split.index.label_pairs(split.edges_between(a, b))
                )
            for u, v in itertools.combinations(clique, 2):
                assert tuple(sorted((u, v))) in learned
