"""p-partition trees and H-partition trees (Definitions 12 and 14).

A ``p``-partition tree has ``p`` layers; every node carries a partition of
the vertex universe into at most ``x`` parts, and the ``j``-th child of a
node corresponds to *choosing* part ``j`` of that node's partition.  The
ancestor parts of a leaf part are the parts chosen along the root-to-leaf
path plus the leaf part itself; Theorem 13 states that for every instance of
a ``p``-vertex subgraph there is a leaf part whose ancestor parts jointly
cover all of the instance's edges — which is what makes the leaf layer a
work-assignment for listing.

``H``-partition trees add the balancing constraints DEG / UP_DEG / SIZE
(Definition 14) with error term ``O(k/x)`` instead of the ``O(n)`` the
Congested-Clique version tolerates; :class:`HTreeConstraints` checks them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.graphs.index import LabelCSR
from repro.partition_trees.parts import Partition, VertexInterval

Path = tuple[int, ...]


@dataclass
class PartitionTreeNode:
    """One node of a partition tree.

    Attributes:
        path: the sequence ``(ℓ_1, ..., ℓ_d)`` of part choices leading to this
            node (empty for the root).
        partition: the partition of the universe associated with this node.
        children: child nodes, keyed by the index of the chosen part.
    """

    path: Path
    partition: Partition
    children: dict[int, "PartitionTreeNode"] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.path)

    def child(self, part_index: int) -> "PartitionTreeNode | None":
        return self.children.get(part_index)

    def add_child(self, part_index: int, partition: Partition) -> "PartitionTreeNode":
        if part_index < 0 or part_index >= len(self.partition):
            raise IndexError(
                f"part index {part_index} out of range for a partition with "
                f"{len(self.partition)} parts"
            )
        node = PartitionTreeNode(path=self.path + (part_index,), partition=partition)
        self.children[part_index] = node
        return node


@dataclass
class PartitionTree:
    """A ``p``-partition tree over a fixed universe (Definition 12)."""

    universe: tuple[int, ...]
    num_layers: int
    root: PartitionTreeNode

    @classmethod
    def with_root(cls, universe: Sequence[int], num_layers: int, root_partition: Partition) -> "PartitionTree":
        if num_layers < 1:
            raise ValueError("a partition tree needs at least one layer")
        root = PartitionTreeNode(path=(), partition=root_partition)
        return cls(universe=tuple(sorted(universe)), num_layers=num_layers, root=root)

    # -- traversal -------------------------------------------------------------

    def nodes(self) -> Iterator[PartitionTreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def leaf_nodes(self) -> list[PartitionTreeNode]:
        """Nodes of the last layer (depth ``num_layers - 1``)."""
        return [node for node in self.nodes() if node.depth == self.num_layers - 1]

    def leaf_parts(self) -> list[tuple[PartitionTreeNode, int]]:
        """All (leaf node, part index) pairs of the leaf layer."""
        result = []
        for node in self.leaf_nodes():
            for index in range(len(node.partition)):
                result.append((node, index))
        return result

    def node_at(self, path: Path) -> PartitionTreeNode:
        node = self.root
        for choice in path:
            child = node.child(choice)
            if child is None:
                raise KeyError(f"no node at path {path}")
            node = child
        return node

    # -- ancestor parts (Definition 12) ---------------------------------------

    def ancestor_parts(self, node: PartitionTreeNode, part_index: int) -> list[VertexInterval]:
        """``anc(U_{S,i})``: the chosen parts along the path plus the part itself."""
        parts: list[VertexInterval] = []
        current = self.root
        for choice in node.path:
            parts.append(current.partition[choice])
            current = current.child(choice)
            if current is None:  # pragma: no cover - defensive
                raise KeyError(f"broken path {node.path}")
        parts.append(node.partition[part_index])
        return parts

    def ancestor_ranges(self, leaves: Iterable[tuple[Path, int]]) -> np.ndarray:
        """Per leaf part ``(path, part index)``, the ``(lo, hi)`` of each of
        its ancestor parts, the root's first: ``int64[len(leaves), layers, 2]``."""
        return np.array([
            [(part.lo, part.hi) for part in self.ancestor_parts(self.node_at(path), index)]
            for path, index in leaves
        ], dtype=np.int64).reshape(-1, self.num_layers, 2)

    def validate_structure(self, x: int | None = None) -> None:
        """Check Definition 12: layers, child counts, partitions cover the universe."""
        for node in self.nodes():
            assert node.depth <= self.num_layers - 1, "node deeper than the leaf layer"
            assert node.partition.covers_universe(), (
                f"partition at path {node.path} does not tile the universe"
            )
            if x is not None:
                assert len(node.partition) <= x, (
                    f"node at path {node.path} has {len(node.partition)} parts > x={x}"
                )
            if node.depth < self.num_layers - 1:
                for index in node.children:
                    assert 0 <= index < len(node.partition)


# ---------------------------------------------------------------------------
# Theorem 13: the covering leaf of a subgraph instance
# ---------------------------------------------------------------------------


def covering_leaf(tree: PartitionTree, instance_vertices: Sequence[int]) -> tuple[PartitionTreeNode, int, list[VertexInterval]]:
    """Trace the root-to-leaf path of Theorem 13 for a subgraph instance.

    The ``i``-th vertex of ``instance_vertices`` selects the part containing
    it at depth ``i``.  Returns the leaf node, the leaf part index and the
    ancestor parts; every edge of the instance runs between two (distinct)
    returned parts.

    Raises:
        KeyError: if a vertex is missing from the universe (callers decide
            whether that is an error or simply means the tree does not cover
            the instance).
    """
    if len(instance_vertices) != tree.num_layers:
        raise ValueError(
            f"instance has {len(instance_vertices)} vertices but the tree has "
            f"{tree.num_layers} layers"
        )
    node = tree.root
    chosen: list[VertexInterval] = []
    for depth, vertex in enumerate(instance_vertices):
        part_index = node.partition.part_containing(vertex)
        chosen.append(node.partition[part_index])
        if depth == tree.num_layers - 1:
            return node, part_index, chosen
        child = node.child(part_index)
        if child is None:
            raise KeyError(f"tree has no child for part {part_index} at path {node.path}")
        node = child
    raise AssertionError("unreachable")  # pragma: no cover


# ---------------------------------------------------------------------------
# Definition 14: the H-partition tree constraints
# ---------------------------------------------------------------------------


def prefix_sums(column: np.ndarray) -> np.ndarray:
    """``[0, column[0], column[0] + column[1], ...]``: a range's sum is a difference."""
    return np.concatenate(([0], np.cumsum(column)))


@dataclass(frozen=True)
class HTreeConstraints:
    """The DEG / UP_DEG / SIZE constraints of Definition 14.

    Attributes:
        c1, c2, c3: the constants of the definition (Lemma 17 proves the
            greedy construction meets them for ``c1=9, c2=36, c3=4``).
        p: number of vertices of the subgraph ``H`` (and layers of the tree).
    """

    c1: float = 9.0
    c2: float = 36.0
    c3: float = 4.0
    p: int = 3

    def check_tree(self, tree: PartitionTree, core: LabelCSR) -> list[str]:
        """Return human-readable violations of DEG / UP_DEG / SIZE (empty if valid).

        ``core`` indexes the tree's universe in its order, so a part is an id
        range: its DEG is a range sum of ``core.degrees`` and its count into
        an ancestor part a range sum of ``core.degrees_into`` that part.
        """
        violations: list[str] = []
        k = len(tree.universe)
        if k == 0:
            return violations
        x = max(1.0, k ** (1.0 / self.p))
        m_tilde = max(core.number_of_edges(), k * x)

        degree_sums = prefix_sums(core.degrees)
        into_sums = functools.cache(lambda lo, hi: prefix_sums(core.degrees_into(lo, hi)))

        def count(sums: np.ndarray, part: VertexInterval) -> int:
            return int(sums[part.hi + 1] - sums[part.lo]) if part.size else 0

        # d_i = number of already-placed neighbours of vertex i of H; for a
        # clique K_p, d_i = i.
        for node in tree.nodes():
            depth = node.depth
            for index, part in enumerate(node.partition):
                if part.size > self.c3 * k / x + 1e-9:
                    violations.append(
                        f"SIZE violated at path {node.path} part {index}: "
                        f"{part.size} > {self.c3 * k / x:.1f}"
                    )
                degree = count(degree_sums, part)
                if degree > self.c1 * m_tilde / x + 1e-9:
                    violations.append(
                        f"DEG violated at path {node.path} part {index}: "
                        f"{degree} > {self.c1 * m_tilde / x:.1f}"
                    )
                ancestors = tree.ancestor_parts(node, index)[:-1]
                if ancestors:
                    up_degree = sum(count(into_sums(a.lo, a.hi), part) for a in ancestors)
                    d_i = depth  # for cliques, vertex i has i earlier neighbours
                    bound = self.c2 * d_i * m_tilde / (x * x) + self.c3 * self.p * k / x
                    if up_degree > bound + 1e-9:
                        violations.append(
                            f"UP_DEG violated at path {node.path} part {index}: "
                            f"{up_degree} > {bound:.1f}"
                        )
        return violations


# ---------------------------------------------------------------------------
# Leaf assignment (the output contract of Theorems 16 / 26)
# ---------------------------------------------------------------------------


@dataclass
class LeafAssignment:
    """Assignment of leaf parts to responsible cluster vertices.

    ``owner[(path, part_index)] = vertex`` means ``vertex`` is responsible
    for learning the edges among the ancestor parts of that leaf part and for
    reporting the cliques found there.
    """

    owner: dict[tuple[Path, int], int] = field(default_factory=dict)

    def assign(self, path: Path, part_index: int, vertex: int) -> None:
        self.owner[(path, part_index)] = vertex

    def load_per_vertex(self) -> dict[int, int]:
        loads: dict[int, int] = {}
        for holder in self.owner.values():
            loads[holder] = loads.get(holder, 0) + 1
        return loads

    def max_load(self) -> int:
        return max(self.load_per_vertex().values(), default=0)

    def __len__(self) -> int:
        return len(self.owner)
