"""Partition trees (Section 4): p-partition trees, H-partition trees and
(p', p)-split Kp-partition trees, their streaming constructions and the load
balancing lemmas used to distribute them inside communication clusters."""

from repro.partition_trees.parts import VertexInterval, Partition
from repro.partition_trees.tree import (
    PartitionTree,
    PartitionTreeNode,
    LeafAssignment,
    HTreeConstraints,
    covering_leaf,
)
from repro.partition_trees.construction import (
    K3Layer,
    construct_k3_partition_tree,
    K3TreeResult,
)
from repro.partition_trees.split_tree import (
    SplitGraph,
    SplitTreeConstraints,
    SplitLayerBuilder,
    construct_split_kp_tree,
    SplitTreeResult,
)
from repro.partition_trees.load_balance import (
    MessageBalancer,
    broadcast_messages,
    amplifier_broadcast,
    balance_by_communication_degree,
)

__all__ = [
    "VertexInterval",
    "Partition",
    "PartitionTree",
    "PartitionTreeNode",
    "LeafAssignment",
    "HTreeConstraints",
    "covering_leaf",
    "K3Layer",
    "construct_k3_partition_tree",
    "K3TreeResult",
    "SplitGraph",
    "SplitTreeConstraints",
    "SplitLayerBuilder",
    "construct_split_kp_tree",
    "SplitTreeResult",
    "MessageBalancer",
    "broadcast_messages",
    "amplifier_broadcast",
    "balance_by_communication_degree",
]
