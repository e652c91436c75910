"""Expander decomposition, communication clusters and routing (substrate).

The paper imports the deterministic expander decomposition and routing of
Chang and Saranurak [CS20] as black boxes (Theorems 5 and 6).  This
subpackage provides objects with the same interfaces and guarantees:

* :mod:`repro.decomposition.expander` -- a deterministic recursive
  sweep-cut decomposition producing vertex-disjoint φ-clusters covering all
  but an ε-fraction of the edges (Definition 4, Lemma 8 analogue).
* :mod:`repro.decomposition.cluster` -- (φ,δ)-communication clusters
  (Definition 7), K3-compatible clusters (Definition 15), Kp-compatible and
  Kp-input clusters (Definitions 24 and 25).
* :mod:`repro.decomposition.routing` -- the round cost of routing within a
  cluster (Theorem 6 analogue), expressed through the cost accountant.
"""

from repro.decomposition.expander import (
    ExpanderDecomposition,
    ExpanderCluster,
    expander_decompose,
    recursive_decomposition_schedule,
)
from repro.decomposition.cluster import (
    CommunicationCluster,
    K3CompatibleCluster,
    KpCompatibleCluster,
    build_communication_cluster,
    core_vertices,
)
from repro.decomposition.routing import ClusterRouter

__all__ = [
    "ExpanderDecomposition",
    "ExpanderCluster",
    "expander_decompose",
    "recursive_decomposition_schedule",
    "CommunicationCluster",
    "K3CompatibleCluster",
    "KpCompatibleCluster",
    "build_communication_cluster",
    "core_vertices",
    "ClusterRouter",
]
