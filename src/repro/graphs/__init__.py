"""Graph substrate: generators, structural properties, ground-truth cliques,
and the label-sorted CSR index the listing pipeline reads."""

from repro.graphs.generators import (
    erdos_renyi,
    planted_cliques,
    clustered_communities,
    power_law,
    ring_of_cliques,
    expander_like,
    deterministic_seed,
)
from repro.graphs.properties import (
    conductance_of_cut,
    graph_conductance_estimate,
    spectral_gap,
    mixing_time_estimate,
    volume,
    degree_statistics,
)
from repro.graphs.cliques import (
    enumerate_cliques,
    count_cliques,
    canonical_clique,
)
from repro.graphs.index import LabelCSR, canonical_edge

__all__ = [
    "erdos_renyi",
    "planted_cliques",
    "clustered_communities",
    "power_law",
    "ring_of_cliques",
    "expander_like",
    "deterministic_seed",
    "conductance_of_cut",
    "graph_conductance_estimate",
    "spectral_gap",
    "mixing_time_estimate",
    "volume",
    "degree_statistics",
    "enumerate_cliques",
    "count_cliques",
    "canonical_clique",
    "LabelCSR",
    "canonical_edge",
]
