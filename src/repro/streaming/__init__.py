"""Partial-pass streaming algorithms and their CONGEST simulation (Section 3)."""

from repro.streaming.stream import MainToken, Stream, StreamBudgetError
from repro.streaming.algorithm import PartialPassAlgorithm, StreamingParameters
from repro.streaming.chains import VertexChain, build_vertex_chain, disjoint_chains
from repro.streaming.simulation import (
    SimulationCharge,
    SimulationPlan,
    SimulationResult,
    charge_simulation,
    simulate_in_cluster,
    simulate_state_passing,
    simulate_leader_with_queries,
)

__all__ = [
    "MainToken",
    "Stream",
    "StreamBudgetError",
    "PartialPassAlgorithm",
    "StreamingParameters",
    "VertexChain",
    "build_vertex_chain",
    "disjoint_chains",
    "SimulationCharge",
    "SimulationPlan",
    "SimulationResult",
    "charge_simulation",
    "simulate_in_cluster",
    "simulate_state_passing",
    "simulate_leader_with_queries",
]
