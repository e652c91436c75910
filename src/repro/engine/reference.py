"""The reference backend: the faithful edge-by-edge simulator, wrapped.

This backend delegates to :class:`repro.congest.network.CongestNetwork`,
the round driver's reference transport: it materialises every word fragment
in per-edge FIFO queues and pops one per directed edge per round.  It is the semantic ground truth the fast
backends are validated against, and the right choice when debugging an
algorithm on small graphs.
"""

from __future__ import annotations

import networkx as nx

from repro.congest.metrics import CongestMetrics
from repro.congest.network import CongestNetwork, SynchronousRun
from repro.engine.backend import Backend, VertexFactory
from repro.engine.registry import register_backend
from repro.engine.scenarios import DeliveryScenario
from repro.graphs.index import LabelCSR
from repro.obs.tracer import Tracer


@register_backend("reference")
class ReferenceBackend(Backend):
    """Drives :class:`CongestNetwork` — faithful, single-threaded, O(edges)/round."""

    name = "reference"

    def run(
        self,
        graph: nx.Graph | LabelCSR,
        factory: VertexFactory,
        *,
        max_rounds: int = 10_000,
        phase: str = "simulated",
        metrics: CongestMetrics | None = None,
        scenario: DeliveryScenario | None = None,
        tracer: Tracer | None = None,
    ) -> SynchronousRun:
        factory = self.resolve_factory(factory)
        graph = graph.graph if isinstance(graph, LabelCSR) else graph
        network = CongestNetwork(
            graph, metrics=metrics, scenario=scenario, tracer=tracer
        )
        return network.run(factory, max_rounds=max_rounds, phase=phase)
