"""Batch-delivery backend: numpy edge occupancy, bucketed completions.

Semantically identical to the reference simulator — the same round driver
(:mod:`repro.engine.rounds`), so the same validation, fault handling and
metrics — but delivery goes through the
:class:`~repro.engine.delivery.WordScheduler` instead of per-edge deques:
``O(1)`` per transfer instead of ``O(words)`` deque operations.
Intermediate word fragments are never materialised.  Under the clean
scenario the completion round of each message is computed arithmetically
at enqueue time, word counts are recovered from a difference array, and a
round with no completions costs ``O(active vertices)`` instead of
``O(directed edges)``.  Under a faulty scenario each round advances the
busy edges' FIFOs on numpy arrays, one transmit bit per busy edge, read 64
rounds at a time from the scenario's transmit mask.

The one observable difference is *within-round inbox ordering*: messages
delivered in the same round may arrive in a different order than under the
reference backend.  CONGEST algorithms must not depend on such ordering
(the model gives no such guarantee), and none of the repository's do.
"""

from __future__ import annotations

import networkx as nx

from repro.congest.metrics import CongestMetrics
from repro.congest.network import SynchronousRun
from repro.engine.backend import Backend, VertexFactory
from repro.engine.delivery import GraphIndex, WordScheduler
from repro.engine.registry import register_backend
from repro.engine.rounds import VertexStep, run_rounds
from repro.engine.scenarios import DeliveryScenario, link_projection, resolve_scenario
from repro.engine.vector import is_vector_algorithm, run_vector_algorithm
from repro.graphs.index import LabelCSR
from repro.obs.tracer import Tracer, resolve_tracer


@register_backend("vectorized")
class VectorizedBackend(Backend):
    """Single-process backend with batch (fragment-free) delivery.

    When handed a :class:`~repro.engine.vector.VectorAlgorithm` subclass it
    skips per-vertex dispatch entirely: one ``on_round`` call steps all
    vertices on numpy arrays and the outgoing sender/receiver/word arrays go
    straight into the :class:`~repro.engine.delivery.WordScheduler` (see
    :func:`repro.engine.vector.run_vector_algorithm`).  Ordinary per-vertex
    factories run as a :class:`~repro.engine.rounds.VertexStep` on the same
    scheduler, on a ``LabelCSR``'s ``graph``.
    """

    name = "vectorized"

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
        if is_vector_algorithm(factory):
            return run_vector_algorithm(
                graph,
                factory,
                max_rounds=max_rounds,
                phase=phase,
                metrics=metrics,
                scenario=scenario,
                tracer=tracer,
            )
        graph = graph.graph if isinstance(graph, LabelCSR) else graph
        index = GraphIndex(graph)
        tracer = resolve_tracer(tracer)
        scenario = resolve_scenario(scenario)
        return run_rounds(
            VertexStep(index.nodes, factory, graph),
            WordScheduler(index, link_projection(scenario), tracer=tracer),
            scenario,
            index.nodes,
            max_rounds=max_rounds,
            phase=phase,
            metrics=metrics,
            tracer=tracer,
        )
