"""Batch-delivery backend: numpy edge occupancy, bucketed completions.

Semantically identical to the reference simulator — the same round driver
(:mod:`repro.engine.rounds`), so the same validation, fault handling and
metrics — but delivery goes through the
:class:`~repro.engine.delivery.WordScheduler` instead of per-edge deques:
``O(1)`` per transfer instead of ``O(words)`` deque operations, and a round
with no completions costs ``O(active vertices)`` instead of
``O(directed edges)``.  Intermediate word fragments are never materialised:
the completion round of each message is computed arithmetically (clean
scenario) or by prefix sums over the scenario's transmit mask (faulty
scenarios), and word counts are recovered from a difference array.

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
from repro.engine.registry import register_backend
from repro.engine.scenarios import DeliveryScenario
from repro.engine.sharded import ShardedBackend
from repro.engine.vector import is_vector_algorithm, run_vector_algorithm
from repro.obs.tracer import Tracer


@register_backend("vectorized")
class VectorizedBackend(Backend):
    """Single-process backend with batch (fragment-free) delivery.

    When handed a :class:`~repro.engine.vector.VectorAlgorithm` subclass it
    skips per-vertex dispatch entirely: one ``on_round`` call steps all
    vertices on numpy arrays and the outgoing sender/receiver/word arrays go
    straight into the :class:`~repro.engine.delivery.WordScheduler` (see
    :func:`repro.engine.vector.run_vector_algorithm`).  Ordinary per-vertex
    factories run in one in-process :class:`~repro.engine.rounds.ShardState`
    on the same scheduler: exactly ``ShardedBackend()``.
    """

    name = "vectorized"

    def run(
        self,
        graph: nx.Graph,
        factory: VertexFactory,
        *,
        max_rounds: int = 10_000,
        phase: str = "simulated",
        metrics: CongestMetrics | None = None,
        scenario: DeliveryScenario | None = None,
        tracer: Tracer | None = None,
    ) -> SynchronousRun:
        # Per-vertex factories run on one in-process shard: the same compute
        # code on the same transport as an inline sharded run.
        run = (
            run_vector_algorithm
            if is_vector_algorithm(factory)
            else ShardedBackend().run
        )
        return run(
            graph,
            factory,
            max_rounds=max_rounds,
            phase=phase,
            metrics=metrics,
            scenario=scenario,
            tracer=tracer,
        )
