"""The common interface every execution backend implements.

A backend is a *strategy for driving a synchronous CONGEST execution*: it
instantiates one :class:`~repro.congest.vertex.VertexAlgorithm` per vertex,
runs them in lockstep rounds under the model's one-word-per-edge bandwidth
constraint, and returns the same :class:`~repro.congest.network.SynchronousRun`
regardless of how the rounds were executed.  The built-in backends share one
round driver (:func:`repro.engine.rounds.run_rounds`) and differ only in the
compute step and transport they plug into it.  The contract is semantic
equivalence: for any algorithm and any delivery scenario, all backends must
agree on per-vertex outputs, round counts, and message/word totals — only
wall-clock time may differ.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import networkx as nx

from repro.congest.metrics import CongestMetrics
from repro.congest.vertex import VertexFactory
from repro.engine.scenarios import DeliveryScenario
from repro.graphs.index import LabelCSR
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.congest.network import SynchronousRun


class Backend(ABC):
    """A pluggable round-execution engine for CONGEST simulations.

    Attributes:
        name: registry key of the backend (``reference``, ``vectorized``);
            :func:`repro.engine.run_algorithm` and
            :class:`~repro.experiments.ExperimentSpec` select backends by it.
    """

    name: str = "abstract"

    @abstractmethod
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
    ) -> "SynchronousRun":
        """Drive ``factory`` on every vertex of ``graph`` to termination.

        Args:
            graph: undirected communication topology, an ``nx.Graph`` or a
                ``LabelCSR`` (vector runs read its arrays, others its ``graph``).
            factory: called as ``factory(vertex, neighbors, n)`` per vertex.
            max_rounds: safety cap on synchronous rounds.
            phase: metrics phase rounds and messages are charged to.
            metrics: counter object to update (a fresh one when ``None``).
            scenario: delivery model; ``None`` means clean synchronous.
            tracer: observability sink (:mod:`repro.obs`); ``None`` means
                untraced.  Tracing must never perturb the execution — a
                traced run produces bit-identical results to an untraced
                one.

        Returns:
            A :class:`~repro.congest.network.SynchronousRun`.
        """

    def resolve_factory(self, factory: VertexFactory) -> VertexFactory:
        """Adapt a :class:`~repro.engine.vector.VectorAlgorithm` for this backend.

        A vector algorithm class declares a ``per_vertex`` twin; backends
        that execute only per-vertex code (the reference backend) call this
        at the top of :meth:`run` so the same class is accepted everywhere.
        Ordinary per-vertex factories pass through untouched.
        """
        from repro.engine.vector import as_vertex_factory, is_vector_algorithm

        if is_vector_algorithm(factory):
            return as_vertex_factory(factory)
        return factory

    def describe(self) -> str:
        return type(self).__name__
