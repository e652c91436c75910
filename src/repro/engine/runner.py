"""The one entry point for running a CONGEST algorithm on any backend.

Usage::

    from repro.engine import run_algorithm

    run = run_algorithm(graph, MyAlgorithm)                       # reference
    run = run_algorithm(graph, MyAlgorithm, backend="vectorized",
                        scenario=LinkDropScenario(0.05))

``backend`` accepts a registry name, a :class:`~repro.engine.backend.Backend`
instance (a configured user backend), or a backend class.  Backends
and scenarios live in the open registries of :mod:`repro.engine.registry`:
``@register_backend`` / ``@register_scenario`` make new implementations
selectable by name here without touching this module.

:func:`run_algorithm` is exactly ``Session().execute(...)``
(:mod:`repro.experiments`), which calls the backend's ``run``; there is no
other way in.  Seed sweeps, repeats, backend x scenario grids and JSON
reporting build an :class:`~repro.experiments.ExperimentSpec` and run it
through a :class:`~repro.experiments.Session`; batch use (many grids,
repeated submissions, several consumers sharing results) goes through the
experiment service (:mod:`repro.service`, ``scripts/reprod.py serve``),
which answers repeated cells from a content-addressed result cache.
"""

from __future__ import annotations

import networkx as nx

from repro.congest.metrics import CongestMetrics
from repro.congest.network import SynchronousRun
from repro.engine.backend import Backend, VertexFactory
from repro.engine.registry import backend_registry
from repro.engine.reference import ReferenceBackend
from repro.engine.scenarios import DeliveryScenario
from repro.engine.vectorized import VectorizedBackend  # noqa: F401  (registers itself)
from repro.graphs.index import LabelCSR
from repro.obs.tracer import Tracer


def resolve_backend(backend: Backend | type[Backend] | str | None) -> Backend:
    """Accept a backend instance, class, registry name, or ``None``.

    Unknown names raise a :class:`ValueError` enumerating the sorted
    registry names; register new backends with
    :func:`repro.engine.registry.register_backend`.
    """
    if backend is None:
        return ReferenceBackend()
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, type) and issubclass(backend, Backend):
        return backend()
    if isinstance(backend, str):
        return backend_registry.get(backend)()
    raise TypeError(f"cannot interpret {backend!r} as an execution backend")


def run_algorithm(
    graph: nx.Graph | LabelCSR,
    factory: VertexFactory,
    backend: Backend | type[Backend] | str | None = "reference",
    *,
    max_rounds: int = 10_000,
    phase: str = "simulated",
    metrics: CongestMetrics | None = None,
    scenario: DeliveryScenario | str | None = None,
    tracer: "Tracer | None" = None,
) -> SynchronousRun:
    """Run ``factory`` on every vertex of ``graph`` on the selected backend.

    Runs :meth:`repro.experiments.Session.execute` on a fresh session.

    Args:
        graph: undirected communication topology (``nx.Graph`` or ``LabelCSR``).
        factory: called as ``factory(vertex, neighbors, n)`` per vertex.
        backend: backend registry name (see
            :func:`~repro.engine.registry.available_backends`), instance,
            or class.
        max_rounds: safety cap on synchronous rounds.
        phase: metrics phase to charge rounds and messages to.
        metrics: counter object to update (a fresh one when ``None``).
        scenario: delivery model — a :class:`DeliveryScenario`, a scenario
            registry name (see
            :func:`~repro.engine.registry.available_scenarios`), or
            ``None`` for the clean synchronous model.
        tracer: optional :class:`repro.obs.Tracer` receiving the run's
            structured per-round events (``None`` traces nothing).

    Returns:
        A :class:`~repro.congest.network.SynchronousRun`.
    """
    from repro.experiments.session import Session

    return Session().execute(
        graph,
        factory,
        backend=backend,
        max_rounds=max_rounds,
        phase=phase,
        metrics=metrics,
        scenario=scenario,
        tracer=tracer,
    )
