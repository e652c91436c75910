"""Pluggable high-performance execution engine for CONGEST simulation.

The engine separates *what a distributed algorithm does* (the per-vertex
:class:`~repro.congest.vertex.VertexAlgorithm` code) from *how the rounds
are executed*.  The round itself is written once, in
:mod:`repro.engine.rounds`: one driver with two pluggable parts, a compute
step (per-vertex shards, in-process or forked, or one vector algorithm) and
a transport (the reference per-edge queues or the batch
:class:`~repro.engine.delivery.WordScheduler`).  Each backend is a short
set-up that picks the two parts:

* :mod:`repro.engine.backend` -- the :class:`Backend` strategy interface.
* :mod:`repro.engine.registry` -- open backend / scenario registries:
  ``@register_backend`` and ``@register_scenario`` make new implementations
  selectable by name everywhere without editing library internals.
* :mod:`repro.engine.reference` -- one in-process shard on
  :class:`~repro.congest.network.CongestNetwork`'s edge-by-edge queues; the
  semantic ground truth.
* :mod:`repro.engine.vectorized` -- one in-process shard on the batch
  scheduler; ~10-100x faster on fragmentation-heavy workloads.
* :mod:`repro.engine.vector` -- the vectorized per-vertex layer: a
  :class:`VectorAlgorithm` steps *all* vertices in one numpy ``on_round``
  call, eliminating the Python per-vertex loop entirely on the vectorized
  backend while still running per-vertex (via its ``per_vertex`` twin) on
  the reference and sharded backends.
* :mod:`repro.engine.sharded` -- one shard per forked worker process with
  per-round barriers; each round crosses every worker's pipe as one
  pickled columnar batch each way, plus the round's crashes.
* :mod:`repro.engine.scenarios` -- pluggable, composable delivery models:
  clean synchronous, per-round link drops, adversarial bounded delay,
  correlated bursty outages, per-edge heterogeneous bandwidth, and the
  :class:`ComposedScenario` overlay/sequential combinator (JSON-serialisable
  via :func:`build_composed`).  Every built-in ships a batch
  ``transmit_mask`` kernel that reads each row from its own start round,
  so the fast backends schedule faulty scenarios with per-edge prefix sums
  over windows starting where each edge's traffic starts, instead of
  per-round decision replay.
* :mod:`repro.engine.runner` -- :func:`run_algorithm`, the single-execution
  compatibility shim; declarative sweeps and grids live one layer up in
  :mod:`repro.experiments`.

All backends are semantically equivalent: same outputs, same round counts,
same message/word accounting, under every scenario.
"""

from repro.engine.backend import Backend
from repro.engine.reference import ReferenceBackend
from repro.engine.registry import (
    available_backends,
    available_scenarios,
    backend_registry,
    register_backend,
    register_scenario,
    scenario_registry,
)
from repro.engine.runner import (
    BACKENDS,
    resolve_backend,
    run_algorithm,
)
from repro.engine.scenarios import (
    SCENARIOS,
    AdversarialDelayScenario,
    BurstyFaultScenario,
    CleanSynchronous,
    ComposedScenario,
    DeliveryScenario,
    HeterogeneousBandwidthScenario,
    LinkDropScenario,
    RoundStats,
    build_composed,
    resolve_scenario,
)
from repro.engine.sharded import ShardedBackend
from repro.engine.vector import (
    VectorAlgorithm,
    VectorInbox,
    VectorSends,
    VectorTopology,
    as_vertex_factory,
    is_vector_algorithm,
    run_vector_algorithm,
)
from repro.engine.vectorized import VectorizedBackend

__all__ = [
    "VectorAlgorithm",
    "VectorInbox",
    "VectorSends",
    "VectorTopology",
    "as_vertex_factory",
    "is_vector_algorithm",
    "run_vector_algorithm",
    "Backend",
    "BACKENDS",
    "ReferenceBackend",
    "VectorizedBackend",
    "ShardedBackend",
    "available_backends",
    "available_scenarios",
    "backend_registry",
    "scenario_registry",
    "register_backend",
    "register_scenario",
    "resolve_backend",
    "run_algorithm",
    "DeliveryScenario",
    "CleanSynchronous",
    "LinkDropScenario",
    "AdversarialDelayScenario",
    "BurstyFaultScenario",
    "HeterogeneousBandwidthScenario",
    "ComposedScenario",
    "RoundStats",
    "SCENARIOS",
    "build_composed",
    "resolve_scenario",
]
